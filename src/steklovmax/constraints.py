"""Linear constraint rows on support values and Euclidean projection onto them.

The feasible set in convex mode is the polyhedron cut out by the discrete
convexity rows, the half-width rows, one anchor row pinning the diameter,
and a positivity floor.  Projection is the dual active-set method of
Goldfarb and Idnani (Math. Program. 27, 1983) with identity Hessian,
optionally warm-started from the active rows of a nearby feasible point.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import ProjectionFailure

FEAS_TOL = 1e-10
# is_feasible accepts every slack down to -FEASIBLE_TOL
FEASIBLE_TOL = 1e-9
# The projection works on the rows scaled to unit norm, where a slack is a
# distance; these are fractions of max(1, largest scaled bound).  A row
# violated by at most VIOLATION_TOL counts as satisfied; a feasible start's
# rows with slack within ACTIVE_TOL seed the active set.
VIOLATION_TOL = 1e-14
ACTIVE_TOL = 1e-9
# a row closer than this to the span of the active rows is dependent on them
DEPENDENT_TOL = 1e-7
# a multiplier rate at most this is not positive in the ratio test
RATE_TOL = 1e-12


@dataclass(frozen=True)
class LinearConstraintSet:
    """Rows G x <= h (coeffs G, bounds h), with tags."""

    coeffs: np.ndarray      # (n_rows, n_vars)
    bounds: np.ndarray      # (n_rows,)
    tags: np.ndarray        # (n_rows,) of str

    def __len__(self):
        return self.coeffs.shape[0]

    def residuals(self, x):
        """Slack h - G x of every row at x; feasible iff all >= 0."""
        return self.bounds - self.coeffs @ x

    def is_feasible(self, x):
        return bool(np.all(self.residuals(x) >= -FEASIBLE_TOL))

    @cached_property
    def unit_rows(self):
        """The rows scaled to unit norm, as the projection uses them."""
        return UnitRows.of(self.coeffs, self.bounds)


@dataclass(frozen=True)
class UnitRows:
    """Rows G x <= h scaled to unit norm, their Gram matrix, and the
    equalities among them.

    A row whose exact negation is also a row (the anchor row is width row
    0 negated) makes the pair an equality: the lower-indexed row stays in
    every active set with a multiplier of either sign, and its partner is
    never added, since an active set holding both would be singular.
    """

    coeffs: np.ndarray
    bounds: np.ndarray
    gram: np.ndarray
    limits: np.ndarray      # bounds, +inf on the rows never added
    equalities: np.ndarray  # indices of the rows kept active
    is_equality: np.ndarray  # per row: is it one of the equalities
    scale: float            # max(1, largest scaled bound)

    @classmethod
    def of(cls, coeffs, bounds):
        norms = np.linalg.norm(coeffs, axis=1)
        norms[norms == 0] = 1.0
        g = coeffs / norms[:, None]
        h = bounds / norms

        def key(row, bound):     # + 0.0 turns -0.0 into 0.0
            return (row + 0.0).tobytes() + (bound + 0.0).tobytes()

        first = {}
        for i in range(len(h)):
            first.setdefault(key(coeffs[i], bounds[i]), i)
        is_equality = np.zeros(len(h), dtype=bool)
        limits = h.copy()
        for j in range(len(h)):
            i = first.get(key(-coeffs[j], -bounds[j]))
            if i is not None and i < j:
                is_equality[i] = True
                limits[[i, j]] = np.inf
        return cls(g, h, g @ g.T, limits, np.flatnonzero(is_equality),
                   is_equality, max(1.0, float(np.abs(h).max(initial=0.0))))


def convexity_rows(n, h):
    """N rows p_i + (p_{i+1} + p_{i-1} - 2 p_i)/h^2 >= 0 (cyclic indices)."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 1.0 - 2.0 / h**2
    a[idx, (idx + 1) % n] = 1.0 / h**2
    a[idx, (idx - 1) % n] = 1.0 / h**2
    return a


def diameter_rows(n, d):
    """N/2 width rows p_i + p_{i+N/2} <= d and one anchor row p_0 + p_{N/2} >= d."""
    half = n // 2
    w = np.zeros((half, n))
    idx = np.arange(half)
    w[idx, idx] = 1.0
    w[idx, idx + half] = 1.0
    anchor = np.zeros((1, n))
    anchor[0, 0] = 1.0
    anchor[0, half] = 1.0
    return w, anchor


def build_constraint_set(n, h, d, p_min, convexity_min=0.0):
    """Full convex-mode polyhedron: convexity, width, anchor, positivity rows.

    The '>=' rows (convexity, anchor, positivity) are stored negated, so
    every row reads G x <= h.  convexity_min > 0 floors the discrete radius
    of curvature, keeping the reconstructed vertices distinct (every edge
    has length >= convexity_min * h); the parametrization stays
    differentiable on the floored set.
    """
    conv = convexity_rows(n, h)
    widths, anchor = diameter_rows(n, d)
    pos = np.eye(n)
    coeffs = np.vstack([-conv, widths, -anchor, -pos])
    bounds = np.concatenate([np.full(n, -convexity_min), np.full(n // 2, d),
                             [-d], np.full(n, -p_min)])
    tags = np.array(["convexity"] * n + ["width"] * (n // 2) + ["anchor"]
                    + ["positivity"] * n)
    return LinearConstraintSet(coeffs, bounds, tags)


def project(x, cset: LinearConstraintSet, start=None):
    """Euclidean projection of x onto the polyhedron of cset.

    Minimizes 1/2 |z - x|^2 subject to G z <= h by the dual active-set
    method of Goldfarb and Idnani.  start, a feasible point, seeds the
    active set with its active rows (a warm start); without it the active
    set starts from the equalities alone.  z and its multipliers are then
    solved afresh on the sorted final active set, so the result depends on
    that set alone, not on the path to it.
    """
    x = np.asarray(x, dtype=float)
    g, hh = cset.coeffs, cset.bounds
    if np.all(hh - g @ x >= -FEAS_TOL):
        return x.copy()
    rows = cset.unit_rows
    out = solve_on(x, rows, active_rows(x, rows, start))
    worst = float(np.min(hh - g @ out))
    if worst < -1e3 * FEAS_TOL * max(1.0, float(np.abs(hh).max())):
        raise ProjectionFailure(f"projection infeasible by {-worst:.3e}")
    return out


def solve_on(x, rows, active):
    """The point nearest x with the given rows active: z = x - G_A^T u."""
    factor, u = _multipliers(rows.coeffs @ x - rows.bounds, rows, active)
    if factor is None:
        raise ProjectionFailure("active rows linearly dependent")
    return x - rows.coeffs[active].T @ u


def _multipliers(excess, rows, active):
    """Lower Cholesky factor of G_A G_A^T and the multipliers u solving
    G_A G_A^T u = G_A x - h_A, given excess = G x - h; (None, None) when
    the factorization fails."""
    if not len(active):
        return np.zeros((0, 0), order="F"), np.zeros(0)
    # the Gram block is symmetric: its transpose is the Fortran-ordered copy
    factor, info = lapack.dpotrf(rows.gram[active][:, active].T, lower=1)
    if info != 0:
        return None, None
    u, _ = lapack.dpotrs(factor, excess[active], lower=1)
    return factor, u


def active_rows(x, rows, start=None):
    """Sorted active rows of the projection of x, found by the dual method
    from the active rows of start (or the equalities alone)."""
    qp = _DualActiveSet(x, rows, _seed(rows, start))
    tol = VIOLATION_TOL * rows.scale
    for _ in range(10 * len(rows.limits)):
        viol = rows.coeffs @ qp.z - qp.limits
        p = int(np.argmax(viol))
        if viol[p] <= tol:
            return np.sort(qp.rows)
        qp.add(p, float(viol[p]))
    raise ProjectionFailure("active-set iteration limit reached")


def _seed(rows, start):
    """The equalities, then the rows of start with slack within ACTIVE_TOL
    that may be added."""
    if start is None:
        return rows.equalities
    slack = rows.limits - rows.coeffs @ np.asarray(start, dtype=float)
    near = np.abs(slack) <= ACTIVE_TOL * rows.scale
    return np.concatenate([rows.equalities, np.flatnonzero(near)])


class _DualActiveSet:
    """Active rows A, their multipliers u >= 0 (equalities: any sign), the
    lower Cholesky factor L of G_A G_A^T, and z = x - G_A^T u, the nearest
    point to x with the rows of A active.

    The seed rows with negative multipliers are dropped first
    (_dual_feasible), so the method starts dual feasible.  Then an added
    row appends a row to L; a dropped row leaves the rows of L above it as
    they are, and the trailing block T, less the column c of the dropped
    row, becomes the factor of T T^T + c c^T (a rank-one update).  The
    equalities hold the first rows.
    """

    def __init__(self, x, rows, seed):
        active = np.asarray(seed, dtype=int)
        excess = rows.coeffs @ x - rows.bounds
        factor, u = _multipliers(excess, rows, active)
        if factor is None or np.diag(factor).min(initial=1.0) < DEPENDENT_TOL:
            # a dependent seed: start from the equalities alone
            active = rows.equalities
            factor, u = _multipliers(excess, rows, active)
            if factor is None:
                raise ProjectionFailure("equality rows dependent")
        keep = _dual_feasible(factor, u, rows.is_equality[active])
        if not keep.all():
            active = active[keep]
            factor, u = _multipliers(excess, rows, active)
            if factor is None:
                raise ProjectionFailure("active rows dependent")
        n, k = x.size, active.size
        self.g = rows.coeffs
        self.row_limits = rows.limits
        self.first = rows.equalities.size   # rows before it: equalities
        self.rows = list(active)
        self.factor = factor
        self.ga = np.zeros((n, n))      # G_A, one active row per row
        self.ga[:k] = rows.coeffs[active]
        self.u = np.zeros(n)
        self.u[:k] = u
        self.limits = rows.limits.copy()    # +inf on the active rows
        self.limits[active] = np.inf
        self.z = x - self.ga[:k].T @ u

    def add(self, p, viol):
        """Make violated row p active: move along the dual step, dropping
        each active row whose multiplier reaches 0 first."""
        gp = self.g[p]
        up = 0.0
        first = self.first
        while True:
            k = len(self.rows)
            ga, u = self.ga[:k], self.u[:k]
            if k:
                lo, _ = lapack.dtrtrs(self.factor, ga @ gp, lower=1)
                rate, _ = lapack.dtrtrs(self.factor, lo, lower=1, trans=1)
                step = gp - ga.T @ rate
            else:
                lo = rate = np.zeros(0)
                step = gp
            # z moves by -t step, u_A by -t rate, u_p by +t
            dist2 = float(step @ step)
            full = viol / dist2 if dist2 > DEPENDENT_TOL ** 2 else np.inf
            ratios = np.full(k - first, np.inf)
            np.divide(u[first:], rate[first:], out=ratios,
                      where=rate[first:] > RATE_TOL)
            j = first + int(np.argmin(ratios)) if k > first else 0
            partial = max(float(ratios[j - first]), 0.0) if k > first \
                else np.inf
            t = min(full, partial)
            if t == np.inf:
                raise ProjectionFailure("polyhedron is empty")
            self.z -= t * step
            u -= t * rate
            up += t
            if full <= partial:
                self._append(p, lo, np.sqrt(dist2), up)
                return
            viol -= t * dist2
            self._drop(j)

    def _append(self, p, lo, dist, up):
        """L gains the row (lo, dist), lo = L^-1 G_A g_p."""
        k = len(self.rows)
        factor = np.zeros((k + 1, k + 1), order="F")
        factor[:k, :k] = self.factor
        factor[k, :k] = lo
        factor[k, k] = dist
        self.factor = factor
        self.ga[k] = self.g[p]
        self.u[k] = up
        self.limits[p] = np.inf
        self.rows.append(p)

    def _drop(self, j):
        """Remove active row j, whose multiplier is 0."""
        k = len(self.rows)
        old = self.factor
        factor = np.zeros((k - 1, k - 1), order="F")
        factor[:j, :j] = old[:j, :j]
        factor[j:, :j] = old[j + 1:, :j]
        if j < k - 1:
            tail = old[j + 1:, j + 1:]
            col = old[j + 1:, j]
            factor[j:, j:], info = lapack.dpotrf(
                tail @ tail.T + np.outer(col, col), lower=1)
            if info != 0:
                raise ProjectionFailure("active-set factor update failed")
        self.factor = factor
        for buf in (self.ga, self.u):
            buf[j:k - 1] = buf[j + 1:k]
        self.limits[self.rows[j]] = self.row_limits[self.rows[j]]
        del self.rows[j]


def _dual_feasible(factor, u, is_equality):
    """The seed rows kept after dropping, one at a time, the inequality row
    with the most negative multiplier until none is negative.

    With M = G_A G_A^T (factor L), dropping row j moves the multipliers
    to u - b u_j / b_j for the column b = M^-1 e_j of the current inverse;
    after each drop the inverse loses c c^T, c = b / sqrt(b_j), so the
    columns come from L and the dropped rows' c without refactoring.
    """
    k = u.size
    # +inf marks the equalities and the rows already dropped
    u = np.where(is_equality, np.inf, u)
    dropped = np.zeros((k, k))      # the columns c, one per dropped row
    unit = np.zeros(k)
    for m in range(k):
        j = int(np.argmin(u))
        if u[j] >= 0:
            break
        unit[j] = 1.0
        col = lapack.dpotrs(factor, unit, lower=1)[0]
        unit[j] = 0.0
        col -= dropped[:m].T @ dropped[:m, j]
        u -= col * (u[j] / col[j])
        u[j] = np.inf
        dropped[m] = col / np.sqrt(col[j])
    return is_equality | np.isfinite(u)
