"""Linear constraint rows on support values and Euclidean projection onto them.

The feasible set in convex mode is the polyhedron cut out by the discrete
convexity rows, the half-width rows, one anchor row pinning the diameter,
and a positivity floor.  Projection is the dual active-set method of
Goldfarb and Idnani (Math. Program. 27, 1983) with identity Hessian, run
on the active rows' multipliers alone and optionally warm-started from the
active rows of a nearby feasible point.
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
    """Rows G x <= h scaled to unit norm, their Gram matrix M = G G^T, and
    the equalities among them.

    A row whose exact negation is also a row (the anchor row is width row
    0 negated) makes the pair an equality: the lower-indexed row leads
    every active set with a multiplier of either sign, and its partner is
    never added, since an active set holding both would be singular.
    """

    coeffs: np.ndarray
    bounds: np.ndarray
    gram: np.ndarray
    limits: np.ndarray      # bounds, +inf on the rows never added
    equalities: np.ndarray  # indices of the rows kept active
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
        paired = np.zeros(len(h), dtype=bool)
        limits = h.copy()
        for j in range(len(h)):
            i = first.get(key(-coeffs[j], -bounds[j]))
            if i is not None:
                paired[i] = True
                limits[[i, j]] = np.inf
            first.setdefault(key(coeffs[j], bounds[j]), j)
        return cls(g, h, g @ g.T, limits, np.flatnonzero(paired),
                   max(1.0, float(np.abs(h).max(initial=0.0))))


def convexity_rows(n, h):
    """N rows p_i + (p_{i+1} + p_{i-1} - 2 p_i)/h^2 >= 0 (cyclic indices)."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 1.0 - 2.0 / h**2
    a[idx, (idx + 1) % n] = 1.0 / h**2
    a[idx, (idx - 1) % n] = 1.0 / h**2
    return a


def diameter_rows(n):
    """N/2 width rows p_i + p_{i+N/2} and the anchor row, a copy of row 0."""
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
    widths, anchor = diameter_rows(n)
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
    if np.all(cset.residuals(x) >= -FEAS_TOL):
        return x.copy()
    rows = cset.unit_rows
    out = solve_on(x, rows, active_rows(x, rows, start))
    worst = float(np.min(cset.residuals(out)))
    if worst < -1e3 * FEAS_TOL * max(1.0, float(np.abs(cset.bounds).max())):
        raise ProjectionFailure(f"projection infeasible by {-worst:.3e}")
    return out


def solve_on(x, rows, active):
    """The point nearest x with the given rows active: z = x - G_A^T u."""
    _, u = _multipliers(rows.coeffs @ x - rows.bounds, rows, active)
    return x - rows.coeffs[active].T @ u


def _factor(rows, active):
    """Lower Cholesky factor of M_AA, M = rows.gram; raises
    ProjectionFailure when the active rows are linearly dependent."""
    # the Gram block is symmetric: its transpose is the Fortran-ordered copy
    factor, info = lapack.dpotrf(rows.gram[active][:, active].T, lower=1)
    if info != 0:
        raise ProjectionFailure("active rows linearly dependent")
    return factor


def _multipliers(excess, rows, active):
    """Lower Cholesky factor of G_A G_A^T and the multipliers u solving
    G_A G_A^T u = G_A x - h_A, given excess = G x - h."""
    if not len(active):
        return np.zeros((0, 0), order="F"), np.zeros(0)
    factor = _factor(rows, active)
    u, _ = lapack.dpotrs(factor, excess[active], lower=1)
    return factor, u


def active_rows(x, rows, start=None):
    """Sorted active rows of the projection of x, found by the dual method
    from the active rows of start (or the equalities alone).

    The method tracks only the active rows A, led by the equalities, their
    multipliers u (>= 0 on the inequalities) and the lower Cholesky factor
    L of M_AA.  The rows have unit norm, so z = x - G_A^T u is never
    formed: the excess of every row at z is e - M_A^T u, e = G x - h.  The
    seed rows are made dual feasible by dropping every inequality with a
    negative multiplier and re-solving, until none is negative.  Adding
    row p, with lo = L^-1 M_Ap, lowers u_A at the rate L^-T lo and the
    excess of p at dist^2 = M_pp - lo.lo (1 - lo.lo) per unit of u_p; an
    inequality whose multiplier reaches 0 first is dropped and M_AA
    refactored, and once p's excess is 0, L gains the row (lo, dist).
    """
    gx = rows.coeffs @ x
    excess = gx - rows.bounds
    eq = rows.equalities
    first = eq.size             # the equalities lead A
    active = eq
    if start is not None:
        slack = rows.limits - rows.coeffs @ np.asarray(start, dtype=float)
        near = np.abs(slack) <= ACTIVE_TOL * rows.scale
        active = np.concatenate([eq, np.flatnonzero(near)])
    try:
        factor, u = _multipliers(excess, rows, active)
        dependent = np.diag(factor).min(initial=1.0) < DEPENDENT_TOL
    except ProjectionFailure:
        dependent = True
    if dependent:
        # a dependent seed: start from the equalities alone
        active = eq
        factor, u = _multipliers(excess, rows, active)
    while (u[first:] < 0).any():
        active = np.concatenate([eq, active[first:][u[first:] >= 0]])
        factor, u = _multipliers(excess, rows, active)
    addable = gx - rows.limits      # -inf on the rows never added
    tol = VIOLATION_TOL * rows.scale
    for _ in range(10 * len(rows.limits)):
        viol = addable - u @ rows.gram[active]
        viol[active] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] <= tol:
            return np.sort(active)
        viol_p, up = float(viol[p]), 0.0
        while True:
            k = active.size
            if k:
                lo, _ = lapack.dtrtrs(factor, rows.gram[p, active], lower=1)
                rate, _ = lapack.dtrtrs(factor, lo, lower=1, trans=1)
            else:
                lo = rate = np.zeros(0)
            # u_A falls by t rate and p's excess by t dist2 as u_p rises by t
            dist2 = float(rows.gram[p, p] - lo @ lo)
            full = viol_p / dist2 if dist2 > DEPENDENT_TOL ** 2 else np.inf
            cut = first + np.flatnonzero(rate[first:] > RATE_TOL)
            ratios = u[cut] / rate[cut]
            partial = max(float(ratios.min()), 0.0) if cut.size else np.inf
            t = min(full, partial)
            if t == np.inf:
                raise ProjectionFailure("polyhedron is empty")
            u = u - t * rate
            up += t
            if full <= partial:
                grown = np.zeros((k + 1, k + 1), order="F")
                grown[:k, :k] = factor
                grown[k, :k] = lo
                grown[k, k] = np.sqrt(dist2)
                factor = grown
                active = np.concatenate([active, [p]])
                u = np.concatenate([u, [up]])
                break
            viol_p -= t * dist2
            keep = np.arange(k) != cut[np.argmin(ratios)]
            active, u = active[keep], u[keep]
            factor = _factor(rows, active)
    raise ProjectionFailure("active-set iteration limit reached")
