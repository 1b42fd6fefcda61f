"""Linear constraint rows on support values and Euclidean projection onto them.

The feasible set in convex mode is the polyhedron cut out by the discrete
convexity rows, the half-width rows, one anchor row pinning the diameter,
and a positivity floor.  Projection is done by least-distance programming:
the dual is a nonnegative least-squares problem solved by the Lawson-Hanson
active-set algorithm.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import ProjectionFailure

FEAS_TOL = 1e-10


@dataclass(frozen=True)
class LinearConstraintSet:
    """Rows a.x <= b (sense '<=') or a.x >= b (sense '>='), with tags."""

    coeffs: np.ndarray      # (n_rows, n_vars)
    bounds: np.ndarray      # (n_rows,)
    senses: np.ndarray      # (n_rows,) of '<=' / '>='
    tags: np.ndarray        # (n_rows,) of str

    def __len__(self):
        return self.coeffs.shape[0]

    def residuals(self, x):
        """Slack of every row at x; feasible iff all >= 0."""
        ax = self.coeffs @ x
        slack = np.where(self.senses == "<=", self.bounds - ax, ax - self.bounds)
        return slack

    def is_feasible(self, x, tol=1e-9):
        return bool(np.all(self.residuals(x) >= -tol))

    def as_leq(self):
        """All rows rewritten as G x <= h."""
        sgn = np.where(self.senses == "<=", 1.0, -1.0)[:, None]
        return self.coeffs * sgn, self.bounds * np.where(self.senses == "<=", 1.0, -1.0)


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

    convexity_min > 0 floors the discrete radius of curvature, keeping the
    reconstructed vertices distinct (every edge has length >= convexity_min
    * h); the parametrization stays differentiable on the floored set.
    """
    conv = convexity_rows(n, h)
    widths, anchor = diameter_rows(n, d)
    pos = np.eye(n)
    coeffs = np.vstack([conv, widths, anchor, pos])
    bounds = np.concatenate([np.full(n, convexity_min), np.full(n // 2, d),
                             [d], np.full(n, p_min)])
    senses = np.array([">="] * n + ["<="] * (n // 2) + [">="] + [">="] * n)
    tags = np.array(["convexity"] * n + ["width"] * (n // 2) + ["anchor"]
                    + ["positivity"] * n)
    return LinearConstraintSet(coeffs, bounds, senses, tags)


def project(x, cset: LinearConstraintSet, tol=FEAS_TOL, maxiter=None):
    """Euclidean projection of x onto the polyhedron of cset.

    Least-distance programming reduction (Lawson-Hanson): with the rows as
    G z <= h - G x for z = proj - x, one NNLS solve on the augmented matrix
    [G^T; (h - G x)^T] yields the projection.  The NNLS iteration is itself
    a dual active-set method.
    """
    x = np.asarray(x, dtype=float)
    g, hh = cset.as_leq()
    slack = hh - g @ x
    if np.all(slack >= -tol):
        return x.copy()
    # least-distance form A z >= b with A = -G, b = -(h - G x)
    n = x.size
    e = np.vstack([-g.T, -slack[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = nnls(e, f, maxiter=maxiter or 10 * max(e.shape))
    r = e @ u - f
    if abs(r[n]) < 1e-14:
        raise ProjectionFailure("LDP residual degenerate (empty polyhedron?)")
    z = -r[:n] / r[n]
    out = x + z
    worst = float(np.min(hh - g @ out))
    if worst < -1e3 * tol * max(1.0, float(np.abs(hh).max())):
        raise ProjectionFailure(f"projection infeasible by {-worst:.3e}")
    return out
