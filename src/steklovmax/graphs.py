"""Two-graph parametrization of (possibly non-convex) domains.

The domain is the region between a lower graph with values p and an upper
graph with values q over N equidistant interior abscissae on [-d/2, d/2];
both graphs vanish at the endpoints.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPolyline


@dataclass(frozen=True)
class GraphPair:
    """Lower-graph values p and upper-graph values q (p_i <= q_i)."""

    p: np.ndarray
    q: np.ndarray
    d: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 1 or len(p) < 3:
            raise ValueError("p and q must be equal-length 1D arrays, len >= 3")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("p and q contain non-finite values")
        if np.any(p > q):
            raise ValueError("lower graph must not exceed upper graph")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n(self):
        return len(self.p)

    @property
    def abscissae(self):
        """Interior abscissae x_1..x_N (endpoints +-d/2 carry value 0)."""
        return np.linspace(-self.d / 2, self.d / 2, self.n + 2)[1:-1]

    def polyline(self) -> BoundaryPolyline:
        """Counterclockwise loop: lower graph left to right, then upper
        graph right to left, with the two zero endpoints shared."""
        x = self.abscissae
        lower = np.column_stack([x, self.p])
        upper = np.column_stack([x[::-1], self.q[::-1]])
        pts = np.vstack([[[-self.d / 2, 0.0]], lower, [[self.d / 2, 0.0]], upper])
        return BoundaryPolyline(pts)

    def lower_vertex_indices(self):
        """Polyline vertex index of each lower-graph variable p_i."""
        return np.arange(1, self.n + 1)

    def upper_vertex_indices(self):
        """Polyline vertex index of each upper-graph variable q_i."""
        return np.arange(2 * self.n + 1, self.n + 1, -1)
