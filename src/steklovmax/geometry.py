"""Discrete support functions, boundary reconstruction and diameter geometry.

A convex planar body is described by the values ``p[i]`` of its support
function on a uniform angle grid.  All index arithmetic is cyclic mod N.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBoundary, EmptyDiameterSet

PAIR_TOL = 1e-8


@dataclass(frozen=True)
class AngleGrid:
    """Uniform grid of N angles theta_i = 2*pi*i/N, N even."""

    n_angles: int

    def __post_init__(self):
        n = self.n_angles
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n_angles must be even and >= 8, got {n}")

    @property
    def h(self):
        return 2.0 * np.pi / self.n_angles

    @property
    def theta(self):
        return np.arange(self.n_angles) * self.h


@dataclass(frozen=True)
class SupportVector:
    """Support-function samples p_i = p(theta_i) on an AngleGrid.

    Positivity of the samples is required by the operations that interpret
    the vector geometrically (boundary reconstruction); the linear residual
    maps accept arbitrary finite values.
    """

    grid: AngleGrid
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.grid.n_angles,):
            raise ValueError(
                f"p has shape {p.shape}, expected ({self.grid.n_angles},)")
        if not np.all(np.isfinite(p)):
            raise ValueError("p contains non-finite values")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class BoundaryPolyline:
    """Closed counterclockwise vertex loop (the closing edge is implicit)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        object.__setattr__(self, "vertices", v)
        d = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        scale = float(np.max(np.abs(v))) or 1.0
        if np.any(d <= 1e-12 * scale):
            raise DegenerateBoundary("consecutive vertices coincide")

    def __len__(self):
        return self.vertices.shape[0]

    def edge_lengths(self):
        v = self.vertices
        return np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)

    def arclengths(self):
        """Cumulative arclength of each vertex, starting at 0."""
        el = self.edge_lengths()
        return np.concatenate(([0.0], np.cumsum(el[:-1])))

    def perimeter(self):
        return float(self.edge_lengths().sum())

    def area(self):
        """Signed shoelace area (positive for counterclockwise loops)."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def to_csv(self, path):
        np.savetxt(path, self.vertices, delimiter=",", fmt="%.17g")

    @classmethod
    def from_csv(cls, path):
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))

    def to_svg(self, path, width=400):
        v = self.vertices
        lo = v.min(axis=0)
        span = float(max(v.max(axis=0) - lo)) or 1.0
        s = (width * 0.9) / span
        pts = (v - lo) * s + 0.05 * width
        pts[:, 1] = width - pts[:, 1]
        d = "M " + " L ".join(f"{x:.3f},{y:.3f}" for x, y in pts) + " Z"
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{width}" viewBox="0 0 {width} {width}">\n'
            f'<path d="{d}" fill="none" stroke="black" stroke-width="1"/>\n'
            "</svg>\n"
        )
        with open(path, "w") as f:
            f.write(svg)


@dataclass(frozen=True)
class DiameterReport:
    """Diameter of a polyline plus every vertex pair achieving it."""

    diameter: float
    pairs: list = field(default_factory=list)

    def __post_init__(self):
        if not self.pairs:
            raise EmptyDiameterSet("no diameter-achieving pairs")


@dataclass(frozen=True)
class BoundaryField:
    """Per-vertex boundary velocity: one 2D vector per polyline vertex."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("values must have shape (n, 2)")
        object.__setattr__(self, "values", v)


def reconstruct_boundary(sv: SupportVector) -> BoundaryPolyline:
    """Boundary points of the body with support samples p.

    Uses the envelope parametrization (x, y) = (p c - p' s, p s + p' c)
    with p' from centered finite differences on the cyclic grid.
    """
    p = sv.p
    if np.any(p <= 0):
        raise ValueError("support values must be strictly positive")
    h = sv.grid.h
    dp = (np.roll(p, -1) - np.roll(p, 1)) / (2.0 * h)
    c, s = np.cos(sv.grid.theta), np.sin(sv.grid.theta)
    verts = np.column_stack((p * c - dp * s, p * s + dp * c))
    return BoundaryPolyline(verts)


def compute_diameter(b: BoundaryPolyline, pair_tol: float = PAIR_TOL) -> DiameterReport:
    """Diameter over the vertex set plus all pairs within pair_tol of it.

    One squared-distance matrix gives both the maximum and the list of
    every near-diameter pair.
    """
    v = b.vertices
    if len(v) < 2:
        raise DegenerateBoundary("need at least 2 distinct vertices")
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
    diam = float(np.sqrt(d2.max()))
    cut = (diam * (1.0 - pair_tol)) ** 2
    ii, jj = np.nonzero(np.triu(d2 >= cut, k=1))
    pairs = [(int(i), int(j)) for i, j in zip(ii, jj)]
    return DiameterReport(diameter=diam, pairs=pairs)


def diameter_directional_derivative(b: BoundaryPolyline, rep: DiameterReport,
                                    field: BoundaryField) -> float:
    """One-sided derivative of the diameter along a per-vertex vector field.

    Equals (1/D) max over diameter pairs of <Q_i - Q_j, V(Q_i) - V(Q_j)>.
    """
    if not rep.pairs:
        raise EmptyDiameterSet("diameter report has no pairs")
    v = b.vertices
    w = field.values
    best = -np.inf
    for i, j in rep.pairs:
        best = max(best, float(np.dot(v[i] - v[j], w[i] - w[j])))
    return best / rep.diameter
