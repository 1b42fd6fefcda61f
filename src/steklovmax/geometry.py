"""Discrete support functions, boundary reconstruction, diameter geometry
and the simple-polygon check.

A convex planar body is described by the values ``p[i]`` of its support
function on a uniform angle grid.  All index arithmetic is cyclic mod N.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundary, EmptyDiameterSet, SelfIntersection

PAIR_TOL = 1e-8


@dataclass(frozen=True)
class AngleGrid:
    """Uniform grid of N angles theta_i = 2*pi*i/N, N even."""

    n_angles: int

    def __post_init__(self):
        n = self.n_angles
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_angles must be an integer, got {n!r}")
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
    """Closed vertex loop of either orientation (the closing edge is
    implicit); the loops this package builds are counterclockwise."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices contain non-finite values")
        object.__setattr__(self, "vertices", v)
        d = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        scale = float(np.max(np.abs(v))) or 1.0
        if np.any(d <= 1e-12 * scale):
            raise DegenerateBoundary("consecutive vertices coincide")

    def __len__(self):
        return self.vertices.shape[0]

    def area(self):
        """Signed shoelace area (positive for counterclockwise loops)."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def to_csv(self, path):
        np.savetxt(path, self.vertices, delimiter=",", fmt="%.17g")

    @classmethod
    def from_csv(cls, path):
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))

    def to_svg(self, path):
        width = 400
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
    pairs: list

    def __post_init__(self):
        if not self.pairs:
            raise EmptyDiameterSet("no diameter-achieving pairs")


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


def compute_diameter(b: BoundaryPolyline) -> DiameterReport:
    """Diameter over the vertex set plus all pairs within PAIR_TOL of it.

    One squared-distance matrix gives both the maximum and the list of
    every near-diameter pair.
    """
    v = b.vertices
    x, y = v[:, 0], v[:, 1]
    d2 = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2
    diam = float(np.sqrt(d2.max()))
    cut = (diam * (1.0 - PAIR_TOL)) ** 2
    ii, jj = np.nonzero(np.triu(d2 >= cut, k=1))
    pairs = [(int(i), int(j)) for i, j in zip(ii, jj)]
    return DiameterReport(diameter=diam, pairs=pairs)


def _orient(a, b, c):
    """Sign of the cross product (b-a) x (c-a), exact in rationals: the
    fallback for the orientations _orient_rows leaves undecided."""
    from fractions import Fraction as F
    det = (F(a[0]) - F(c[0])) * (F(b[1]) - F(c[1])) \
        - (F(a[1]) - F(c[1])) * (F(b[0]) - F(c[0]))
    return 0.0 if det == 0 else (1.0 if det > 0 else -1.0)


def _segments_cross(a, b, c, d):
    """True iff closed segments ab and cd intersect, by exact orientations:
    each one's ends lie on both sides of the other's line, or a, b or c
    lies on the other segment (d on ab implies one of these)."""
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if d1 != d2 and d3 != d4:
        return True

    def on(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))
    if d1 == 0 and on(c, d, a):
        return True
    if d2 == 0 and on(c, d, b):
        return True
    return d3 == 0 and on(a, b, c)


def _orient_rows(a, b, c):
    """Orientations over rows of a, b, c: +-1 where the float determinant
    decides the sign, nan where only the exact _orient can."""
    acx = a[:, 0] - c[:, 0]
    bcx = b[:, 0] - c[:, 0]
    acy = a[:, 1] - c[:, 1]
    bcy = b[:, 1] - c[:, 1]
    det = acx * bcy - acy * bcx
    err = 3.3e-16 * (np.abs(acx * bcy) + np.abs(acy * bcx))
    return np.where(np.abs(det) > err, np.sign(det), np.nan)


def check_simple(b: BoundaryPolyline):
    """Raise SelfIntersection if any two non-adjacent edges intersect.

    The pair named is the first crossing pair (i, j), i < j, in
    lexicographic order.  A sweep over the edges sorted by their lowest x
    pairs each edge with the later ones whose lowest x is at most its
    highest x: exactly the pairs whose x-ranges overlap.  Pairs whose
    bounding boxes overlap are tested by float orientations; a pair with
    any orientation near zero goes through the exact _segments_cross.
    """
    v = b.vertices
    n = len(v)
    ends = np.roll(v, -1, axis=0)
    lo = np.minimum(v, ends)
    hi = np.maximum(v, ends)
    order = np.argsort(lo[:, 0])
    stop = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = stop - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), count)
    second = first + 1 + np.arange(len(first)) - np.repeat(
        np.cumsum(count) - count, count)
    i = np.minimum(order[first], order[second])
    j = np.maximum(order[first], order[second])
    near = (j - i >= 2) & ~((i == 0) & (j == n - 1))
    near &= np.all((lo[j] <= hi[i]) & (hi[j] >= lo[i]), axis=1)
    pair = np.sort(i[near] * n + j[near])
    i, j = pair // n, pair % n
    d1 = _orient_rows(v[j], ends[j], v[i])
    d2 = _orient_rows(v[j], ends[j], ends[i])
    d3 = _orient_rows(v[i], ends[i], v[j])
    d4 = _orient_rows(v[i], ends[i], ends[j])
    cross = (d1 != d2) & (d3 != d4)
    for p in np.nonzero(np.isnan(d1 + d2 + d3 + d4))[0]:
        cross[p] = _segments_cross(v[i[p]], ends[i[p]], v[j[p]], ends[j[p]])
    if cross.any():
        p = int(np.argmax(cross))
        raise SelfIntersection(int(i[p]), int(j[p]))
