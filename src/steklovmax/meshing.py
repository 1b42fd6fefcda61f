"""Triangle meshing of simple closed polylines.

Pipeline: subdivide the boundary to the target edge length, seed the
interior with a staggered hex grid kept clear of the boundary, then run a
Ruppert-style refinement loop (circumcenter insertion with
diametral-circle segment splitting) until the quality targets hold.  The
loop builds one triangulation, of the boundary chain and the seeds; each
later round inserts only its new points into it (Bowyer-Watson
insertion).  The loop keeps its points in one array in insertion order,
the triangulation's own numbering, with the boundary chain as indices
into it; the finished mesh is renumbered once, boundary nodes first in
chain order.  Delaunay connectivity comes from scipy (Qhull); constraint
recovery and refinement are done here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .errors import MeshFailure
from .geometry import BoundaryPolyline, check_simple

MIN_ANGLE_DEG = 20.0
VERTEX_BUDGET = 50000
# the shortest feature, as a fraction of target_h: boundary segments no
# longer than this are not split for encroachment, and triangles whose
# shortest edge is no longer than this are exempt from the quality targets,
# so that polyline vertices closer than that still mesh
MIN_FEATURE_FRAC = 2e-3


def points_in_polygon(points, poly):
    """Crossing-number inside test.

    Edge (v, w) can cross the rightward ray from a point only if the
    point's y lies in the half-open range [min(vy, wy), max(vy, wy)).  The
    points in each edge's range are found by binary search among the
    y-sorted points, so the work is O(points x crossings), not
    O(points x edges).
    """
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    vx, vy = poly[:, 0], poly[:, 1]
    wx, wy = np.roll(vx, -1), np.roll(vy, -1)
    order = np.argsort(y)
    ys = y[order]
    start = np.searchsorted(ys, np.minimum(vy, wy))
    count = np.searchsorted(ys, np.maximum(vy, wy)) - start
    k = np.repeat(np.arange(len(poly)), count)
    i = order[_ranges(start, count)]
    xc = vx[k] + (y[i] - vy[k]) / (wy[k] - vy[k]) * (wx[k] - vx[k])
    return np.bincount(i[x[i] < xc], minlength=len(pts)) % 2 == 1


def clearance_test(poly, r):
    """Predicate: True where a point is at least r from the closed polyline.

    Every edge is sampled at spacing s <= r into a cKDTree, built once
    here and shared by every call of the returned predicate.  A point at
    distance < r from an edge lies within r + s/2 of one of that edge's
    samples, so points with no sample that close pass outright; for the
    rest the exact point-segment distance is taken to each edge owning a
    sample within that reach (1e-9 relative margin against rounding).
    """
    a = poly
    ab = np.roll(poly, -1, axis=0) - a
    ab2 = np.maximum(np.sum(ab**2, axis=1), 1e-300)
    length = np.sqrt(ab2)
    parts = np.ceil(length / r).astype(int)
    # samples a + ab * j / parts for j = 0..parts on each edge
    edge = np.repeat(np.arange(len(a)), parts + 1)
    frac = _ranges(np.zeros_like(parts), parts + 1) / parts[edge]
    samples = cKDTree(a[edge] + frac[:, None] * ab[edge])
    reach = (r + 0.5 * np.max(length / parts)) * (1.0 + 1e-9)

    def clear(points):
        pts = np.atleast_2d(points)
        pairs = cKDTree(pts).sparse_distance_matrix(
            samples, reach, output_type="ndarray")
        i, k = pairs["i"], edge[pairs["j"]]
        ap = pts[i] - a[k]
        t = np.clip((ap[:, 0] * ab[k, 0] + ap[:, 1] * ab[k, 1]) / ab2[k],
                    0.0, 1.0)
        proj = a[k] + t[:, None] * ab[k]
        ok = np.ones(len(pts), dtype=bool)
        ok[i[np.linalg.norm(pts[i] - proj, axis=1) < r]] = False
        return ok
    return clear


def _ranges(start, count):
    """Concatenation of arange(s, s + c) over (s, c) in zip(start, count)."""
    offset = np.cumsum(count) - count
    return np.arange(count.sum()) + np.repeat(start - offset, count)


def edge_keys(a, b, n):
    """Key min*n + max of each undirected vertex pair (a, b)."""
    lo = np.minimum(a, b).astype(np.int64)
    return lo * n + np.maximum(a, b)


@dataclass(frozen=True)
class TriangleMesh:
    """Triangulation of a polygon with a tagged boundary loop.

    boundary_loop is the ordered list of mesh vertex indices around the
    boundary.  boundary_vertex_map[i] is the mesh vertex holding polyline
    vertex i; it is strictly increasing.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray
    boundary_vertex_map: np.ndarray

    def triangle_areas(self):
        v = self.vertices
        t = self.triangles
        a = v[t[:, 1]] - v[t[:, 0]]
        b = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def min_angle_deg(self):
        angles, _, _ = _triangle_quality(self.vertices, self.triangles)
        return float(np.degrees(angles.min()))


def _triangle_quality(verts, tris):
    """Smallest angle (radians), longest and shortest edge of each
    triangle, from one set of edge lengths."""
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    la = np.linalg.norm(b - c, axis=1)
    lb = np.linalg.norm(c - a, axis=1)
    lc = np.linalg.norm(a - b, axis=1)
    angs = np.empty((len(tris), 3))
    for i, (opp, s1, s2) in enumerate(((la, lb, lc), (lb, lc, la), (lc, la, lb))):
        cosv = np.clip((s1**2 + s2**2 - opp**2) / (2 * s1 * s2), -1.0, 1.0)
        angs[:, i] = np.arccos(cosv)
    return (angs.min(axis=1), np.maximum(lc, np.maximum(la, lb)),
            np.minimum(lc, np.minimum(la, lb)))


def _circumcenters(verts, tris):
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    ab = b - a
    ac = c - a
    d = 2.0 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    ab2 = np.sum(ab**2, axis=1)
    ac2 = np.sum(ac**2, axis=1)
    ux = (ac[:, 1] * ab2 - ab[:, 1] * ac2) / d
    uy = (ab[:, 0] * ac2 - ac[:, 0] * ab2) / d
    return a + np.column_stack((ux, uy))


def _subdivide_chain(verts, target_h):
    """Boundary nodes: polyline vertices plus extra nodes on long edges.

    Returns (points, original) where original[j] is True where the j-th
    boundary node is a polyline vertex.
    """
    ab = np.roll(verts, -1, axis=0) - verts
    k = np.ceil(np.linalg.norm(ab, axis=1) / target_h).astype(int)
    # nodes a + (b - a) * (j / k) for j = 0..k-1 on each edge (a, b);
    # j = 0 is the vertex a itself
    k = np.maximum(k, 1)
    edge = np.repeat(np.arange(len(verts)), k)
    j = _ranges(np.zeros_like(k), k)
    pts = verts[edge] + ab[edge] * (j / k[edge])[:, None]
    first = j == 0
    pts[first] = verts
    return pts, first


def _hex_seeds(poly, spacing, clear):
    """Staggered hex grid at the given spacing, kept where inside poly
    and where the clearance predicate clear holds."""
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    dy = spacing * np.sqrt(3.0) / 2.0
    ys = np.arange(lo[1] + dy / 2, hi[1], dy)
    pts = []
    for r, y in enumerate(ys):
        off = (spacing / 2) if (r % 2) else 0.0
        xs = np.arange(lo[0] + spacing / 2 + off, hi[0], spacing)
        pts.append(np.column_stack((xs, np.full(len(xs), y))))
    if not pts:
        return np.empty((0, 2))
    pts = np.vstack(pts)
    pts = pts[points_in_polygon(pts, poly)]
    return pts[clear(pts)]


class _IncrementalDelaunay:
    """Delaunay triangulation that new points are inserted into
    (Bowyer-Watson, through Qhull); points are numbered in insertion order.

    It is the lower convex hull of the points lifted to the paraboloid
    z = x^2 + y^2 together with a point above it, the one Qhull's own
    Delaunay mode adds with its option Qz.  scipy's incremental Delaunay
    refuses Qz, and without that point all-cocircular input (a coarse
    regular polygon) leaves a flat upper facet that later insertions fail
    on with a Qhull precision error.  Inserted points must lie in the
    convex hull of the first ones, so that their lift stays below it.
    """

    def __init__(self, pts):
        lifted = _lift(pts)
        top = np.append(pts.mean(axis=0), 1.1 * lifted[:, 2].max())
        # the rest of scipy's Delaunay defaults; it refuses Qbb too
        self.hull = ConvexHull(np.vstack([top, lifted]), incremental=True,
                               qhull_options="Qc Q12")

    def add_points(self, pts):
        self.hull.add_points(_lift(pts))

    def simplices(self):
        """Triangles of the lower hull, the top point (index 0) left out."""
        simp = self.hull.simplices[self.hull.equations[:, 2] < 0]
        return simp[np.all(simp > 0, axis=1)] - 1

    def close(self):
        self.hull.close()


def _lift(pts):
    """Points (x, y) lifted to (x, y, x^2 + y^2)."""
    return np.column_stack((pts, np.sum(pts * pts, axis=1)))


def _boundary_is_chain(tris, nb, n):
    """True iff the edges used by exactly one triangle are exactly the
    edges (i, i+1 mod nb) of the boundary chain; n bounds the indices."""
    edges, uses = np.unique(edge_keys(tris, np.roll(tris, -1, axis=1), n),
                            return_counts=True)
    i = np.arange(nb)
    return np.array_equal(edges[uses == 1],
                          np.sort(edge_keys(i, np.roll(i, -1), n)))


def triangulate(b: BoundaryPolyline, target_h: float) -> TriangleMesh:
    """Quality triangulation of the polygon interior.

    Every boundary polyline vertex is a mesh vertex, each its own; extra
    boundary nodes are inserted on long edges and wherever refinement
    splits an encroached segment.  Every triangle meets MIN_ANGLE_DEG and
    target_h, or has its shortest edge at most MIN_FEATURE_FRAC * target_h;
    otherwise MeshFailure is raised.  A polygon that is not simple raises
    SelfIntersection.
    """
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    check_simple(b)
    poly = b.vertices

    bnd, original = _subdivide_chain(poly, target_h)
    spacing = 0.68 * target_h
    interior = _hex_seeds(poly, spacing, clearance_test(poly, 0.6 * spacing))

    # protect very short boundary segments from further splitting
    min_split = MIN_FEATURE_FRAC * target_h
    min_angle = np.radians(MIN_ANGLE_DEG)

    def delaunay_inside(pts, simp):
        """The Delaunay triangles simp of pts inside the polygon, less
        slivers, in ccw orientation."""
        e1 = pts[simp[:, 1]] - pts[simp[:, 0]]
        e2 = pts[simp[:, 2]] - pts[simp[:, 0]]
        cr = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        sq = np.maximum(np.sum(e1**2, axis=1), np.sum(e2**2, axis=1))
        # drop degenerate slivers (collinear triples on flat boundary runs)
        ok = np.abs(cr) > 1e-12 * sq
        ok[ok] = points_in_polygon(pts[simp[ok]].mean(axis=1), poly)
        # enforce ccw orientation
        keep, flip = simp[ok], cr[ok] < 0
        keep[flip] = keep[flip][:, [0, 2, 1]]
        return keep

    # refinement on one point array, pts, in insertion order, which is the
    # incremental triangulation's own numbering: the first round
    # triangulates the chain and the seeds, and each round appends its new
    # points to pts and inserts them.  chain holds the pts index of each
    # boundary node in chain order; original stays per chain position.
    pts = np.vstack([bnd, interior])
    chain = np.arange(len(bnd))
    tri = _IncrementalDelaunay(pts)
    try:
        for _ in range(60):
            if len(pts) > VERTEX_BUDGET:
                raise MeshFailure("vertex budget exceeded")
            keep = delaunay_inside(pts, tri.simplices())
            bnd, nxt = pts[chain], pts[np.roll(chain, -1)]
            mids = 0.5 * (bnd + nxt)

            # boundary recovery: every chain segment must appear as a kept
            # edge; the missing ones are split before any quality round.
            # The kept edges are looked up in their sorted keys, closed by
            # a sentinel above every key
            edges = np.append(np.sort(edge_keys(
                keep, np.roll(keep, -1, axis=1), len(pts)), axis=None),
                np.iinfo(np.int64).max)
            want = edge_keys(chain, np.roll(chain, -1), len(pts))
            split = edges[np.searchsorted(edges, want)] != want
            accepted = []
            if not split.any():
                # quality pass
                angles, emax, emin = _triangle_quality(pts, keep)
                bad = (angles < min_angle) | (emax > target_h)
                # exempt triangles whose shortest edge is a shortest feature
                bad &= emin > min_split
                if not bad.any():
                    break

                idx = np.argsort(angles)
                idx = idx[bad[idx]][:64]
                centers = _circumcenters(pts, keep[idx])
                radii = np.linalg.norm(centers - pts[keep[idx, 0]], axis=1)

                # circumcenter insertion with diametral-circle
                # encroachment: a center inside a chain segment's diametral
                # circle splits that segment instead (standard Ruppert
                # rule).  No point lies closer to a Delaunay triangle's
                # circumcenter than its circumradius (the empty-circle
                # property), so the only spacing filter needed is among
                # this batch of candidates, relative to each candidate's
                # own circumradius (grading-aware)
                rads = 0.5 * np.linalg.norm(nxt - bnd, axis=1)
                seg_ok = 2.0 * rads > min_split
                enc = ((np.linalg.norm(mids - centers[:, None], axis=2)
                        < rads) & seg_ok)
                free = points_in_polygon(centers, poly) & ~enc.any(axis=1)
                for c, r, hit, ok in zip(centers, radii, enc, free):
                    if hit.any():
                        split[np.nonzero(hit)[0][:2]] = True
                    elif ok and not (accepted and np.min(np.linalg.norm(
                            np.asarray(accepted) - c, axis=1)) <= 0.5 * r):
                        accepted.append(c)
                if not (split.any() or accepted):
                    raise MeshFailure("refinement stalled: no point to "
                                      "insert, quality targets unmet")

            # insertion: the midpoints of the split segments in chain
            # order, then the accepted centers; a midpoint joins the chain
            # after its segment's first node
            s = np.nonzero(split)[0]
            chain = np.insert(chain, s + 1, len(pts) + np.arange(len(s)))
            original = np.insert(original, s + 1, False)
            new = np.vstack([mids[s], *accepted])
            pts = np.vstack([pts, new])
            tri.add_points(new)
        else:
            raise MeshFailure("refinement did not converge")
    finally:
        tri.close()

    # renumber once to the chain-first layout: boundary nodes 0..nb-1 in
    # chain order, then the interior points in insertion order
    nb = len(chain)
    inner = np.ones(len(pts), dtype=bool)
    inner[chain] = False
    order = np.concatenate([chain, np.nonzero(inner)[0]])
    index = np.empty(len(pts), dtype=int)
    index[order] = np.arange(len(pts))
    tris = index[keep]
    if not _boundary_is_chain(tris, nb, len(pts)):
        raise MeshFailure("boundary of triangulation is not the chain")

    return TriangleMesh(vertices=pts[order], triangles=tris,
                        boundary_loop=np.arange(nb),
                        boundary_vertex_map=np.nonzero(original)[0])
