"""Triangle meshing of simple closed polylines.

Pipeline: subdivide the boundary to the target edge length, seed the
interior with a staggered hex grid, smooth, then run a Ruppert-style
refinement loop (circumcenter insertion with diametral-circle segment
splitting) until the quality targets hold.  Delaunay connectivity comes
from scipy (Qhull); constraint recovery and refinement are done here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import DegenerateBoundary, MeshFailure, SelfIntersection
from .geometry import BoundaryPolyline

MIN_ANGLE_DEG = 20.0
VERTEX_BUDGET = 50000
# consecutive polyline vertices closer than this fraction of target_h are
# collapsed to one mesh vertex (support-function boundaries crowd vertices
# where the convexity constraint saturates)
MERGE_FRAC = 1e-3


def _orient(a, b, c):
    """Sign of the cross product (b-a) x (c-a); exact fallback near zero."""
    acx = a[0] - c[0]
    bcx = b[0] - c[0]
    acy = a[1] - c[1]
    bcy = b[1] - c[1]
    det = acx * bcy - acy * bcx
    err = 3.3e-16 * (abs(acx * bcy) + abs(acy * bcx))
    if abs(det) > err:
        return 1.0 if det > 0 else -1.0
    from fractions import Fraction as F
    det = (F(a[0]) - F(c[0])) * (F(b[1]) - F(c[1])) \
        - (F(a[1]) - F(c[1])) * (F(b[0]) - F(c[0]))
    return 0.0 if det == 0 else (1.0 if det > 0 else -1.0)


def _segments_cross(a, b, c, d):
    """True iff closed segments ab and cd intersect."""
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
    if d3 == 0 and on(a, b, c):
        return True
    if d4 == 0 and on(a, b, d):
        return True
    return False


def check_simple(b: BoundaryPolyline):
    """Raise SelfIntersection if any two non-adjacent edges intersect."""
    v = b.vertices
    n = len(v)
    starts = v
    ends = np.roll(v, -1, axis=0)
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    for i in range(n):
        # bounding-box prefilter against all later, non-adjacent edges
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if js.size == 0:
            continue
        mask = np.all((lo[js] <= hi[i]) & (hi[js] >= lo[i]), axis=1)
        for j in js[mask]:
            if _segments_cross(starts[i], ends[i], starts[j], ends[j]):
                raise SelfIntersection(i, int(j))


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


def clear_of_polyline(points, poly, r):
    """True where a point is at least r from the closed polyline.

    Every edge is sampled at spacing s <= r into a cKDTree.  A point at
    distance < r from an edge lies within r + s/2 of one of that edge's
    samples, so points with no sample that close pass outright; for the
    rest the exact point-segment distance is taken to each edge owning a
    sample within that reach (1e-9 relative margin against rounding).
    """
    pts = np.atleast_2d(points)
    a = poly
    ab = np.roll(poly, -1, axis=0) - a
    ab2 = np.maximum(np.sum(ab**2, axis=1), 1e-300)
    length = np.sqrt(ab2)
    parts = np.ceil(length / r).astype(int)
    # samples a + ab * j / parts for j = 0..parts on each edge
    edge = np.repeat(np.arange(len(a)), parts + 1)
    frac = _ranges(np.zeros_like(parts), parts + 1) / parts[edge]
    samples = a[edge] + frac[:, None] * ab[edge]
    reach = (r + 0.5 * np.max(length / parts)) * (1.0 + 1e-9)
    pairs = cKDTree(pts).sparse_distance_matrix(
        cKDTree(samples), reach, output_type="ndarray")
    i, k = pairs["i"], edge[pairs["j"]]
    ap = pts[i] - a[k]
    t = np.clip((ap[:, 0] * ab[k, 0] + ap[:, 1] * ab[k, 1]) / ab2[k], 0.0, 1.0)
    proj = a[k] + t[:, None] * ab[k]
    ok = np.ones(len(pts), dtype=bool)
    ok[i[np.linalg.norm(pts[i] - proj, axis=1) < r]] = False
    return ok


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
    boundary; boundary_edges pairs consecutive loop entries.
    boundary_vertex_map[i] is the mesh vertex holding polyline vertex i
    (many-to-one where near-duplicate polyline vertices were collapsed).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray
    boundary_vertex_map: np.ndarray
    target_h: float

    @property
    def boundary_edges(self):
        loop = self.boundary_loop
        return np.column_stack((loop, np.roll(loop, -1)))

    def triangle_areas(self):
        v = self.vertices
        t = self.triangles
        a = v[t[:, 1]] - v[t[:, 0]]
        b = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def min_angle_deg(self):
        return float(np.degrees(_tri_min_angles(self.vertices, self.triangles).min()))

    def max_edge_length(self):
        v = self.vertices
        t = self.triangles
        l01 = np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1)
        l12 = np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1)
        l20 = np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1)
        return float(np.max(np.maximum(l01, np.maximum(l12, l20))))

    def boundary_arclengths(self):
        """Cumulative arclength at each boundary_loop node (starting at 0)."""
        pts = self.vertices[self.boundary_loop]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        return np.concatenate(([0.0], np.cumsum(seg[:-1])))

    def scaled(self, t):
        """Same mesh with all vertex coordinates scaled by t."""
        return TriangleMesh(self.vertices * t, self.triangles,
                            self.boundary_loop, self.boundary_vertex_map,
                            self.target_h * t)


def _tri_min_angles(verts, tris):
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
    return angs.min(axis=1)


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


def _merge_close_vertices(verts, tol):
    """Collapse runs of consecutive near-duplicate vertices; returns
    (unique_vertices, map from original index to unique index)."""
    n = len(verts)
    keep = [0]
    vmap = np.zeros(n, dtype=int)
    for i in range(1, n):
        if np.linalg.norm(verts[i] - verts[keep[-1]]) <= tol:
            vmap[i] = len(keep) - 1
        else:
            keep.append(i)
            vmap[i] = len(keep) - 1
    # wrap-around: last run may merge into vertex 0
    while len(keep) > 3 and np.linalg.norm(verts[keep[-1]] - verts[0]) <= tol:
        last = keep.pop()
        vmap[vmap == len(keep)] = 0
    if len(keep) < 3:
        raise DegenerateBoundary("boundary collapses under merge tolerance")
    return verts[keep], vmap


def _subdivide_chain(verts, target_h):
    """Boundary nodes: polyline vertices plus extra nodes on long edges.

    Returns (points, owner) where owner[j] is the polyline edge index the
    j-th boundary node lies on (-1 for original vertices).
    """
    n = len(verts)
    pts = []
    owner = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        pts.append(a)
        owner.append(-1)
        length = np.linalg.norm(b - a)
        k = int(np.ceil(length / target_h))
        for j in range(1, k):
            pts.append(a + (b - a) * (j / k))
            owner.append(i)
    return np.asarray(pts), np.asarray(owner)


def _hex_seeds(poly, spacing, clearance):
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
    return pts[clear_of_polyline(pts, poly, clearance)]


def _split_segments(bnd, owner, split):
    """Boundary chain with a midpoint node inserted on every segment
    (i, i+1) with split[i]; returns (nodes, owner) as _subdivide_chain."""
    # polyline edge containing each chain segment (i, i+1): the edge of
    # node i when i is a subdivision node, else the edge leaving the
    # original vertex at position i
    edge_of = np.where(owner >= 0, owner, np.cumsum(owner == -1) - 1)
    s = np.nonzero(split)[0]
    mids = 0.5 * (bnd[s] + bnd[(s + 1) % len(bnd)])
    return (np.insert(bnd, s + 1, mids, axis=0),
            np.insert(owner, s + 1, edge_of[s]))


def _chain_keys(nb, n):
    """edge_keys of the closed chain of nodes 0, 1, ..., nb-1."""
    i = np.arange(nb)
    return edge_keys(i, np.roll(i, -1), n)


def _boundary_is_chain(tris, nb, n):
    """True iff the edges used by exactly one triangle are exactly the
    edges (i, i+1 mod nb) of the boundary chain; n bounds the indices."""
    edges, uses = np.unique(edge_keys(tris, np.roll(tris, -1, axis=1), n),
                            return_counts=True)
    return np.array_equal(edges[uses == 1], np.sort(_chain_keys(nb, n)))


def triangulate(b: BoundaryPolyline, target_h: float,
                vertex_budget: int = VERTEX_BUDGET,
                min_angle_deg: float = MIN_ANGLE_DEG) -> TriangleMesh:
    """Quality triangulation of the polygon interior.

    Boundary polyline vertices are preserved as mesh vertices (modulo
    collapsing of near-duplicate runs); extra boundary nodes are inserted
    on long edges and wherever refinement splits an encroached segment.
    """
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    check_simple(b)
    merge_tol = MERGE_FRAC * target_h
    poly, vmap0 = _merge_close_vertices(b.vertices, merge_tol)

    bnd, owner = _subdivide_chain(poly, target_h)
    nb0 = len(poly)
    spacing = 0.68 * target_h
    interior = _hex_seeds(poly, spacing, 0.6 * spacing)

    # protect very short boundary segments from further splitting
    min_split = 2.0 * merge_tol
    min_angle = np.radians(min_angle_deg)

    def delaunay_inside(bpts, ipts):
        pts = np.vstack([bpts, ipts]) if len(ipts) else bpts.copy()
        tri = Delaunay(pts)
        simp = tri.simplices
        # drop degenerate slivers (collinear triples on flat boundary runs)
        e1 = pts[simp[:, 1]] - pts[simp[:, 0]]
        e2 = pts[simp[:, 2]] - pts[simp[:, 0]]
        cr = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        sq = np.maximum(np.sum(e1**2, axis=1), np.sum(e2**2, axis=1))
        simp = simp[np.abs(cr) > 1e-12 * sq]
        cent = pts[simp].mean(axis=1)
        keep = simp[points_in_polygon(cent, poly)]
        # enforce ccw orientation
        v0 = pts[keep[:, 0]]
        e1 = pts[keep[:, 1]] - v0
        e2 = pts[keep[:, 2]] - v0
        cr = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        flip = cr < 0
        keep[flip] = keep[flip][:, [0, 2, 1]]
        return pts, keep

    # smoothing phase: relax interior points toward neighbor centroids
    for _ in range(8):
        if len(interior) == 0:
            break
        pts, keep = delaunay_inside(bnd, interior)
        nb = len(bnd)
        sums = np.zeros((len(pts), 2))
        cnts = np.zeros(len(pts))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                np.add.at(sums, keep[:, i], pts[keep[:, j]])
                np.add.at(cnts, keep[:, i], 1.0)
        movable = cnts[nb:] > 0
        new = interior.copy()
        new[movable] = sums[nb:][movable] / cnts[nb:][movable][:, None]
        ok = points_in_polygon(new, poly)
        ok &= clear_of_polyline(new, poly, 0.5 * spacing)
        interior[ok] = new[ok]

    for _ in range(60):
        if len(bnd) + len(interior) > vertex_budget:
            raise MeshFailure("vertex budget exceeded")
        pts, keep = delaunay_inside(bnd, interior)
        nb = len(bnd)

        # boundary recovery: every chain segment must appear as a kept edge
        missing = ~np.isin(_chain_keys(nb, len(pts)),
                           edge_keys(keep, np.roll(keep, -1, axis=1), len(pts)))
        if missing.any():
            bnd, owner = _split_segments(bnd, owner, missing)
            continue

        # quality pass
        angles = _tri_min_angles(pts, keep)
        v = pts
        emax = np.maximum(
            np.linalg.norm(v[keep[:, 1]] - v[keep[:, 0]], axis=1),
            np.maximum(np.linalg.norm(v[keep[:, 2]] - v[keep[:, 1]], axis=1),
                       np.linalg.norm(v[keep[:, 0]] - v[keep[:, 2]], axis=1)))
        emin = np.minimum(
            np.linalg.norm(v[keep[:, 1]] - v[keep[:, 0]], axis=1),
            np.minimum(np.linalg.norm(v[keep[:, 2]] - v[keep[:, 1]], axis=1),
                       np.linalg.norm(v[keep[:, 0]] - v[keep[:, 2]], axis=1)))
        bad = (angles < min_angle) | (emax > target_h)
        # skip triangles whose smallest feature is already at merge scale
        bad &= emin > min_split
        if not bad.any():
            break

        idx = np.argsort(angles)
        idx = idx[bad[idx]][:64]
        centers = _circumcenters(pts, keep[idx])
        radii = np.linalg.norm(centers - pts[keep[idx, 0]], axis=1)

        # circumcenter insertion with diametral-circle encroachment: a
        # center inside a chain segment's diametral circle splits that
        # segment instead (standard Ruppert rule); the Delaunay empty-circle
        # property keeps inserted centers away from existing points, so the
        # only spacing filter needed is among this batch of candidates,
        # relative to each candidate's own circumradius (grading-aware)
        mids = 0.5 * (bnd + np.roll(bnd, -1, axis=0))
        rads = 0.5 * np.linalg.norm(np.roll(bnd, -1, axis=0) - bnd, axis=1)
        seg_ok = 2.0 * rads > min_split
        enc = (np.linalg.norm(mids - centers[:, None], axis=2) < rads) & seg_ok
        free = points_in_polygon(centers, poly) & ~enc.any(axis=1)
        tree = cKDTree(np.vstack([bnd, interior]) if len(interior) else bnd)
        free[free] = tree.query(centers[free])[0] > 0.25 * radii[free]
        split = np.zeros(nb, dtype=bool)
        accepted = []
        for c, r, hit, ok in zip(centers, radii, enc, free):
            if hit.any():
                split[np.nonzero(hit)[0][:2]] = True
            elif ok and not (accepted and np.min(np.linalg.norm(
                    np.asarray(accepted) - c, axis=1)) <= 0.5 * r):
                accepted.append(c)

        if accepted:
            cand = np.asarray(accepted)
            interior = np.vstack([interior, cand]) if len(interior) else cand
        if split.any():
            bnd, owner = _split_segments(bnd, owner, split)
        elif not accepted:
            break
    else:
        raise MeshFailure("refinement did not converge")

    if not _boundary_is_chain(keep, len(bnd), len(pts)):
        raise MeshFailure("boundary of triangulation is not the chain")
    # boundary nodes 0..nb-1 are in chain order
    loop = np.arange(len(bnd))

    vmap = vmap0  # polyline vertex -> merged vertex index == chain position
    # chain positions of merged polyline vertices: nodes with owner == -1
    orig_pos = np.nonzero(owner == -1)[0]
    bvm = orig_pos[vmap]
    return TriangleMesh(vertices=pts, triangles=keep, boundary_loop=loop,
                        boundary_vertex_map=bvm, target_h=target_h)
