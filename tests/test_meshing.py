"""Meshing: simplicity check, quality invariants, boundary bookkeeping."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import Delaunay

import steklovmax.geometry as geometry
import steklovmax.meshing as meshing
from steklovmax import (AngleGrid, OptimOptions, SupportVector,
                        build_constraint_set, project, reconstruct_boundary,
                        triangulate)
from steklovmax.errors import MeshFailure, SelfIntersection
from steklovmax.geometry import BoundaryPolyline, _segments_cross, check_simple
from steklovmax.graphs import GraphPair
from steklovmax.meshing import (MIN_FEATURE_FRAC, _boundary_is_chain,
                                _subdivide_chain, _triangle_quality,
                                clearance_test, points_in_polygon)
from conftest import (convex_flat_start, disk_boundary, fem_spectrum,
                      nonconvex_flat_start, two_graph_boundary, wavy_boundary)


def ellipse(n=100, a=1.0, b=0.6):
    theta = 2 * np.pi * np.arange(n) / n
    return BoundaryPolyline(np.column_stack([a * np.cos(theta),
                                             b * np.sin(theta)]))


CASES = [
    ("disk", ellipse(100, 1.0, 1.0), 0.1),
    ("ellipse", ellipse(100), 0.1),
    ("ellipse-fine", ellipse(200), 0.05),
    ("wavy", wavy_boundary(), 0.1),
    ("square", BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 2], [0, 2]],
                                         float)), 0.15),
    ("two-graph", two_graph_boundary(), 0.05),
]


@pytest.mark.parametrize("name,b,h", CASES, ids=[c[0] for c in CASES])
def test_mesh_quality_invariants(name, b, h):
    mesh = triangulate(b, h)
    # orientation and positivity of every triangle
    areas = mesh.triangle_areas()
    assert np.all(areas > 0)
    # exact area partition: triangle areas sum to the polygon area
    assert np.isclose(areas.sum(), abs(b.area()), rtol=1e-9)
    # quality: minimum angle over all triangles
    assert mesh.min_angle_deg() >= 20.0 - 1e-9
    # sizing: no edge longer than ~1.6x target
    assert _triangle_quality(mesh.vertices, mesh.triangles)[1].max() <= 1.7 * h


@pytest.mark.parametrize("name,b,h", CASES, ids=[c[0] for c in CASES])
def test_boundary_vertex_map(name, b, h):
    mesh = triangulate(b, h)
    assert np.array_equal(mesh.vertices[mesh.boundary_vertex_map],
                          b.vertices)
    # the final renumbering puts the boundary nodes first, in chain order,
    # so the polyline vertices map to increasing mesh vertices
    nb = len(mesh.boundary_loop)
    assert np.array_equal(mesh.boundary_loop, np.arange(nb))
    assert np.all(np.diff(mesh.boundary_vertex_map) > 0)


def crowded_ellipse(gap, at):
    """ellipse() with one more vertex on edge at, gap before its second
    end; at = -1 puts it on the closing edge, gap before vertex 0."""
    v = ellipse().vertices
    a, b = v[at], v[(at + 1) % len(v)]
    extra = b - gap * (b - a) / np.linalg.norm(b - a)
    return BoundaryPolyline(np.insert(v, at % len(v) + 1, extra, axis=0))


@pytest.mark.parametrize("h", [0.1, 0.035])
@pytest.mark.parametrize("frac,at", [(1e-6, 10), (1e-5, -1)],
                         ids=["inside", "across-wrap"])
def test_crowded_polyline_meshes(h, frac, at):
    # a vertex far closer to its neighbour than any target edge length is
    # kept as its own mesh vertex; the triangles at it are exempt from the
    # quality targets as shortest features
    b = crowded_ellipse(frac * h, at)
    mesh = triangulate(b, h)
    assert np.array_equal(mesh.vertices[mesh.boundary_vertex_map],
                          b.vertices)
    assert np.all(np.diff(mesh.boundary_vertex_map) > 0)
    areas = mesh.triangle_areas()
    assert np.all(areas > 0)
    assert np.isclose(areas.sum(), abs(b.area()), rtol=1e-9)
    angles, emax, emin = _triangle_quality(mesh.vertices, mesh.triangles)
    exempt = emin <= MIN_FEATURE_FRAC * h
    assert exempt.any()
    assert np.all(exempt | ((angles >= np.radians(meshing.MIN_ANGLE_DEG))
                            & (emax <= h)))
    # the extra vertex lies on an edge, so the polygon is the same
    got = fem_spectrum(b, h, 4).eigenvalues[1:]
    clean = fem_spectrum(ellipse(), h, 4).eigenvalues[1:]
    assert np.allclose(got, clean, rtol=1e-8, atol=0)


def test_boundary_loop_closed_and_on_boundary():
    mesh = triangulate(ellipse(), 0.1)
    loop = mesh.boundary_loop
    assert len(np.unique(loop)) == len(loop)
    # every boundary edge appears in exactly one triangle
    edges = {}
    for t in mesh.triangles:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(e), max(e))
            edges[key] = edges.get(key, 0) + 1
    be = {(min(a, b), max(a, b)) for a, b in zip(loop, np.roll(loop, -1))}
    for e in be:
        assert edges[e] == 1
    interior = set(edges) - be
    for e in interior:
        assert edges[e] == 2


def test_self_intersection_rejected():
    bow = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float)
    with pytest.raises(SelfIntersection):
        check_simple(BoundaryPolyline(bow))
    with pytest.raises(SelfIntersection):
        triangulate(BoundaryPolyline(bow), 0.2)


def test_graph_pair_polyline_meshes():
    d = 2.0
    n = 50
    x = np.linspace(-d / 2, d / 2, n + 2)[1:-1]
    y = np.sqrt(np.maximum((d / 2) ** 2 - x ** 2, 0.0))
    gp = GraphPair(-y, y, d)
    mesh = triangulate(gp.polyline(), 0.1)
    assert mesh.min_angle_deg() >= 20.0 - 1e-9


def test_support_reconstruction_meshes_with_corners():
    # support vector with a saturated-convexity flat run (near-corner shape)
    g = AngleGrid(100)
    theta = g.theta
    p = np.sqrt(np.cos(theta) ** 2 + (0.4 * np.sin(theta)) ** 2)
    b = reconstruct_boundary(SupportVector(g, p))
    mesh = triangulate(b, 0.1)
    assert mesh.min_angle_deg() >= 20.0 - 1e-9


def test_invalid_target_h():
    with pytest.raises(ValueError):
        triangulate(ellipse(), -0.1)


# Per-edge brute-force oracles: the loops the vectorized predicates replace.
def inside_oracle(points, poly):
    x, y = points[:, 0], points[:, 1]
    vx, vy = poly[:, 0], poly[:, 1]
    wx, wy = np.roll(vx, -1), np.roll(vy, -1)
    inside = np.zeros(len(points), dtype=bool)
    for k in range(len(poly)):
        cond = (vy[k] > y) != (wy[k] > y)
        if not cond.any():
            continue
        xc = vx[k] + (y - vy[k]) / (wy[k] - vy[k]) * (wx[k] - vx[k])
        inside ^= cond & (x < xc)
    return inside


def distance_oracle(points, poly):
    a = poly
    ab = np.roll(poly, -1, axis=0) - a
    ab2 = np.maximum(np.sum(ab**2, axis=1), 1e-300)
    best = np.full(len(points), np.inf)
    for k in range(len(a)):
        t = np.clip(((points - a[k]) @ ab[k]) / ab2[k], 0.0, 1.0)
        proj = a[k] + t[:, None] * ab[k]
        best = np.minimum(best, np.linalg.norm(points - proj, axis=1))
    return best


POLYGONS = [("ellipse", ellipse(100)), ("wavy", wavy_boundary()),
            ("two-graph", two_graph_boundary()),
            ("square", BoundaryPolyline(np.array(
                [[0, 0], [2, 0], [2, 2], [0, 2]], float)))]


def probe_points(poly, seed=0):
    """Random points around the polygon, points at the height of every
    vertex, the vertices themselves and points on every edge."""
    rng = np.random.default_rng(seed)
    lo, hi = poly.min(axis=0) - 0.1, poly.max(axis=0) + 0.1
    rand = lo + (hi - lo) * rng.random((3000, 2))
    level = np.column_stack([lo[0] + (hi[0] - lo[0]) * rng.random(len(poly)),
                             poly[:, 1]])
    t = rng.random((len(poly), 1))
    on_edge = poly + t * (np.roll(poly, -1, axis=0) - poly)
    return np.vstack([rand, level, poly, on_edge])


@pytest.mark.parametrize("name,b", POLYGONS, ids=[c[0] for c in POLYGONS])
def test_points_in_polygon_matches_oracle(name, b):
    poly = b.vertices
    pts = probe_points(poly)
    assert np.array_equal(points_in_polygon(pts, poly),
                          inside_oracle(pts, poly))
    assert points_in_polygon(np.empty((0, 2)), poly).shape == (0,)


@pytest.mark.parametrize("name,b", POLYGONS, ids=[c[0] for c in POLYGONS])
def test_clearance_matches_oracle(name, b):
    poly = b.vertices
    pts = probe_points(poly, seed=1)
    dist = distance_oracle(pts, poly)
    for r in (0.01, 0.034, 0.1, 0.5):
        assert np.array_equal(clearance_test(poly, r)(pts), dist >= r)
    assert clearance_test(poly, 0.1)(np.empty((0, 2))).shape == (0,)


def test_boundary_check_rejects_missing_chain_edge():
    mesh = triangulate(ellipse(), 0.1)
    nb, n = len(mesh.boundary_loop), len(mesh.vertices)
    assert _boundary_is_chain(mesh.triangles, nb, n)
    # drop one triangle holding the chain edge (0, 1)
    tris = mesh.triangles
    holds = np.isin(tris, [0, 1]).sum(axis=1) == 2
    assert holds.sum() == 1
    assert not _boundary_is_chain(tris[~holds], nb, n)


def test_refinement_stall_raises(monkeypatch):
    # circumcenters outside the polygon leave the quality pass nothing to
    # insert while bad triangles remain: the mesher raises rather than
    # return those triangles
    monkeypatch.setattr(meshing, "_circumcenters",
                        lambda verts, tris: np.full((len(tris), 2), 10.0))
    with pytest.raises(MeshFailure, match="stalled"):
        triangulate(ellipse(), 0.1)


def pool_like_boundary():
    """A convex shape like the benchmark's spectrum pool: the support of
    the (1, 0.6) ellipse at N = 200 plus small harmonics, projected onto
    the diameter-2 support polyhedron."""
    grid = AngleGrid(200)
    theta = grid.theta
    p = np.sqrt(np.cos(theta) ** 2 + (0.6 * np.sin(theta)) ** 2)
    for m, amp, phase in ((2, 0.015, 1.0), (3, -0.01, 2.0), (4, 0.02, 0.5),
                          (5, 0.012, 4.0)):
        p = p + amp * np.cos(m * theta + phase)
    opts = OptimOptions(k=2, n_angles=200)
    cset = build_constraint_set(200, grid.h, opts.diameter,
                                opts.p_min_factor * opts.diameter,
                                opts.convexity_floor_factor * opts.diameter)
    return reconstruct_boundary(SupportVector(grid, project(p, cset)))


def count_triangulations(monkeypatch):
    """Record the triangulations meshing builds: "fresh" for each scipy
    Delaunay, "incremental" for each incremental one, and the number of
    points of each later insertion into it."""
    built, added = [], []

    def fresh(*args, **kwargs):
        built.append("fresh")
        return Delaunay(*args, **kwargs)

    class Incremental(meshing._IncrementalDelaunay):
        def __init__(self, pts):
            built.append("incremental")
            super().__init__(pts)

        def add_points(self, pts):
            added.append(len(pts))
            super().add_points(pts)
    monkeypatch.setattr("scipy.spatial.Delaunay", fresh)
    monkeypatch.setattr(meshing, "_IncrementalDelaunay", Incremental)
    return built, added


def test_delaunay_calls_per_mesh(monkeypatch):
    # nothing moves the hex seeds before refinement, so a mesh builds one
    # triangulation, of the boundary chain and the seeds, and later rounds
    # insert their points into it however many rounds run (the pool-like
    # mesh inserts points at least four times)
    built, added = count_triangulations(monkeypatch)
    assert not hasattr(meshing, "Delaunay")
    for b in (convex_flat_start(), nonconvex_flat_start()):
        del built[:]
        mesh = triangulate(b, 0.1)
        assert built == ["incremental"]
        assert mesh.min_angle_deg() >= 20.0 - 1e-9
    del built[:], added[:]
    mesh = triangulate(pool_like_boundary(), 0.035)
    assert built == ["incremental"]
    assert len(added) >= 4
    assert mesh.min_angle_deg() >= 20.0 - 1e-9


def fresh_inside_triangles(b, mesh):
    """Sorted index triples of the triangles of a fresh Delaunay of the
    mesh vertices that the mesher keeps: not slivers, centroid inside the
    polygon."""
    pts = mesh.vertices
    simp = Delaunay(pts).simplices
    e1 = pts[simp[:, 1]] - pts[simp[:, 0]]
    e2 = pts[simp[:, 2]] - pts[simp[:, 0]]
    cr = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    sq = np.maximum(np.sum(e1**2, axis=1), np.sum(e2**2, axis=1))
    simp = simp[np.abs(cr) > 1e-12 * sq]
    simp = simp[points_in_polygon(pts[simp].mean(axis=1), b.vertices)]
    return {tuple(t) for t in np.sort(simp, axis=1)}


BOOKKEEPING = [("ellipse", ellipse(100), 0.025),
               ("wavy", wavy_boundary(), 0.025),
               ("two-graph", two_graph_boundary(), 0.025),
               ("disk", disk_boundary(100), 0.025),
               ("pool-like", pool_like_boundary(), 0.035)]


@pytest.mark.parametrize("name,b,h", BOOKKEEPING,
                         ids=[c[0] for c in BOOKKEEPING])
def test_incremental_triangles_match_fresh_delaunay(name, b, h):
    # the refinement rounds insert into one Qhull triangulation whose point
    # numbering differs from the chain order; mapped back, its triangles
    # are those of a fresh triangulation of the final vertices
    mesh = triangulate(b, h)
    got = {tuple(t) for t in np.sort(mesh.triangles, axis=1)}
    assert len(got) == len(mesh.triangles)
    assert got == fresh_inside_triangles(b, mesh)


def regular_polygon(n):
    theta = 2 * np.pi * np.arange(n) / n
    return BoundaryPolyline(np.column_stack([np.cos(theta), np.sin(theta)]))


COCIRCULAR = [("square", BoundaryPolyline(np.array(
                  [[0, 0], [1, 0], [1, 1], [0, 1]], float))),
              ("12-gon", regular_polygon(12)),
              ("disk-100", disk_boundary(100))]


@pytest.mark.parametrize("name,b", COCIRCULAR, ids=[c[0] for c in COCIRCULAR])
def test_cocircular_input_meshes(monkeypatch, name, b):
    # all boundary nodes on one circle and no interior seeds at h = 10:
    # without a point above the lifted circle the incremental triangulation
    # fails on such input (scipy's incremental Delaunay refuses Qz)
    _, added = count_triangulations(monkeypatch)
    mesh = triangulate(b, 10.0)
    assert np.all(mesh.triangle_areas() > 0)
    assert np.isclose(mesh.triangle_areas().sum(), abs(b.area()), rtol=1e-12)
    assert mesh.min_angle_deg() >= 20.0 - 1e-9
    if name == "disk-100":
        assert len(added) >= 3


# Loop versions of the array code in geometry and meshing, kept as oracles.
def check_simple_oracle(b):
    """First crossing pair (i, j) found by the per-edge loop, or None."""
    v = b.vertices
    n = len(v)
    ends = np.roll(v, -1, axis=0)
    lo = np.minimum(v, ends)
    hi = np.maximum(v, ends)
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if js.size == 0:
            continue
        mask = np.all((lo[js] <= hi[i]) & (hi[js] >= lo[i]), axis=1)
        for j in js[mask]:
            if _segments_cross(v[i], ends[i], v[j], ends[j]):
                return i, int(j)
    return None


def subdivide_oracle(verts, target_h):
    n = len(verts)
    pts = []
    original = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        pts.append(a)
        original.append(True)
        length = np.linalg.norm(b - a)
        k = int(np.ceil(length / target_h))
        for j in range(1, k):
            pts.append(a + (b - a) * (j / k))
            original.append(False)
    return np.asarray(pts), np.asarray(original)


def quality_oracle(v, keep):
    """Minimum angle, longest and shortest edge, each edge length taken
    once for the angles and once more for each extreme."""
    a, b, c = v[keep[:, 0]], v[keep[:, 1]], v[keep[:, 2]]
    la = np.linalg.norm(b - c, axis=1)
    lb = np.linalg.norm(c - a, axis=1)
    lc = np.linalg.norm(a - b, axis=1)
    angs = np.empty((len(keep), 3))
    for i, (opp, s1, s2) in enumerate(((la, lb, lc), (lb, lc, la),
                                       (lc, la, lb))):
        cosv = np.clip((s1**2 + s2**2 - opp**2) / (2 * s1 * s2), -1.0, 1.0)
        angs[:, i] = np.arccos(cosv)
    emax = np.maximum(
        np.linalg.norm(v[keep[:, 1]] - v[keep[:, 0]], axis=1),
        np.maximum(np.linalg.norm(v[keep[:, 2]] - v[keep[:, 1]], axis=1),
                   np.linalg.norm(v[keep[:, 0]] - v[keep[:, 2]], axis=1)))
    emin = np.minimum(
        np.linalg.norm(v[keep[:, 1]] - v[keep[:, 0]], axis=1),
        np.minimum(np.linalg.norm(v[keep[:, 2]] - v[keep[:, 1]], axis=1),
                   np.linalg.norm(v[keep[:, 0]] - v[keep[:, 2]], axis=1)))
    return angs.min(axis=1), emax, emin


def first_crossing(b):
    try:
        check_simple(b)
    except SelfIntersection as exc:
        return exc.edge_i, exc.edge_j
    return None


BOW_TIE = BoundaryPolyline(np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float))
SHAPES = [("ellipse", ellipse(100)), ("wavy", wavy_boundary()),
          ("two-graph", two_graph_boundary()), ("bow-tie", BOW_TIE)]
# vertex 3 lies exactly on edge 0 (the exact orientation fallback decides),
# and a wavy loop with two pairs of vertices swapped (several crossings)
TOUCHING = BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 2], [1, 0],
                                      [0, 2]], float))
TANGLED = BoundaryPolyline(wavy_boundary().vertices[
    np.r_[0:30, 70, 31:70, 30, 71:90, 100, 91:100, 90, 101:120]])


@pytest.mark.parametrize(
    "name,b", SHAPES + [("touching", TOUCHING), ("tangled", TANGLED)],
    ids=[c[0] for c in SHAPES] + ["touching", "tangled"])
def test_check_simple_matches_oracle(name, b):
    pair = first_crossing(b)
    assert pair == check_simple_oracle(b)
    assert (pair is None) == (name in ("ellipse", "wavy", "two-graph"))


def random_loops(rng, count):
    """Vertex loops on a coarse integer grid, so vertical edges, shared
    x-coordinates and vertices touching other edges are common: random
    walks (mostly self-intersecting) and star-shaped loops (mostly simple).
    Consecutive repeated vertices are dropped."""
    for c in range(count):
        n = int(rng.integers(3, 40))
        if c % 2:
            v = rng.integers(0, 6, size=(n, 2))
        else:
            theta = np.sort(rng.uniform(0, 2 * np.pi, n))
            r = rng.uniform(4, 10, n)
            v = np.rint(np.column_stack([r * np.cos(theta),
                                         r * np.sin(theta)]))
        v = v[np.any(v != np.roll(v, 1, axis=0), axis=1)].astype(float)
        if len(v) >= 3:
            yield BoundaryPolyline(v)


def test_check_simple_matches_oracle_on_random_loops(monkeypatch):
    exact = []
    real = geometry._segments_cross

    def counting(*args):
        exact.append(1)
        return real(*args)
    monkeypatch.setattr(geometry, "_segments_cross", counting)
    pairs = [first_crossing(b)
             for b in random_loops(np.random.default_rng(11), 400)]
    oracle = [check_simple_oracle(b)
              for b in random_loops(np.random.default_rng(11), 400)]
    assert pairs == oracle
    assert 50 <= sum(p is None for p in pairs) <= len(pairs) - 50
    assert exact    # collinear cases reached the exact test


def segments_meet(a, b, c, d):
    """Whether closed segments ab and cd share a point, exactly: solve
    a + t (b - a) = c + u (d - c) with t, u in [0, 1], or, for parallel
    segments, require a common line and overlapping parameter ranges."""
    a, b, c, d = ([Fraction(x) for x in p] for p in (a, b, c, d))
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    q = (c[0] - a[0], c[1] - a[1])

    def cross(p, o):
        return p[0] * o[1] - p[1] * o[0]
    den = cross(r, s)
    if den:
        return 0 <= cross(q, s) / den <= 1 and 0 <= cross(q, r) / den <= 1
    if cross(q, r):
        return False
    rr = r[0] ** 2 + r[1] ** 2
    t0 = (q[0] * r[0] + q[1] * r[1]) / rr
    t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / rr
    return max(min(t0, t1), 0) <= min(max(t0, t1), 1)


def test_segments_cross_matches_exact_definition():
    # every pair of segments with distinct endpoints on the 4 x 3 integer
    # grid: collinear, touching and overlapping pairs are common
    grid = [(float(x), float(y)) for x in range(4) for y in range(3)]
    segs = [(p, q) for p in grid for q in grid if p != q]
    pairs = [(a, b, c, d) for a, b in segs for c, d in segs]
    assert len(pairs) == 17424
    wrong = [p for p in pairs if _segments_cross(*p) != segments_meet(*p)]
    assert wrong == []


@pytest.mark.parametrize("name,b", SHAPES, ids=[c[0] for c in SHAPES])
def test_subdivide_chain_matches_oracle(name, b):
    for h in (0.02, 0.1, 0.35):
        pts, original = _subdivide_chain(b.vertices, h)
        ref_pts, ref_original = subdivide_oracle(b.vertices, h)
        assert np.array_equal(pts, ref_pts)
        assert pts.tobytes() == ref_pts.tobytes()
        assert np.array_equal(original, ref_original)


@pytest.mark.parametrize("name,b", SHAPES[:3], ids=[c[0] for c in SHAPES[:3]])
def test_triangle_quality_matches_oracle(name, b):
    mesh = triangulate(b, 0.1)
    got = _triangle_quality(mesh.vertices, mesh.triangles)
    for x, ref in zip(got, quality_oracle(mesh.vertices, mesh.triangles)):
        assert np.array_equal(x, ref)
