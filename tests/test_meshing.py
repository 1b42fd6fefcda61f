"""Meshing: simplicity check, quality invariants, boundary bookkeeping."""

import numpy as np
import pytest

from steklovmax import AngleGrid, SupportVector, reconstruct_boundary, triangulate
from steklovmax.errors import SelfIntersection
from steklovmax.geometry import BoundaryPolyline
from steklovmax.graphs import GraphPair
from steklovmax.meshing import (_boundary_is_chain, check_simple,
                                clear_of_polyline, points_in_polygon)
from conftest import two_graph_boundary


def ellipse(n=100, a=1.0, b=0.6):
    theta = 2 * np.pi * np.arange(n) / n
    return BoundaryPolyline(np.column_stack([a * np.cos(theta),
                                             b * np.sin(theta)]))


def wavy(n=120):
    theta = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.15 * np.cos(5 * theta)
    return BoundaryPolyline(np.column_stack([r * np.cos(theta),
                                             r * np.sin(theta)]))


CASES = [
    ("disk", ellipse(100, 1.0, 1.0), 0.1),
    ("ellipse", ellipse(100), 0.1),
    ("ellipse-fine", ellipse(200), 0.05),
    ("wavy", wavy(), 0.1),
    ("square", BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 2], [0, 2]],
                                         float)), 0.15),
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
    assert mesh.max_edge_length() <= 1.7 * h


@pytest.mark.parametrize("name,b,h", CASES, ids=[c[0] for c in CASES])
def test_boundary_vertex_map(name, b, h):
    mesh = triangulate(b, h)
    mapped = mesh.vertices[mesh.boundary_vertex_map]
    err = np.linalg.norm(mapped - b.vertices, axis=1)
    # merged near-duplicate runs may shift by the merge tolerance
    assert err.max() <= 1e-3 * h + 1e-12


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
    be = {(min(a, b), max(a, b)) for a, b in mesh.boundary_edges}
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


def test_scaled_mesh():
    mesh = triangulate(ellipse(), 0.1)
    big = mesh.scaled(2.0)
    assert np.allclose(big.vertices, 2.0 * mesh.vertices)
    assert np.array_equal(big.triangles, mesh.triangles)


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


POLYGONS = [("ellipse", ellipse(100)), ("wavy", wavy()),
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
        assert np.array_equal(clear_of_polyline(pts, poly, r), dist >= r)
    assert clear_of_polyline(np.empty((0, 2)), poly, 0.1).shape == (0,)


def test_boundary_check_rejects_missing_chain_edge():
    mesh = triangulate(ellipse(), 0.1)
    nb, n = len(mesh.boundary_loop), len(mesh.vertices)
    assert _boundary_is_chain(mesh.triangles, nb, n)
    # drop one triangle holding the chain edge (0, 1)
    tris = mesh.triangles
    holds = np.isin(tris, [0, 1]).sum(axis=1) == 2
    assert holds.sum() == 1
    assert not _boundary_is_chain(tris[~holds], nb, n)
