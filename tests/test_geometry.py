"""Geometry: support reconstruction, diameter, directional derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull
from scipy.spatial.distance import pdist

from steklovmax import (AngleGrid, BoundaryField, SupportVector,
                        compute_diameter, diameter_directional_derivative,
                        reconstruct_boundary)
from steklovmax.errors import DegenerateBoundary, EmptyDiameterSet
from steklovmax.geometry import BoundaryPolyline


def test_angle_grid_basic():
    g = AngleGrid(100)
    assert g.n_angles == 100
    assert np.isclose(g.h, 2 * np.pi / 100)
    assert np.isclose(g.theta[1] - g.theta[0], g.h)
    with pytest.raises(ValueError):
        AngleGrid(7)


def test_disk_reconstruction_is_unit_circle():
    sv = SupportVector(AngleGrid(64), np.ones(64))
    b = reconstruct_boundary(sv)
    r = np.linalg.norm(b.vertices, axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)


def test_shifted_disk_support_reconstructs_shifted_circle():
    g = AngleGrid(64)
    c = np.array([0.3, -0.2])
    p = 1.0 + c[0] * np.cos(g.theta) + c[1] * np.sin(g.theta)
    b = reconstruct_boundary(SupportVector(g, p))
    r = np.linalg.norm(b.vertices - c, axis=1)
    assert np.allclose(r, 1.0, atol=1e-10)


def test_polyline_rejects_duplicates():
    with pytest.raises(DegenerateBoundary):
        BoundaryPolyline(np.array([[0, 0], [0, 0], [1, 1]], dtype=float))


def test_polyline_area_perimeter_square():
    sq = BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float))
    assert np.isclose(sq.area(), 4.0)
    assert np.isclose(sq.perimeter(), 8.0)


def test_diameter_square():
    sq = BoundaryPolyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
    rep = compute_diameter(sq)
    assert np.isclose(rep.diameter, np.sqrt(2))
    assert len(rep.pairs) == 2


def test_calipers_vs_brute_force_100_random_convex_polygons():
    # the oracle is scipy's pdist, an implementation independent of
    # compute_diameter's squared-distance matrix
    rng = np.random.default_rng(42)
    for _ in range(100):
        pts = rng.normal(size=(30, 2))
        hull = pts[ConvexHull(pts).vertices]   # counterclockwise hull loop
        rep = compute_diameter(BoundaryPolyline(hull))
        assert np.isclose(rep.diameter, pdist(hull).max(), rtol=0,
                          atol=1e-12)


def test_diameter_directional_derivative_translation_zero():
    b = BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float))
    rep = compute_diameter(b)
    field = BoundaryField(np.tile([0.3, -0.4], (4, 1)))
    assert abs(diameter_directional_derivative(b, rep, field)) < 1e-12


def test_diameter_directional_derivative_dilation():
    b = BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float))
    rep = compute_diameter(b)
    field = BoundaryField(b.vertices.copy())
    # dilation: d/dt of (1+t) D equals D
    assert np.isclose(diameter_directional_derivative(b, rep, field),
                      rep.diameter)


def test_csv_roundtrip(tmp_path):
    b = BoundaryPolyline(np.array([[0, 0], [1, 0], [1, 1]], float))
    path = tmp_path / "shape.csv"
    b.to_csv(path)
    b2 = BoundaryPolyline.from_csv(path)
    assert np.array_equal(b.vertices, b2.vertices)


def test_svg_written(tmp_path):
    b = BoundaryPolyline(np.array([[0, 0], [1, 0], [1, 1]], float))
    path = tmp_path / "shape.svg"
    b.to_svg(path)
    text = path.read_text()
    assert text.startswith("<svg") and "path" in text


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 64).filter(lambda n: n % 2 == 0),
       st.floats(0.5, 2.0))
def test_disk_diameter_equals_twice_radius(n, r):
    g = AngleGrid(n)
    b = reconstruct_boundary(SupportVector(g, np.full(n, r)))
    rep = compute_diameter(b)
    # polygon inscribed: diameter = 2 r for even n (antipodal vertices)
    assert np.isclose(rep.diameter, 2 * r, rtol=1e-12)


def test_diameter_report_requires_pairs():
    with pytest.raises(EmptyDiameterSet):
        from steklovmax.geometry import DiameterReport
        DiameterReport(diameter=1.0, pairs=[])
