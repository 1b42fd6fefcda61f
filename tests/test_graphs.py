"""Two-graph parametrization: construction, indices, validation."""

import numpy as np
import pytest

from steklovmax.graphs import GraphPair


def make_lens(n=20, d=2.0, flat=0.5):
    x = np.linspace(-d / 2, d / 2, n + 2)[1:-1]
    y = flat * np.sqrt(np.maximum((d / 2) ** 2 - x ** 2, 0.0))
    return GraphPair(-y, y, d)


def test_polyline_is_counterclockwise_and_closed():
    gp = make_lens()
    b = gp.polyline()
    assert b.area() > 0
    assert len(b) == 2 * gp.n + 2


def test_endpoints_at_axis():
    gp = make_lens(d=2.0)
    v = gp.polyline().vertices
    assert np.allclose(v[0], [-1.0, 0.0])
    assert np.allclose(v[gp.n + 1], [1.0, 0.0])


def test_vertex_index_maps():
    gp = make_lens(n=10)
    b = gp.polyline()
    lo = gp.lower_vertex_indices()
    up = gp.upper_vertex_indices()
    assert np.allclose(b.vertices[lo][:, 1], gp.p)
    assert np.allclose(b.vertices[lo][:, 0], gp.abscissae)
    assert np.allclose(b.vertices[up][:, 1], gp.q)
    assert np.allclose(b.vertices[up][:, 0], gp.abscissae)


def test_ordering_violation_rejected():
    with pytest.raises(ValueError):
        GraphPair(np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.5, 0.5]), 2.0)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        GraphPair(np.zeros(3), np.ones(4), 2.0)


def test_diameter_of_lens_polyline():
    from steklovmax import compute_diameter
    gp = make_lens()
    rep = compute_diameter(gp.polyline())
    assert np.isclose(rep.diameter, 2.0, rtol=1e-12)
