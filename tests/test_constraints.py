"""Constraint rows and Euclidean projection onto the feasible polyhedron."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklovmax import AngleGrid, build_constraint_set, project
from steklovmax.constraints import convexity_rows, diameter_rows

N = 50
H = 2 * np.pi / N


@pytest.fixture(scope="module")
def cset():
    return build_constraint_set(N, H, 2.0, 2e-3)


def test_residual_linearity(cset):
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=N), rng.normal(size=N)
    a, b = 0.7, -1.3
    rx = cset.coeffs @ x
    ry = cset.coeffs @ y
    rxy = cset.coeffs @ (a * x + b * y)
    assert np.allclose(rxy, a * rx + b * ry, atol=1e-10)


def test_disk_is_feasible(cset):
    assert cset.is_feasible(np.ones(N))


def test_residual_signs_on_disk(cset):
    r = cset.residuals(np.ones(N))
    conv = r[cset.tags == "convexity"]
    wid = r[cset.tags == "width"]
    anchor = r[cset.tags == "anchor"]
    assert np.all(conv > 0)          # disk curvature radius 1 > 0
    assert np.allclose(wid, 0.0)     # constant width d
    assert anchor.shape == (1,) and np.allclose(anchor, 0.0)  # pinned to d


def test_project_feasible_point_identity(cset):
    x = np.ones(N)
    assert np.array_equal(project(x, cset), x)


def test_project_scaled_disk(cset):
    # p = 1.2 everywhere violates every width row; projection gives p = 1
    out = project(np.full(N, 1.2), cset)
    assert np.allclose(out, 1.0, atol=1e-9)


def test_projection_idempotent(cset):
    rng = np.random.default_rng(3)
    x = np.ones(N) + 0.1 * rng.normal(size=N)
    y = project(x, cset)
    z = project(y, cset)
    assert np.allclose(y, z, atol=1e-8)


def test_projection_feasible_and_closer(cset):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = np.ones(N) + 0.2 * rng.normal(size=N)
        y = project(x, cset)
        assert np.all(cset.residuals(y) >= -1e-8)
        # no feasible point is closer than the projection: check a few
        for _ in range(5):
            z = project(np.ones(N) + 0.2 * rng.normal(size=N), cset)
            assert np.linalg.norm(x - y) <= np.linalg.norm(x - z) + 1e-9


def test_single_halfspace_projection_formula():
    # one violated row: projection is the closed-form halfspace projection
    from steklovmax.constraints import LinearConstraintSet
    a = np.array([[1.0, 2.0]])
    cs = LinearConstraintSet(a, np.array([1.0]), np.array(["<="]),
                             np.array(["row"]))
    x = np.array([2.0, 3.0])
    expected = x - (a[0] @ x - 1.0) / (a[0] @ a[0]) * a[0]
    assert np.allclose(project(x, cs), expected, atol=1e-12)


def test_convexity_rows_shape():
    rows = convexity_rows(N, H)
    assert rows.shape == (N, N)
    # each row touches exactly 3 coordinates
    assert np.all((rows != 0).sum(axis=1) == 3)


def test_diameter_rows_shapes():
    w, anchor = diameter_rows(N, 2.0)
    assert w.shape == (N // 2, N)
    assert anchor.shape == (1, N)
    assert np.all(w.sum(axis=1) == 2)


def test_convexity_floor_respected():
    floored = build_constraint_set(N, H, 2.0, 2e-3, convexity_min=0.01)
    out = project(np.ones(N) + 0.05 * np.random.default_rng(9).normal(size=N),
                  floored)
    conv = convexity_rows(N, H) @ out
    assert np.all(conv >= 0.01 - 1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_always_feasible(seed):
    cs = build_constraint_set(N, H, 2.0, 2e-3)
    x = np.ones(N) + 0.3 * np.random.default_rng(seed).normal(size=N)
    y = project(x, cs)
    assert np.all(cs.residuals(y) >= -1e-8)
