"""Constraint rows and Euclidean projection onto the feasible polyhedron."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ldp_project
from steklovmax import (OptimOptions, ProjectionFailure, ascend,
                        build_constraint_set, project)
from steklovmax import optimize
from steklovmax.cli import _flat_support
from steklovmax.constraints import (LinearConstraintSet, active_rows,
                                    convexity_rows, diameter_rows)

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
    a = np.array([[1.0, 2.0]])
    cs = LinearConstraintSet(a, np.array([1.0]), np.array(["row"]))
    x = np.array([2.0, 3.0])
    expected = x - (a[0] @ x - 1.0) / (a[0] @ a[0]) * a[0]
    assert np.allclose(project(x, cs), expected, atol=1e-12)


def test_convexity_rows_shape():
    rows = convexity_rows(N, H)
    assert rows.shape == (N, N)
    # each row touches exactly 3 coordinates
    assert np.all((rows != 0).sum(axis=1) == 3)


def test_diameter_rows_shapes():
    w, anchor = diameter_rows(N)
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


@pytest.fixture(scope="module")
def recorded():
    """Every project call of a short convex ascent (k=2, N=100, flat start,
    4 iterations plus one restart): its constraint set and (x, start)."""
    opts = OptimOptions(k=2, n_angles=100, max_iters=4, restarts=1, seed=1)
    calls = []
    real = optimize.project

    def recording(x, cset, start=None):
        calls.append((cset, np.array(x), None if start is None
                      else np.array(start)))
        return real(x, cset, start)

    optimize.project = recording
    try:
        ascend(_flat_support(opts), opts)
    finally:
        optimize.project = real
    cset = calls[0][0]
    inputs = [(x, start) for _, x, start in calls]
    # the noop calls return x itself; the rest run the active-set method
    moved = [(x, start) for x, start in inputs if not cset.is_feasible(x)]
    assert len(moved) >= 20
    return cset, moved


def rel_err(z, oracle):
    return float(np.max(np.abs(z - oracle)) / np.max(np.abs(oracle)))


def test_recorded_projections_match_oracle(recorded):
    # warm and cold starts agree with the NNLS oracle; none raises
    # ProjectionFailure, which would fail the test here
    cset, inputs = recorded
    for x, start in inputs:
        oracle = ldp_project(x, cset)
        assert rel_err(project(x, cset, start), oracle) <= 1e-10
        assert rel_err(project(x, cset), oracle) <= 1e-10


def test_same_active_set_gives_identical_bits(recorded):
    cset, inputs = recorded
    rows = cset.unit_rows
    same = 0
    for x, start in inputs:
        if np.array_equal(active_rows(x, rows, start), active_rows(x, rows)):
            same += 1
            assert np.array_equal(project(x, cset, start), project(x, cset))
    assert same >= len(inputs) // 2


@pytest.fixture(scope="module")
def floored():
    return build_constraint_set(N, H, 2.0, 2e-3, convexity_min=0.01)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_warm_start_from_any_feasible_point(floored, seed):
    # the ascent warm-starts from the last projection, a point near x; here
    # start is the projection of an unrelated draw
    rng = np.random.default_rng(seed)
    x = np.ones(N) + 0.2 * rng.normal(size=N)
    start = project(np.ones(N) + 0.2 * rng.normal(size=N), floored)
    warm = project(x, floored, start)
    assert rel_err(warm, ldp_project(x, floored)) <= 1e-10
    rows = floored.unit_rows
    if np.array_equal(active_rows(x, rows, start), active_rows(x, rows)):
        assert np.array_equal(warm, project(x, floored))


def test_width_row_0_and_anchor_both_active(cset):
    # moving p_0 out and p_{N/2} in keeps the anchor pair's width at d but
    # breaks convexity at both; the disk (start) has every width row and
    # the anchor active.  The pair is one equality: width row 0 is in every
    # active set, the anchor row in none.
    half = N // 2
    x = np.ones(N)
    x[0] += 0.1
    x[half] -= 0.1
    oracle = ldp_project(x, cset)
    anchor = np.flatnonzero(cset.tags == "anchor")[0]
    width0 = np.flatnonzero(cset.tags == "width")[0]
    assert list(cset.unit_rows.equalities) == [width0]
    for start in (None, np.ones(N)):
        active = active_rows(x, cset.unit_rows, start)
        assert width0 in active and anchor not in active
        out = project(x, cset, start)
        assert rel_err(out, oracle) <= 1e-10
        slack = cset.residuals(out)
        assert abs(slack[anchor]) < 1e-12 and abs(slack[width0]) < 1e-12


@pytest.mark.parametrize("coeffs,bounds", [
    ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0]),          # x_0 <= 0, x_0 >= 1
    ([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
     [2.0, -2.0, 0.0, 0.0]),             # x_0 + x_1 = 2, x_0 <= 0, x_1 <= 0
], ids=["halfspaces", "equality"])
def test_empty_polyhedron_raises(coeffs, bounds):
    cs = LinearConstraintSet(np.array(coeffs), np.array(bounds),
                             np.array(["row"] * len(bounds)))
    with pytest.raises(ProjectionFailure):
        project(np.array([0.5, 0.5]), cs)
