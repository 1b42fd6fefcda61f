"""Ascent loop: feasibility, monotonicity, stopping, graph projection."""

import numpy as np
import pytest

from steklovmax import (AngleGrid, OptimOptions, SupportVector, ascend,
                        ascend_nonconvex, build_constraint_set, disk_graphs,
                        disk_support)
from steklovmax import optimize
from steklovmax.errors import (MeshFailure, NoAscent, ProjectionFailure,
                               SolverFailure)
from steklovmax.graphs import GraphPair
from steklovmax.optimize import project_graphs

FAST = dict(n_angles=60, max_iters=8, restarts=0, mesh_h_factor=0.1)


@pytest.fixture(scope="module")
def short_run():
    opts = OptimOptions(k=1, **FAST)
    iterates = []
    st = ascend(disk_support(opts), opts,
                callback=lambda it, x, ev: iterates.append((x.copy(), ev)))
    return opts, st, iterates


def test_objective_monotone(short_run):
    _, st, _ = short_run
    h = st.objective_history
    assert all(b >= a - 1e-12 for a, b in zip(h, h[1:]))


def test_iterates_feasible(short_run):
    opts, st, iterates = short_run
    grid = AngleGrid(opts.n_angles)
    cset = build_constraint_set(opts.n_angles, grid.h, opts.diameter,
                                opts.p_min_factor * opts.diameter,
                                opts.convexity_floor_factor * opts.diameter)
    for x, _ in iterates:
        assert np.all(cset.residuals(x) >= -1e-9)
    assert np.all(cset.residuals(st.variables.p) >= -1e-9)


def test_anchor_saturated(short_run):
    opts, st, _ = short_run
    p = st.variables.p
    n = opts.n_angles
    assert abs(p[0] + p[n // 2] - opts.diameter) < 1e-8


def test_escapes_disk(short_run):
    _, st, _ = short_run
    assert st.objective_history[-1] > st.objective_history[0] + 1e-4


def test_state_reports(short_run):
    opts, st, _ = short_run
    assert st.iterations >= 1
    assert len(st.eigenvalues) >= opts.k + 2
    assert st.diameter.diameter > 0
    assert set(st.active_rows) == {"convexity", "width", "anchor",
                                   "positivity"}


def test_nonconvex_short_run():
    opts = OptimOptions(k=1, **FAST)
    st = ascend_nonconvex(disk_graphs(opts), opts)
    h = st.objective_history
    assert all(b >= a - 1e-12 for a, b in zip(h, h[1:]))
    assert st.diameter.diameter <= opts.diameter * (1 + 1e-3)
    gp = st.variables
    assert np.all(gp.p <= gp.q)


def test_project_graphs_ordering_and_box():
    rng = np.random.default_rng(2)
    d, gap = 2.0, 1e-3
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=30)
        q = rng.uniform(-1.5, 1.5, size=30)
        pp, qq = project_graphs(p, q, d, gap)
        assert np.all(pp <= qq - gap + 1e-12)
        assert np.all(np.abs(pp) <= d / 2 + 1e-12)
        assert np.all(np.abs(qq) <= d / 2 + 1e-12)


def test_project_graphs_identity_on_feasible():
    p = np.array([-0.5, -0.3, -0.4])
    q = np.array([0.5, 0.6, 0.2])
    pp, qq = project_graphs(p, q, 2.0, 1e-3)
    assert np.allclose(pp, p)
    assert np.allclose(qq, q)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimOptions(k=0)
    with pytest.raises(ValueError):
        OptimOptions(n_angles=31)
    with pytest.raises(ValueError):
        OptimOptions(diameter=-1.0)


def test_initial_mismatch_rejected():
    opts = OptimOptions(k=1, **FAST)
    wrong = SupportVector(AngleGrid(40), np.ones(40))
    with pytest.raises(ValueError):
        ascend(wrong, opts)


def test_determinism_same_seed():
    opts = OptimOptions(k=1, n_angles=60, max_iters=4, restarts=1,
                        mesh_h_factor=0.1, seed=5)
    s1 = ascend(disk_support(opts), opts)
    s2 = ascend(disk_support(opts), opts)
    assert np.array_equal(s1.variables.p, s2.variables.p)
    assert s1.objective_history == s2.objective_history


def _monotone(h):
    return all(b >= a - 1e-12 for a, b in zip(h, h[1:]))


@pytest.mark.parametrize("target,error", [
    ("evaluate_support", SolverFailure("injected")),
    ("project", ProjectionFailure("injected"))])
def test_trial_failure_rejects_step(monkeypatch, target, error):
    # the second call is the first trial step of the first iteration
    real = getattr(optimize, target)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, target, flaky)
    opts = OptimOptions(k=1, **dict(FAST, max_iters=3))
    st = ascend(disk_support(opts), opts)
    assert len(calls) > 2
    assert _monotone(st.objective_history)
    assert st.objective_history[-1] > st.objective_history[0]


def test_rejected_start_raises_no_ascent(monkeypatch):
    def broken(p, opts):
        raise MeshFailure("injected")

    monkeypatch.setattr(optimize, "evaluate_support", broken)
    opts = OptimOptions(k=1, **FAST)
    with pytest.raises(NoAscent, match="MeshFailure"):
        ascend(disk_support(opts), opts)


def test_rejected_restart_is_skipped(monkeypatch):
    # every evaluation after the first pass's last iteration fails, so each
    # restart is rejected at its start
    real = optimize.evaluate_support
    failed = []

    def evaluate(p, opts):
        if failed:
            failed.append(1)
            raise MeshFailure("injected")
        return real(p, opts)

    def callback(it, x, ev):
        if it == opts.max_iters:
            failed.append(1)

    monkeypatch.setattr(optimize, "evaluate_support", evaluate)
    opts = OptimOptions(k=1, **dict(FAST, max_iters=2, restarts=2))
    st = ascend(disk_support(opts), opts, callback=callback)
    assert len(failed) == 1 + opts.restarts
    assert len(st.objective_history) == opts.max_iters + 1
    assert _monotone(st.objective_history)


def test_each_evaluation_calls_every_layer_once(monkeypatch):
    # the layer entry points are looked up in steklovmax.optimize at call
    # time, so wrappers installed there see every stage of one evaluation
    layers = ("triangulate", "build_space", "assemble", "solve_spectrum",
              "compute_diameter")
    calls = {name: 0 for name in layers}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in layers:
        monkeypatch.setattr(optimize, name,
                            counting(name, getattr(optimize, name)))
    opts = OptimOptions(k=1, **FAST)
    optimize.evaluate_support(disk_support(opts).p, opts)
    assert calls == {name: 1 for name in layers}
    optimize.evaluate_graphs(disk_graphs(opts), opts)
    assert calls == {name: 2 for name in layers}
