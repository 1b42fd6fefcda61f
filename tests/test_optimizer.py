"""Ascent loop: feasibility, monotonicity, stopping, graph projection."""

import ast

import numpy as np
import pytest

from steklovmax import (AngleGrid, GraphPair, OptimOptions, SupportVector,
                        ascend, ascend_nonconvex, build_constraint_set,
                        disk_graphs, disk_support)
import steklovmax
from steklovmax import fem, meshing, optimize
from steklovmax.errors import NoAscent, ProjectionFailure, SolverFailure
from steklovmax.optimize import project_graphs

FAST = dict(n_angles=60, max_iters=8, restarts=0)


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


@pytest.mark.parametrize("ascent,start,rows", [
    (ascend, disk_support, {"convexity", "width", "anchor", "positivity"}),
    (ascend_nonconvex, disk_graphs, {"ordering", "box"})],
    ids=["convex", "nonconvex"])
def test_verbose_log_line_per_accepted_step(capsys, ascent, start, rows):
    # iteration, objective, step, active rows by kind, cluster size
    opts = OptimOptions(k=1, verbose=True, **FAST)
    history = ascent(start(opts), opts).objective_history
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == len(history) - 1 >= 1
    for i, (it, obj, step, active, cluster) in enumerate(lines, start=1):
        assert int(it) == i
        assert obj == f"{history[i]:.8f}"
        assert float(step) > 0
        assert set(ast.literal_eval(active)) == rows
        assert int(cluster) >= 1


def test_project_graphs_ordering_and_box():
    rng = np.random.default_rng(2)
    d, gap = 2.0, 1e-3
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=60)
        pp, qq = np.split(project_graphs(x, d, gap), 2)
        assert np.all(pp <= qq - gap + 1e-12)
        assert np.all(np.abs(pp) <= d / 2 + 1e-12)
        assert np.all(np.abs(qq) <= d / 2 + 1e-12)


def test_project_graphs_identity_on_feasible():
    x = np.array([-0.5, -0.3, -0.4, 0.5, 0.6, 0.2])
    assert np.allclose(project_graphs(x, 2.0, 1e-3), x)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimOptions(k=0)
    with pytest.raises(ValueError):
        OptimOptions(n_angles=31)
    for name in ("diameter", "tol"):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                OptimOptions(**{name: bad})
    for name in ("restarts", "seed"):
        with pytest.raises(ValueError, match=name):
            OptimOptions(**{name: -1})
    # the count fields take integers only: a float, even a whole one, or a
    # bool would fail later inside the ascent
    for name, bad in (("k", 1.5), ("n_angles", 100.0), ("max_iters", 2.5),
                      ("restarts", 1.5), ("seed", 0.5), ("k", True),
                      ("max_iters", np.float64(3.0))):
        with pytest.raises(ValueError, match=name):
            OptimOptions(**{name: bad})
    for bad in (64.0, True, np.float64(64.0)):
        with pytest.raises(ValueError, match="n_angles"):
            AngleGrid(bad)
    opts = OptimOptions(k=np.int64(2), n_angles=np.int32(64),
                        max_iters=np.int64(3), restarts=np.int8(0),
                        seed=np.uint16(1))
    assert AngleGrid(opts.n_angles).theta.shape == (64,)


def test_initial_mismatch_rejected():
    opts = OptimOptions(k=1, **FAST)
    wrong = SupportVector(AngleGrid(40), np.ones(40))
    with pytest.raises(ValueError):
        ascend(wrong, opts)
    # graphs of another length, or over another diameter, which the ascent
    # would silently move to its own abscissae
    gp = disk_graphs(opts)
    for bad in (disk_graphs(OptimOptions(n_angles=40)),
                GraphPair(gp.p, gp.q, 3.0)):
        with pytest.raises(ValueError, match="initial graphs"):
            ascend_nonconvex(bad, opts)


def test_determinism_same_seed():
    opts = OptimOptions(k=1, n_angles=60, max_iters=4, restarts=1, seed=5)
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
        raise SolverFailure("injected")

    monkeypatch.setattr(optimize, "evaluate_support", broken)
    opts = OptimOptions(k=1, **FAST)
    with pytest.raises(NoAscent, match="SolverFailure"):
        ascend(disk_support(opts), opts)


def test_rejected_restart_is_skipped(monkeypatch):
    # every evaluation after the first pass's last iteration fails, so each
    # restart is rejected at its start
    real = optimize.evaluate_support
    failed = []

    def evaluate(p, opts):
        if failed:
            failed.append(1)
            raise SolverFailure("injected")
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


def test_stop_rule_ends_pass():
    # a gain below tol over STOP_WINDOW accepted steps ends the pass
    opts = OptimOptions(k=1, n_angles=60, tol=0.5, max_iters=50, restarts=0)
    st = ascend(disk_support(opts), opts)
    assert st.converged
    assert st.message == "objective change below stop_tol"
    assert len(st.objective_history) == optimize.STOP_WINDOW + 1
    assert st.iterations == optimize.STOP_WINDOW


def test_vanishing_move_ends_pass(monkeypatch):
    # a projection that returns the warm-start point moves nowhere; the
    # zero move would pass the Armijo test forever, so the pass must end
    # before it spends an evaluation on it
    real = optimize.evaluate_support
    evaluations = []

    def evaluate(p, opts):
        evaluations.append(1)
        return real(p, opts)

    def stuck(p, cset, start=None):
        return p.copy() if start is None else start

    monkeypatch.setattr(optimize, "evaluate_support", evaluate)
    monkeypatch.setattr(optimize, "project", stuck)
    opts = OptimOptions(k=1, **FAST)
    st = ascend(disk_support(opts), opts)
    assert st.converged
    assert st.message == "no feasible ascent step"
    assert len(evaluations) == 1
    assert len(st.objective_history) == 1


def test_each_evaluation_calls_every_layer_once(monkeypatch):
    # the solver and the diameter are looked up in steklovmax.optimize at
    # call time, so wrappers installed there see every stage of one
    # evaluation; the mesher and the FEM assembly must not run at all
    calls = {"solve_harmonic": 0, "compute_diameter": 0, "triangulate": 0,
             "assemble": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((optimize, "solve_harmonic"),
                         (optimize, "compute_diameter"),
                         (meshing, "triangulate"), (fem, "assemble"),
                         (steklovmax, "triangulate"),
                         (steklovmax, "assemble")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    opts = OptimOptions(k=1, **FAST)
    optimize.evaluate_support(disk_support(opts).p, opts)
    assert calls == {"solve_harmonic": 1, "compute_diameter": 1,
                     "triangulate": 0, "assemble": 0}
    optimize.evaluate_graphs(disk_graphs(opts), opts)
    assert calls == {"solve_harmonic": 2, "compute_diameter": 2,
                     "triangulate": 0, "assemble": 0}
