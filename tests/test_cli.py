"""CLI: config parsing, run modes, artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import with_src_path
from steklovmax import BLAS_THREAD_VARS
import steklovmax.cli
from steklovmax.cli import (RunConfig, _build_argparser, _flat_graphs, main,
                            parse_config, read_config_file, run)
from steklovmax.errors import ConfigError, SolverFailure
from steklovmax.geometry import BoundaryPolyline
from steklovmax.graphs import GraphPair
from steklovmax.optimize import disk_graphs, evaluate_graphs

FAST = ["--n-angles", "100"]
# the names a flag, a config key and result.json's config record all use
SETTABLE = {"mode", "k", "n_angles", "diameter", "max_iters", "tol", "seed",
            "initial", "out_dir", "verbose"}


def test_defaults():
    cfg = parse_config([])
    assert cfg.mode == "optimize-convex"
    assert cfg.k == 1
    assert cfg.n_angles == 200
    assert cfg.diameter == 2.0


def test_flag_parsing():
    cfg = parse_config(["--mode", "optimize-nonconvex", "--k", "2",
                        "--n-angles", "100", "--diameter", "2", "--seed", "3"])
    assert cfg.mode == "optimize-nonconvex"
    assert cfg.k == 2
    assert cfg.n_angles == 100
    assert cfg.seed == 3


def test_odd_n_angles_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--n-angles", "201"])


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--mode", "nonsense"])


def test_bad_initial_rejected():
    with pytest.raises(ConfigError):
        RunConfig(initial="circle")


def test_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmode = optimize-nonconvex\n"
                    "n-angles = 100  # inline\nseed = 9\nk = 2\n")
    vals = read_config_file(path)
    assert vals == {"mode": "optimize-nonconvex", "n_angles": 100, "seed": 9,
                    "k": 2}
    cfg = parse_config(["--config", str(path)])
    assert cfg.mode == "optimize-nonconvex" and cfg.n_angles == 100
    assert cfg.seed == 9
    assert cfg.k == 2


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 9\nn-angles = 100\n")
    cfg = parse_config(["--config", str(path), "--seed", "4"])
    assert cfg.seed == 4
    assert cfg.n_angles == 100


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_config_file_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n-angles = many\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config file"),
    ("seed 9\n", "expected 'key = value'"),
    ("verbose = maybe\n", "bad value for verbose"),
], ids=["missing-file", "no-equals", "bad-bool"])
def test_config_file_errors(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        read_config_file(path)


def test_numpy_scalar_config_written(tmp_path):
    # a numpy integer in the config record is written as a JSON number
    run(RunConfig(mode="experiment:slope", n_angles=np.int64(60),
                  out_dir=str(tmp_path)))
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["config"]["n_angles"] == 60


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("STEKLOV_OUT_DIR", str(tmp_path))
    cfg = parse_config([])
    assert cfg.out_dir == str(tmp_path)


def test_exit_code_config_error():
    assert main(["--n-angles", "15"]) == 3


@pytest.mark.parametrize("ks", ["2,0", "1,2", "1,1"],
                         ids=["bad-entry", "list", "repeated"])
def test_bad_k_list_runs_nothing(tmp_path, ks):
    # one k per run: a comma list is a configuration error, not a fan-out
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--mode", "spectrum", "--k", ks,
                 "--out-dir", str(out)] + FAST) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--max-iters", "0"],
    ["--seed=-1"],
    ["--initial=file:{tmp}/missing.csv"],
    ["--initial=file:{tmp}/missing.csv", "--mode", "optimize-nonconvex"],
    ["--initial=file:{tmp}/missing.csv", "--mode", "spectrum"],
    ["--initial=file:{tmp}/short.csv"],
    ["--initial=file:{tmp}/short.csv", "--mode", "optimize-nonconvex"],
    ["--initial=file:{tmp}/nan.csv", "--mode", "spectrum"],
    ["--initial=file:{tmp}/nan.csv", "--mode", "optimize-nonconvex"],
    ["--initial=file:{tmp}/graphs30.csv", "--mode", "optimize-nonconvex"],
    ["--diameter", "nan"],
    ["--diameter", "inf"],
], ids=["max-iters-0", "negative-seed", "missing-support-file",
        "missing-graphs-file", "missing-shape-file", "short-support-file",
        "one-column-graphs-file", "nan-shape-file", "nan-graphs-file",
        "wrong-length-graphs-file", "nan-diameter", "inf-diameter"])
def test_exit_code_bad_input(tmp_path, args):
    # short.csv holds 10 support values where --n-angles asks for 100, and
    # one column where a graphs file needs two; nan.csv, read as a
    # boundary or as graphs p <= q, is valid but for one nan value;
    # graphs30.csv holds 30 graph values where --n-angles asks for 50
    np.savetxt(tmp_path / "short.csv", np.ones(10), delimiter=",")
    np.savetxt(tmp_path / "graphs30.csv", np.tile([-0.1, 0.1], (30, 1)),
               delimiter=",")
    np.savetxt(tmp_path / "nan.csv", [[-0.5, -0.4], [0.5, np.nan],
                                      [-0.5, 0.4]], delimiter=",")
    argv = [a.format(tmp=tmp_path) for a in args]
    assert main(argv + ["--out-dir", str(tmp_path / "out")] + FAST) == 3
    # a run that fails writes nothing, not even its output directory
    assert not (tmp_path / "out").exists()


def test_exit_code_solver_error(tmp_path, capsys):
    # a bow tie is a valid vertex loop that the solver refuses
    path = tmp_path / "bow.csv"
    np.savetxt(path, [[0, 0], [1, 1], [1, 0], [0, 1]], delimiter=",")
    out = tmp_path / "out"
    assert main(["--mode", "spectrum", f"--initial=file:{path}",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "solver error [SelfIntersection]: edges 0 and 2 intersect\n")
    assert not out.exists()


@pytest.mark.parametrize("args,out", [
    (["--mode", "benchmark-disk"], "plain/out"),
    (["--mode", "experiment:slope"], "plain"),
], ids=["under-a-file", "is-a-file"])
def test_unwritable_out_dir_is_config_error(tmp_path, capsys, args, out):
    # a regular file where the output directory or its parent should be;
    # file permissions would not stop a run as root
    (tmp_path / "plain").write_text("")
    assert main(args + ["--n-angles", "60",
                        "--out-dir", str(tmp_path / out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write to ")
    assert "Traceback" not in err


def test_failed_write_leaves_no_file(tmp_path, capsys):
    # a directory where result.json should go: the run refuses before it
    # writes any of shape.csv, shape.svg or spectrum.csv
    (tmp_path / "result.json").mkdir()
    assert main(["--mode", "benchmark-disk", "--n-angles", "60",
                 "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("config error: ")
    assert os.listdir(tmp_path) == ["result.json"]


def test_rerun_replaces_files(tmp_path):
    argv = ["--mode", "benchmark-disk", "--n-angles", "60",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    first = sorted(os.listdir(tmp_path))
    (tmp_path / "spectrum.csv").write_text("stale\n")
    assert main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == first == [
        "result.json", "shape.csv", "shape.svg", "spectrum.csv",
        "timing.json"]
    assert (tmp_path / "spectrum.csv").read_text() != "stale\n"


@pytest.mark.parametrize("mode", ["optimize-convex", "optimize-nonconvex"])
def test_failed_final_solve_writes_nothing(tmp_path, monkeypatch, mode):
    # the ascent succeeds; the final spectrum solve of its best shape fails
    def fail(b, m):
        raise SolverFailure("final solve refused")
    monkeypatch.setattr(steklovmax.cli, "solve_boundary", fail)
    out = tmp_path / "out"
    assert main(["--mode", mode, "--n-angles", "60", "--max-iters", "2",
                 "--out-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag,code", [("--help", 0), ("--no-such-flag", 3)])
def test_command_line_exit_codes(tmp_path, flag, code):
    # argparse exits 0 after printing the usage for --help, which is no
    # configuration error; an unknown flag is one
    proc = subprocess.run(
        [sys.executable, "-m", "steklovmax.cli", flag, "--out-dir",
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=with_src_path(os.environ))
    assert proc.returncode == code
    assert "usage: steklovmax" in proc.stdout + proc.stderr
    assert (proc.stderr == "") == (code == 0)
    assert not (tmp_path / "out").exists()


def test_settable_names(tmp_path):
    # the flags, the config keys and result.json's config record name the
    # same settings; restarts and mesh_h_factor are none of them
    flags = {a.dest for a in _build_argparser()._actions
             if a.option_strings and a.dest not in ("help", "config")}
    assert flags == SETTABLE
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{name} = {getattr(RunConfig(), name)}\n"
                            for name in SETTABLE))
    assert set(read_config_file(path)) == SETTABLE
    out = tmp_path / "out"
    assert main(["--mode", "benchmark-disk", "--out-dir", str(out)]
                + FAST) == 0
    assert set(json.loads((out / "result.json").read_text())["config"]) \
        == SETTABLE
    path.write_text("restarts = 0\n")
    for args in (["--restarts", "0"], ["--mesh-h-factor", "1"],
                 ["--config", str(path)]):
        assert main(args + ["--out-dir", str(tmp_path / "unset")]) == 3
    assert not (tmp_path / "unset").exists()


def test_tol_zero_names_the_flag(capsys):
    assert main(["--tol", "0"]) == 3
    err = capsys.readouterr().err
    assert "tol must be positive" in err and "stop_tol" not in err


def test_timing_records_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["--mode", "spectrum", "--out-dir", str(tmp_path)] + FAST) == 0
    timing = json.loads((tmp_path / "timing.json").read_text())
    env = timing["blas_thread_env"]
    assert set(env) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"}
    assert env["OMP_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
    assert timing["cpu_count"] == os.cpu_count()
    assert timing["wall_time_seconds"] > 0


@pytest.mark.parametrize("user,recorded", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2",
                                     "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": None})],
    ids=["unset", "user-set"])
def test_command_defaults_to_one_blas_thread(tmp_path, user, recorded):
    # a fresh process: the package sets the variables before numpy loads,
    # unless the user set one of them
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-m", "steklovmax.cli", "--mode", "benchmark-disk",
         "--out-dir", str(tmp_path)] + FAST,
        capture_output=True, text=True, timeout=120,
        env=with_src_path({**env, **user}))
    assert proc.returncode == 0, proc.stderr
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["blas_thread_env"] == recorded


def test_suite_runs_at_command_thread_count():
    # conftest loads the package before numpy, so when the user sets no
    # count the tests, like the command, run at one BLAS thread
    assert any(name in os.environ for name in BLAS_THREAD_VARS)


@pytest.mark.parametrize("option", [["--k", "2"], ["--diameter", "3"],
                                    ["--seed", "1"], ["--initial", "flat"],
                                    ["--max-iters", "5"], ["--tol", "1e-6"],
                                    ["--verbose"]],
                         ids=lambda o: o[0])
def test_slope_refuses_options_it_ignores(tmp_path, capsys, option):
    # experiment:slope always runs the unit disk perturbation, so an option
    # it would ignore (and record in result.json) is a configuration error
    out = tmp_path / "out"
    assert main(["--mode", "experiment:slope", "--out-dir", str(out)]
                + FAST + option) == 3
    assert option[0] in capsys.readouterr().err
    assert not out.exists()


def test_slope_refuses_ignored_option_from_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("mode = experiment:slope\ndiameter = 3\n")
    assert main(["--config", str(path), "--out-dir", str(tmp_path)]) == 3
    assert "--diameter" in capsys.readouterr().err
    assert parse_config(["--mode", "experiment:slope"] + FAST).n_angles == 100


# the options a mode does not read: each is a configuration error, since
# the run would ignore it and still record it in result.json.  The
# optimize modes read every option; experiment:slope and
# experiment:multiplicity have their own tests.
UNREAD = {
    "spectrum": ("max_iters", "tol", "seed", "verbose"),
    "benchmark-disk": ("k", "max_iters", "tol", "seed", "verbose", "initial"),
    "experiment:bound": ("max_iters", "tol", "seed", "verbose", "initial"),
}
OPTION_VALUES = {"k": "2", "diameter": "3", "max_iters": "5", "tol": "1e-6",
                 "seed": "1", "verbose": "true", "initial": "flat"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("mode,key", [(m, k) for m, keys in UNREAD.items()
                                      for k in keys])
def test_mode_refuses_options_it_does_not_read(tmp_path, capsys, mode, key,
                                               source):
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        args = [flag] if key == "verbose" else [flag, OPTION_VALUES[key]]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {OPTION_VALUES[key]}\n")
        args = ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["--mode", mode, "--out-dir", str(out)] + FAST + args) == 3
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", UNREAD)
def test_mode_accepts_options_it_reads(mode):
    args = []
    for key, value in OPTION_VALUES.items():
        if key not in UNREAD[mode]:
            args += ["--" + key.replace("_", "-"), value]
    assert parse_config(["--mode", mode] + FAST + args).mode == mode


@pytest.mark.parametrize("source", ["flag", "config"])
def test_multiplicity_refuses_initial_above_k1(tmp_path, capsys, source):
    # at k >= 2 experiment:multiplicity starts from the flat ellipse, so a
    # given --initial would be ignored
    initial = f"file:{tmp_path}/missing.csv"
    if source == "flag":
        args = ["--initial", initial]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"initial = {initial}\n")
        args = ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["--mode", "experiment:multiplicity", "--k", "2",
                 "--out-dir", str(out)] + args) == 3
    assert "--initial" in capsys.readouterr().err
    assert not out.exists()


def test_slope_run(tmp_path):
    assert main(["--mode", "experiment:slope", "--out-dir", str(tmp_path)]
                + FAST) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert {"experiment", "epsilons", "n_angles", "measured_slope",
            "predicted_slope", "passed", "config"} <= set(payload)
    assert payload["experiment"] == "disk-perturbation-slope"
    assert payload["n_angles"] == 100
    assert payload["passed"]


@pytest.mark.parametrize("k", [1, 2], ids=["disk-start", "flat-start"])
def test_multiplicity_run(tmp_path, k):
    assert main(["--mode", "experiment:multiplicity", "--k", str(k),
                 "--n-angles", "60", "--max-iters", "5",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert {"experiment", "k", "eigenvalues", "upper_gap_ratio",
            "lower_gap_ratio", "passed", "objective", "config"} \
        <= set(payload)
    assert payload["experiment"] == "multiplicity"
    assert payload["k"] == k
    assert payload["passed"]
    assert (tmp_path / "shape.csv").exists()


def test_benchmark_disk_run(tmp_path):
    rc = main(["--mode", "benchmark-disk", "--out-dir", str(tmp_path)] + FAST)
    assert rc == 0
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",")
    assert np.allclose(rows[:9, 1], [0, 1, 1, 2, 2, 3, 3, 4, 4], atol=5e-3)
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["passed"]


SHAPE = ["result.json", "shape.csv", "shape.svg", "timing.json"]
SPECTRUM = sorted(SHAPE + ["spectrum.csv"])
SHORT = ["--max-iters", "2"]


ARTIFACTS = [
    ("optimize-convex", SHORT, ["history.csv"] + SPECTRUM),
    ("optimize-nonconvex", SHORT, ["history.csv"] + SPECTRUM),
    ("spectrum", [], SPECTRUM),
    ("benchmark-disk", [], SPECTRUM),
    ("experiment:multiplicity", SHORT, SHAPE),
    ("experiment:slope", [], ["result.json", "timing.json"]),
    ("experiment:bound", [], ["result.json", "timing.json"]),
]


@pytest.mark.parametrize("mode,args,files", ARTIFACTS,
                         ids=[case[0] for case in ARTIFACTS])
def test_artifacts_per_mode(tmp_path, mode, args, files):
    # the exact file set of each mode; experiment:multiplicity runs an
    # ascent but reports no history, so it writes no history.csv
    out = tmp_path / "out"
    assert main(["--mode", mode, "--n-angles", "60", "--out-dir", str(out)]
                + args) == 0
    assert sorted(p.name for p in out.iterdir()) == files


@pytest.mark.parametrize("initial", ["file", "flat"])
def test_nonconvex_start_paths(tmp_path, initial):
    # the ascent's first objective is sigma_1 * D of the start it was given
    opts = RunConfig(mode="optimize-nonconvex", n_angles=60, max_iters=2)
    if initial == "file":
        disk = disk_graphs(opts)
        path = tmp_path / "graphs.csv"
        np.savetxt(path, np.column_stack([0.5 * disk.p, 0.5 * disk.q]),
                   delimiter=",")
        p, q = np.loadtxt(path, delimiter=",", unpack=True)
        start = GraphPair(p, q, opts.diameter)
        initial = f"file:{path}"
    else:
        start = _flat_graphs(opts)
    out = tmp_path / "out"
    assert main(["--mode", "optimize-nonconvex", "--n-angles", "60",
                 "--max-iters", "2", "--initial", initial,
                 "--out-dir", str(out)]) == 0
    history = json.loads((out / "result.json").read_text())["history"]
    assert history[0] == evaluate_graphs(start, opts).objective(1)


def test_spectrum_roundtrip(tmp_path):
    d1 = tmp_path / "a"
    rc = main(["--mode", "spectrum", "--out-dir", str(d1)] + FAST)
    assert rc == 0
    first = json.loads((d1 / "result.json").read_text())
    # reload the emitted shape and re-solve: eigenvalues must reproduce
    d2 = tmp_path / "b"
    rc = main(["--mode", "spectrum", "--initial", f"file:{d1/'shape.csv'}",
               "--out-dir", str(d2)] + FAST)
    assert rc == 0
    second = json.loads((d2 / "result.json").read_text())
    w1 = np.asarray(first["eigenvalues"])
    w2 = np.asarray(second["eigenvalues"])
    assert np.allclose(w1[1:], w2[1:], rtol=1e-6)


def test_spectrum_flat_start_is_flat(tmp_path):
    area = {}
    for initial in ("disk", "flat"):
        out = tmp_path / initial
        assert main(["--mode", "spectrum", "--initial", initial,
                     "--out-dir", str(out)] + FAST) == 0
        area[initial] = BoundaryPolyline.from_csv(out / "shape.csv").area()
    # the flat start is the aspect-0.7 ellipse of the same diameter
    assert area["flat"] < 0.75 * area["disk"]


def test_determinism_bit_identical(tmp_path):
    # a short convex ascent, whose restarts the seed drives
    out = tmp_path / "det"
    args = ["--mode", "optimize-convex", "--n-angles", "60", "--max-iters",
            "5", "--seed", "11", "--out-dir", str(out)]
    assert main(args) == 0
    first = (out / "result.json").read_bytes()
    assert main(args) == 0
    assert (out / "result.json").read_bytes() == first


def test_optimize_convex_quick(tmp_path):
    cfg = RunConfig(mode="optimize-convex", k=1, n_angles=60,
                    max_iters=5, out_dir=str(tmp_path))
    # restarts are baked into OptimOptions defaults; a short run is enough
    payload = run(cfg)
    assert payload["objective"] > 2.0
    assert "support" in payload
    assert (tmp_path / "history.csv").exists()
    assert payload["bound_check"]["passed"]


def test_optimize_nonconvex_quick(tmp_path):
    cfg = RunConfig(mode="optimize-nonconvex", k=1, n_angles=60,
                    max_iters=5, out_dir=str(tmp_path))
    payload = run(cfg)
    assert "graphs" in payload
    assert payload["diameter"] <= 2.0 * (1 + 1e-3)


def test_experiment_bound_mode(tmp_path):
    cfg = RunConfig(mode="experiment:bound", k=1, n_angles=100,
                    out_dir=str(tmp_path))
    payload = run(cfg)
    assert payload["passed"]


@pytest.mark.parametrize("mode", ["spectrum", "benchmark-disk",
                                  "experiment:bound"])
def test_result_records_config(tmp_path, mode):
    assert main(["--mode", mode, "--out-dir", str(tmp_path)] + FAST) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert set(payload["config"]) == SETTABLE
    assert payload["config"]["mode"] == mode
    assert payload["history"] == []


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "steklovmax.cli", "--mode", "benchmark-disk",
         "--out-dir", str(tmp_path)] + FAST,
        capture_output=True, text=True, env=with_src_path(os.environ))
    assert proc.returncode == 0


@pytest.mark.parametrize("mode", ["optimize-convex", "optimize-nonconvex"])
def test_objective_describes_reported_shape(tmp_path, mode):
    # objective is the best iterate's sigma_k * D, the iterate whose
    # eigenvalues, diameter and shape.csv the run reports, not the last
    # restart's final value
    cfg = RunConfig(mode=mode, k=2, n_angles=60, max_iters=5, seed=3,
                    out_dir=str(tmp_path))
    payload = run(cfg)
    assert payload["objective"] == \
        payload["eigenvalues"][2] * payload["diameter"]
    assert payload["objective"] == max(payload["history"])
