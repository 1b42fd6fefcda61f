"""Command-line front end: configuration parsing, run modes, artifacts.

Artifacts per run: result.json (structured results), shape.csv / shape.svg
(final boundary), spectrum.csv (eigenvalues), history.csv
(objective per accepted iterate).  Exit codes: 0 success, 2 solver failure,
3 configuration error.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from .errors import ConfigError, SteklovMaxError
from .experiments import (PerturbationSpec, bound_report, check_bound,
                          multiplicity_report, slope_report)
from .fem import spectrum_to_csv
from .geometry import (AngleGrid, BoundaryPolyline, SupportVector,
                       compute_diameter, reconstruct_boundary)
from .graphs import GraphPair
from .optimize import (OptimOptions, ascend, ascend_nonconvex, disk_graphs,
                       disk_support, solve_boundary)

MODES = ("optimize-convex", "optimize-nonconvex", "spectrum",
         "experiment:slope", "experiment:bound", "experiment:multiplicity",
         "benchmark-disk")


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI invocation."""

    mode: str = "optimize-convex"
    k: int = 1
    n_angles: int = 200
    diameter: float = 2.0
    mesh_h_factor: float = 0.05
    max_iters: int = 500
    tol: float = 1e-7
    seed: int = 0
    initial: str = "disk"
    out_dir: str = "."
    jobs: int = 1
    verbose: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.n_angles % 2 != 0 or self.n_angles < 8:
            raise ConfigError("n_angles must be even and >= 8")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.diameter <= 0 or self.mesh_h_factor <= 0 or self.tol <= 0:
            raise ConfigError("diameter, mesh_h_factor, tol must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        ini = self.initial
        if ini not in ("disk", "flat") and not ini.startswith("file:"):
            raise ConfigError(f"initial must be disk, flat, or file:<path>, "
                              f"got {ini!r}")


_FIELD_TYPES = {
    "mode": str, "k": int, "n_angles": int, "diameter": float,
    "mesh_h_factor": float, "max_iters": int, "tol": float, "seed": int,
    "initial": str, "out_dir": str, "jobs": int, "verbose": bool,
}


def _coerce(key, raw):
    typ = _FIELD_TYPES[key]
    try:
        if typ is bool:
            low = str(raw).strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def read_config_file(path):
    """Plain 'key = value' lines, '#' comments; unknown keys rejected."""
    values = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = text.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="steklovmax",
        description="Maximize Steklov eigenvalues of planar domains "
                    "under a diameter constraint.")
    ap.add_argument("--config", default=None, help="key = value config file")
    ap.add_argument("--mode", choices=MODES)
    ap.add_argument("--k", type=str,
                    help="eigenvalue index, or comma-separated list with --jobs")
    ap.add_argument("--n-angles", type=int, dest="n_angles")
    ap.add_argument("--diameter", type=float)
    ap.add_argument("--mesh-h-factor", type=float, dest="mesh_h_factor")
    ap.add_argument("--max-iters", type=int, dest="max_iters")
    ap.add_argument("--tol", type=float)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--initial")
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--verbose", action="store_true", default=None)
    return ap


def parse_config(argv, config_file=None):
    """RunConfig from flags and optional config file; flags win.

    Returns (config, k_list); k_list has more than one entry only when --k
    was a comma-separated list (fanned out across --jobs threads).
    """
    try:
        args = _build_argparser().parse_args(argv)
    except SystemExit as exc:
        raise ConfigError("bad command line") from exc
    values = {}
    path = args.config or config_file
    if path:
        values.update(read_config_file(path))
    for key in _FIELD_TYPES:
        if key == "k":
            continue
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    k_list = [values.pop("k")] if "k" in values else [1]
    if args.k is not None:
        try:
            k_list = [int(s) for s in str(args.k).split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad value for k: {args.k!r}") from exc
        if not k_list:
            raise ConfigError("k list is empty")
    if "out_dir" not in values:
        values["out_dir"] = os.environ.get("STEKLOV_OUT_DIR", ".")
    cfg = RunConfig(k=k_list[0], **{k: v for k, v in values.items()
                                    if k != "k"})
    return cfg, k_list


def _optim_options(cfg: RunConfig) -> OptimOptions:
    return OptimOptions(k=cfg.k, n_angles=cfg.n_angles, diameter=cfg.diameter,
                        max_iters=cfg.max_iters, stop_tol=cfg.tol,
                        mesh_h_factor=cfg.mesh_h_factor, seed=cfg.seed,
                        verbose=cfg.verbose)


def _flatness(k):
    """Start aspect ratio per eigenvalue index (optima flatten as k grows)."""
    return {1: 0.7, 2: 0.4}.get(k, 0.25)


def _flat_support(opts: OptimOptions, b=None):
    """Flattened-ellipse support start (semi-axes d/2 and b*d/2)."""
    b = _flatness(opts.k) if b is None else b
    theta = 2.0 * np.pi * np.arange(opts.n_angles) / opts.n_angles
    p = np.sqrt(np.cos(theta) ** 2 + (b * np.sin(theta)) ** 2)
    return SupportVector(AngleGrid(opts.n_angles), opts.diameter / 2.0 * p)


def _flat_graphs(opts: OptimOptions, b=None):
    b = _flatness(opts.k) if b is None else b
    d = opts.diameter
    n = opts.n_angles // 2
    x = np.linspace(-d / 2, d / 2, n + 2)[1:-1]
    y = b * np.sqrt(np.maximum((d / 2) ** 2 - x ** 2, 0.0))
    return GraphPair(-y, y, d)


def _initial_support(cfg, opts):
    if cfg.initial == "disk":
        return disk_support(opts)
    if cfg.initial == "flat":
        return _flat_support(opts)
    p = np.loadtxt(cfg.initial[len("file:"):], delimiter=",")
    return SupportVector(AngleGrid(opts.n_angles), np.atleast_1d(p))


def _initial_graphs(cfg, opts):
    if cfg.initial == "disk":
        return disk_graphs(opts)
    if cfg.initial == "flat":
        return _flat_graphs(opts)
    arr = np.loadtxt(cfg.initial[len("file:"):], delimiter=",", ndmin=2)
    return GraphPair(arr[:, 0], arr[:, 1], opts.diameter)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=_json_default, sort_keys=True)
        f.write("\n")


def _write_history(path, history):
    with open(path, "w") as f:
        f.write("iteration,objective\n")
        for i, v in enumerate(history):
            f.write(f"{i},{v:.17g}\n")


def _diameter_payload(rep):
    return {"diameter": rep.diameter,
            "pairs": [[int(i), int(j)] for i, j in rep.pairs]}


def _result_payload(cfg, state, variables_key, variables_value):
    return {
        "config": asdict(cfg),
        "objective": state.objective_history[-1],
        "eigenvalues": [float(x) for x in state.eigenvalues],
        "diameter": state.diameter.diameter,
        "diameter_pairs": _diameter_payload(state.diameter)["pairs"],
        variables_key: variables_value,
        "history": [float(x) for x in state.objective_history],
        "iterations": state.iterations,
        "converged": state.converged,
        "message": state.message,
        "active_rows": state.active_rows,
    }


def _emit_shape(out, b: BoundaryPolyline):
    b.to_csv(os.path.join(out, "shape.csv"))
    b.to_svg(os.path.join(out, "shape.svg"))


def _emit_spectrum(out, cfg, b: BoundaryPolyline, m=9):
    spec = solve_boundary(b, cfg.mesh_h_factor * cfg.diameter, m)
    spectrum_to_csv(spec, os.path.join(out, "spectrum.csv"))
    return spec


def _run_optimize(cfg, out):
    opts = _optim_options(cfg)
    if cfg.mode == "optimize-convex":
        state = ascend(_initial_support(cfg, opts), opts)
        var_key = "support"
        var_val = [float(x) for x in state.variables.p]
    else:
        state = ascend_nonconvex(_initial_graphs(cfg, opts), opts)
        var_key = "graphs"
        var_val = {"p": [float(x) for x in state.variables.p],
                   "q": [float(x) for x in state.variables.q]}
    _emit_shape(out, state.boundary)
    spec = _emit_spectrum(out, cfg, state.boundary, max(cfg.k + 3, 9))
    _write_history(os.path.join(out, "history.csv"),
                   state.objective_history)
    payload = _result_payload(cfg, state, var_key, var_val)
    payload["multiplicity"] = multiplicity_report(state, cfg.k)
    payload["bound_check"] = check_bound(state.boundary, spec, cfg.k)
    return payload


def _run_spectrum(cfg, out):
    if not cfg.initial.startswith("file:"):
        opts = _optim_options(cfg)
        b = reconstruct_boundary(disk_support(opts))
    else:
        b = BoundaryPolyline.from_csv(cfg.initial[len("file:"):])
    spec = _emit_spectrum(out, cfg, b, max(cfg.k + 3, 9))
    _emit_shape(out, b)
    rep = compute_diameter(b)
    return {
        "config": asdict(cfg),
        "objective": float(spec.eigenvalues[cfg.k]) * rep.diameter,
        "eigenvalues": [float(x) for x in spec.eigenvalues],
        "diameter": rep.diameter,
        "diameter_pairs": _diameter_payload(rep)["pairs"],
        "history": [],
    }


def _run_benchmark_disk(cfg, out):
    opts = _optim_options(cfg)
    b = reconstruct_boundary(disk_support(opts))
    spec = _emit_spectrum(out, cfg, b, 9)
    _emit_shape(out, b)
    analytic = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4], dtype=float)
    measured = np.asarray(spec.eigenvalues[:9]) * (cfg.diameter / 2.0)
    err = np.abs(measured[1:] - analytic[1:]) / analytic[1:]
    return {
        "config": asdict(cfg),
        "eigenvalues": [float(x) for x in spec.eigenvalues],
        "scaled_eigenvalues": [float(x) for x in measured],
        "analytic": [float(x) for x in analytic],
        "max_rel_error": float(err.max()),
        "passed": bool(err.max() < 5e-3),
        "history": [],
    }


def _run_experiment(cfg, out):
    name = cfg.mode.split(":", 1)[1]
    if name == "slope":
        ps = PerturbationSpec(1.0, 1.0, (0.005, 0.01, 0.02))
        rep = slope_report(ps, n_angles=cfg.n_angles,
                           mesh_h_factor=cfg.mesh_h_factor)
    elif name == "bound":
        opts = _optim_options(cfg)
        triples = []
        for sv in (disk_support(opts), _flat_support(opts)):
            b = reconstruct_boundary(sv)
            triples.append((b, solve_boundary(b, opts.target_h, cfg.k + 2),
                            cfg.k))
        rep = bound_report(triples)
    else:
        opts = _optim_options(cfg)
        initial = (_initial_support(cfg, opts) if cfg.k == 1
                   else _flat_support(opts))
        state = ascend(initial, opts)
        rep = multiplicity_report(state, cfg.k)
        rep["objective"] = state.objective_history[-1]
        _emit_shape(out, state.boundary)
    rep = dict(rep)
    rep["config"] = asdict(cfg)
    rep.setdefault("history", [])
    return rep


def run(cfg: RunConfig):
    """Execute one configured run; returns the result payload written to
    result.json (wall time added as a separate key)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.time()
    if cfg.mode in ("optimize-convex", "optimize-nonconvex"):
        payload = _run_optimize(cfg, cfg.out_dir)
    elif cfg.mode == "spectrum":
        payload = _run_spectrum(cfg, cfg.out_dir)
    elif cfg.mode == "benchmark-disk":
        payload = _run_benchmark_disk(cfg, cfg.out_dir)
    else:
        payload = _run_experiment(cfg, cfg.out_dir)
    _write_json(os.path.join(cfg.out_dir, "result.json"), payload)
    timing = dict(payload)
    timing["wall_time_seconds"] = time.time() - t0
    _write_json(os.path.join(cfg.out_dir, "timing.json"),
                {"wall_time_seconds": timing["wall_time_seconds"]})
    return payload


def _run_one_k(cfg, k, namespaced):
    sub = os.path.join(cfg.out_dir, f"k{k}") if namespaced else cfg.out_dir
    return run(replace(cfg, k=k, out_dir=sub))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg, k_list = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        if len(k_list) == 1:
            _run_one_k(cfg, k_list[0], namespaced=False)
        else:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = [pool.submit(_run_one_k, cfg, k, True)
                           for k in k_list]
                for fut in futures:
                    fut.result()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SteklovMaxError as exc:
        print(f"solver error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
