"""Command-line front end: configuration parsing, run modes, artifacts.

Artifacts per run: result.json (structured results), timing.json (wall
time and BLAS thread settings), shape.csv / shape.svg (final boundary),
spectrum.csv (eigenvalues), history.csv (objective per accepted
iterate).  Each mode only computes; run writes every file after the
computation, into a temporary directory inside the output directory, and
then moves each into place, so a failed run leaves nothing.  Exit codes:
0 success, 2 solver failure, 3 configuration error or unwritable output
directory.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields

import numpy as np

from . import BLAS_THREAD_VARS
from .errors import ConfigError, SteklovMaxError
from .experiments import (PerturbationSpec, bound_report, check_bound,
                          multiplicity_report, slope_report)
from .geometry import (AngleGrid, BoundaryPolyline, SupportVector,
                       compute_diameter, reconstruct_boundary)
from .graphs import GraphPair
from .optimize import (OptimOptions, ascend, ascend_nonconvex, disk_graphs,
                       disk_support, solve_boundary)

# the OptimOptions fields a run leaves at their defaults: no flag, config
# key or result.json entry names them
UNSET = ("restarts", "mesh_h_factor")


@dataclass(frozen=True)
class RunConfig(OptimOptions):
    """Validated inputs of one CLI invocation: the ascent's OptimOptions
    plus the run mode, the start shape and the output directory."""

    mode: str = "optimize-convex"
    initial: str = "disk"
    out_dir: str = "."

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode: {self.mode!r}")
        ini = self.initial
        if ini not in ("disk", "flat") and not ini.startswith("file:"):
            raise ConfigError(f"initial must be disk, flat, or file:<path>, "
                              f"got {ini!r}")
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# the settable names: each is a flag, a config key and a key of
# result.json's config record
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)
                if f.name not in UNSET}
# the options a mode may read: all but mode and out_dir
_EVERY = tuple(key for key in _FIELD_TYPES if key not in ("mode", "out_dir"))


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
                    "under a diameter constraint.  Modes: "
                    + ", ".join(MODES) + ".")
    ap.add_argument("--config", default=None, help="key = value config file")
    for key, typ in _FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            ap.add_argument(flag, action="store_true", default=None)
        else:
            ap.add_argument(flag, type=typ)
    return ap


def _ignored(values):
    """The given options that the run's mode does not read."""
    mode = values.get("mode", RunConfig.mode)
    reads = MODES[mode][0] if mode in MODES else _EVERY
    if mode == "experiment:multiplicity" and \
            values.get("k", RunConfig.k) >= 2:
        reads = tuple(key for key in reads if key != "initial")
    return [key for key in values if key in _EVERY and key not in reads]


def parse_config(argv):
    """RunConfig from flags and optional config file; flags win."""
    try:
        args = _build_argparser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after printing --help, which is no error
        if exc.code:
            raise ConfigError("bad command line") from exc
        raise
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    given = _ignored(values)
    if given:
        names = ", ".join("--" + key.replace("_", "-") for key in given)
        raise ConfigError(f"{values['mode']} does not read {names}")
    if "out_dir" not in values:
        values["out_dir"] = os.environ.get("STEKLOV_OUT_DIR", ".")
    return RunConfig(**values)


def _flatness(k):
    """Start aspect ratio per eigenvalue index (optima flatten as k grows)."""
    return {1: 0.7, 2: 0.4}.get(k, 0.25)


def _flat_support(opts: OptimOptions):
    """Flattened-ellipse support start (semi-axes d/2 and b*d/2)."""
    b = _flatness(opts.k)
    theta = 2.0 * np.pi * np.arange(opts.n_angles) / opts.n_angles
    p = np.sqrt(np.cos(theta) ** 2 + (b * np.sin(theta)) ** 2)
    return SupportVector(AngleGrid(opts.n_angles), opts.diameter / 2.0 * p)


def _flat_graphs(opts: OptimOptions):
    """The disk's graphs scaled vertically by _flatness(k)."""
    b = _flatness(opts.k)
    disk = disk_graphs(opts)
    return GraphPair(b * disk.p, b * disk.q, disk.d)


def _read_initial(cfg, parse):
    """parse(path) of a file:<path> start; an unreadable or malformed file
    is a configuration error."""
    path = cfg.initial[len("file:"):]
    try:
        return parse(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad initial file {path}: {exc}") from exc


def _initial_support(cfg):
    if cfg.initial == "disk":
        return disk_support(cfg)
    if cfg.initial == "flat":
        return _flat_support(cfg)
    return _read_initial(cfg, lambda path: SupportVector(
        AngleGrid(cfg.n_angles), np.loadtxt(path, delimiter=",", ndmin=1)))


def _initial_graphs(cfg):
    if cfg.initial == "disk":
        return disk_graphs(cfg)
    if cfg.initial == "flat":
        return _flat_graphs(cfg)

    def parse(path):
        p, q = np.loadtxt(path, delimiter=",", ndmin=2, usecols=(0, 1),
                          unpack=True)
        if len(p) != cfg.n_angles // 2:
            raise ValueError(f"{len(p)} rows where n_angles "
                             f"{cfg.n_angles} asks for {cfg.n_angles // 2}")
        return GraphPair(p, q, cfg.diameter)
    return _read_initial(cfg, parse)


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


def _write_series(path, values, header=""):
    """values as index,value rows, after a header line when one is given."""
    rows = np.column_stack([np.arange(len(values)), values])
    np.savetxt(path, rows, delimiter=",", fmt=("%d", "%.17g"),
               header=header, comments="")


def _optimized(cfg, state, variables):
    """An ascent's result, with its reported shape's spectrum solved again."""
    spec = solve_boundary(state.boundary, max(cfg.k + 3, 9))
    return {
        **variables,
        # sigma_k * D of the reported iterate, the run's highest
        "objective": max(state.objective_history),
        "eigenvalues": state.eigenvalues,
        "diameter": state.diameter.diameter,
        "diameter_pairs": state.diameter.pairs,
        "history": state.objective_history,
        "iterations": state.iterations,
        "converged": state.converged,
        "message": state.message,
        "active_rows": state.active_rows,
        "multiplicity": multiplicity_report(state, cfg.k),
        "bound_check": check_bound(state.boundary, spec, cfg.k),
    }, state.boundary, spec.eigenvalues


def _optimize_convex(cfg):
    state = ascend(_initial_support(cfg), cfg)
    return _optimized(cfg, state, {"support": state.variables.p})


def _optimize_nonconvex(cfg):
    state = ascend_nonconvex(_initial_graphs(cfg), cfg)
    return _optimized(cfg, state, {"graphs": {"p": state.variables.p,
                                              "q": state.variables.q}})


def _spectrum(cfg):
    b = (_read_initial(cfg, BoundaryPolyline.from_csv)
         if cfg.initial.startswith("file:")
         else reconstruct_boundary(_initial_support(cfg)))
    spec = solve_boundary(b, max(cfg.k + 3, 9))
    rep = compute_diameter(b)
    return {
        "objective": float(spec.eigenvalues[cfg.k]) * rep.diameter,
        "eigenvalues": spec.eigenvalues,
        "diameter": rep.diameter,
        "diameter_pairs": rep.pairs,
    }, b, spec.eigenvalues


def _benchmark_disk(cfg):
    b = reconstruct_boundary(disk_support(cfg))
    spec = solve_boundary(b, 9)
    analytic = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4], dtype=float)
    measured = np.asarray(spec.eigenvalues[:9]) * (cfg.diameter / 2.0)
    err = np.abs(measured[1:] - analytic[1:]) / analytic[1:]
    return {
        "eigenvalues": spec.eigenvalues,
        "scaled_eigenvalues": measured,
        "analytic": analytic,
        "max_rel_error": float(err.max()),
        "passed": bool(err.max() < 5e-3),
    }, b, spec.eigenvalues


def _slope(cfg):
    ps = PerturbationSpec(1.0, 1.0, (0.005, 0.01, 0.02))
    return slope_report(ps, n_angles=cfg.n_angles), None, None


def _bound(cfg):
    shapes = [reconstruct_boundary(sv)
              for sv in (disk_support(cfg), _flat_support(cfg))]
    return bound_report([(b, solve_boundary(b, cfg.k + 2), cfg.k)
                         for b in shapes]), None, None


def _multiplicity(cfg):
    start = _initial_support(cfg) if cfg.k == 1 else _flat_support(cfg)
    state = ascend(start, cfg)
    return {**multiplicity_report(state, cfg.k),
            "objective": max(state.objective_history)}, state.boundary, None


# mode: (the options it reads besides mode and out_dir, its function).
# The function maps a RunConfig to (payload, shape, eigenvalues): the
# result.json payload, the BoundaryPolyline of shape.csv / shape.svg and
# the eigenvalues of spectrum.csv, None for a file the mode does not
# write; it reads its own start shape and writes nothing.  A run refuses
# any option its mode does not read, which it would ignore yet record in
# result.json.  A mode reads an option if any of its paths does (spectrum
# reads n_angles and diameter, which a file: start leaves unused), and
# experiment:multiplicity reads initial only at k = 1: at k >= 2 it starts
# from the flat ellipse.
MODES = {
    "optimize-convex": (_EVERY, _optimize_convex),
    "optimize-nonconvex": (_EVERY, _optimize_nonconvex),
    "spectrum": (("k", "n_angles", "diameter", "initial"), _spectrum),
    "experiment:slope": (("n_angles",), _slope),
    "experiment:bound": (("k", "n_angles", "diameter"), _bound),
    "experiment:multiplicity": (_EVERY, _multiplicity),
    "benchmark-disk": (("n_angles", "diameter"), _benchmark_disk),
}


def run(cfg: RunConfig):
    """Execute one configured run and write its files; returns the
    result.json payload, which records the run's config and its objective
    history (empty when no ascent runs).  The mode computes before the
    output directory is made, and the files are written into a temporary
    directory inside it and then moved into place, so a failed run leaves
    nothing."""
    t0 = time.time()
    payload, shape, eigenvalues = MODES[cfg.mode][1](cfg)
    payload["config"] = {key: getattr(cfg, key) for key in _FIELD_TYPES}
    payload.setdefault("history", [])
    # file name: its writer, called with the path to write
    files = {}
    if shape is not None:
        files["shape.csv"] = shape.to_csv
        files["shape.svg"] = shape.to_svg
    if eigenvalues is not None:
        files["spectrum.csv"] = lambda path: _write_series(path, eigenvalues)
    if payload["history"]:
        files["history.csv"] = lambda path: _write_series(
            path, payload["history"], "iteration,objective")
    files["result.json"] = lambda path: _write_json(path, payload)
    # the BLAS thread count changes the ascent's rounding, so timing.json
    # records the settings (null when unset)
    files["timing.json"] = lambda path: _write_json(
        path, {"wall_time_seconds": time.time() - t0,
               "blas_thread_env": {name: os.environ.get(name)
                                   for name in BLAS_THREAD_VARS},
               "cpu_count": os.cpu_count()})
    out = cfg.out_dir
    for name in files:
        path = os.path.join(out, name)
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ConfigError(f"cannot write to {out}: {path} is not a "
                              "regular file")
    try:
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            for name, write in files.items():
                write(os.path.join(tmp, name))
            for name in files:
                os.replace(os.path.join(tmp, name), os.path.join(out, name))
    except OSError as exc:
        raise ConfigError(f"cannot write to {out}: {exc}") from exc
    return payload


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        run(parse_config(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SteklovMaxError as exc:
        print(f"solver error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
