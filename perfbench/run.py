"""steklovmax benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload ascent-convex-k2 --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run is a closed loop in one process: one unit (one
ascent, or one shape solve) at a time, with BLAS fixed to one thread.  It
prints the environment, a table of every metric with unit, better
direction and sample count, and as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; nothing is
wrapped.  ``--trace 1`` alternates untraced and traced runs of the same
units and reports the per-layer metrics, including the tracing overhead.
"""

import os

# Fix the BLAS thread count before numpy loads.  On a 2-core machine two
# OpenBLAS threads made the ascent slower and noisier than one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-ups in fresh processes besides this one, spread between the blocks so
# that a burst of load on the machine skews at most one of them
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

# metric -> (unit, better) for the printed table; README.md defines them
UNITS = {
    "setup_s": ("s", "lower"),
    "eval_rel_p50": ("ratio", "lower"),
    "wall_rel": ("ratio", "lower"),
    "kernel_ms_p50": ("ms", "lower"),
    "eval_ms_p50": ("ms", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "time_to_target_s": ("s", "lower"),
    "objective": ("1", "higher"),
    "ref_rel_err": ("1", "lower"),
    "disk_rel_err": ("1", "lower"),
    "diameter_excess": ("1", "lower"),
    "failed_frac": ("1", "lower"),
}
TAIL = ("ms", "lower")      # eval_ms_pNN


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs for the harness self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, then print the set-up seconds")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import steklovmax from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "steklovmax", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from the root of a "
                         "steklovmax source checkout")
    sys.path.insert(0, SRC)
    import steklovmax
    if os.path.realpath(steklovmax.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported {steklovmax.__file__}, "
                         f"expected {init}")
    return steklovmax


def set_up(args):
    """Import, make the inputs from the seed, one warm-up evaluation."""
    import_package()
    sys.path.insert(0, HERE)
    import workloads
    size = workloads.TOY if args.toy else workloads.FULL
    workload = workloads.make(args.workload, args.seed, size)
    workload.warm_up()
    return workload, time.perf_counter() - T_START


def probe_setup(args):
    """Set-up seconds of a fresh interpreter running this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.toy:
        cmd.append("--toy")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy
    import steklovmax
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "steklovmax": steklovmax.__version__,
    }


def run_unit(workload, i, tracer, results):
    """Run unit i; a unit that raises or fails a check counts as failed."""
    try:
        unit = workload.run(i, tracer)
    except Exception:
        traceback.print_exc()
        results.append(None)
        return None
    for msg in unit.failures:
        print(f"check failed in unit {i}: {msg}", file=sys.stderr)
    results.append(unit)
    return unit


def measure(workload, seconds, tracer=None, after_block=None):
    """Run blocks of units until the next block would take the measured
    time past `seconds`; call `after_block()` after each block.

    With a tracer, each block runs untraced and then traced on the same
    inputs.  Returns the untraced and the traced results.
    """
    plain, traced = [], []
    block_s = []
    n = workload.units_per_block
    while not block_s or sum(block_s) + statistics.median(block_s) <= seconds:
        start = time.perf_counter()
        first = len(block_s) * n
        for i in range(first, first + n):
            run_unit(workload, i, None, plain)
        if tracer is not None:
            with tracer.installed():
                for i in range(first, first + n):
                    run_unit(workload, i, tracer, traced)
        block_s.append(time.perf_counter() - start)
        if after_block is not None:
            after_block()
    return plain, traced


def ok_units(results):
    return [u for u in results if u is not None and not u.failures]


def passed_blocks(workload, results):
    """The blocks whose units all passed."""
    n = workload.units_per_block
    blocks = [results[i:i + n] for i in range(0, len(results), n)]
    return [b for b in blocks if len(ok_units(b)) == len(b)]


def block_walls(workload, results):
    """Wall time of every block whose units all passed."""
    return [sum(u.wall_s for u in b)
            for b in passed_blocks(workload, results)]


def block_ratios(workload, results):
    """Every passed block's wall time over its median kernel."""
    return [sum(u.wall_s for u in b) / statistics.median(
        k for u in b for k in u.values["kernel_s"])
        for b in passed_blocks(workload, results)]


def end_to_end(workload, results, setup_samples):
    """Every metric of the untraced run: {name: (value, samples)}."""
    good = ok_units(results)
    walls = block_walls(workload, results)
    evals = sorted(1e3 * s for u in good for s in u.values["eval_s"])
    kernels = [1e3 * k for u in good for k in u.values["kernel_s"]]
    ratios = [e / k for u in good
              for e, k in zip(u.values["eval_s"], u.values["kernel_s"])]
    blocks = block_ratios(workload, results)
    out = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "eval_rel_p50": (statistics.median(ratios), len(ratios)),
        "wall_rel": (statistics.median(blocks), len(blocks)),
        "kernel_ms_p50": (statistics.median(kernels), len(kernels)),
        "eval_ms_p50": (statistics.median(evals), len(evals)),
        "evals_per_s": (len(evals) / sum(u.wall_s for u in results if u),
                        len(evals)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "failed_frac": ((len(results) - len(good)) / len(results),
                        len(results)),
    }
    if len(evals) >= 20:
        # the highest percentile with at least ten samples beyond it
        q = 100 * (1 - 10 / len(evals))
        out[f"eval_ms_p{int(q)}"] = (evals[int(len(evals) * q / 100)],
                                     len(evals))
    for key, agg in (("objective", statistics.median),
                     ("time_to_target_s", statistics.median),
                     ("ref_rel_err", max), ("disk_rel_err", max),
                     ("diameter_excess", max)):
        values = [u.values[key] for u in good if key in u.values]
        if values:
            out[key] = (agg(values), len(values))
    return out


def per_layer(workload, tracer, plain, traced):
    """Per-layer metrics of the traced units: {name: (value, unit)}."""
    good = ok_units(traced)
    wall = sum(u.wall_s for u in traced if u)
    accepted = sum(u.values.get("accepted", 0) for u in good)
    passes = workload.passes_per_unit * len(traced)
    out = tracer.metrics(wall, accepted, passes)
    walls = block_walls(workload, traced)
    base = block_walls(workload, plain)
    out["trace.overhead_s"] = (
        statistics.median(walls) - statistics.median(base)
        if walls and base else 0.0, "s")
    return out


def print_table(rows):
    print(f"{'metric':<38} {'value':>14} {'unit':<6} {'better':<7} samples")
    for name, value, unit, better, samples in rows:
        print(f"{name:<38} {value:>14.6g} {unit:<6} {better:<7} {samples}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workload, setup_s = set_up(args)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import workloads
    size = workloads.TOY if args.toy else workloads.FULL
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "size": dataclasses.asdict(size)}))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tracer = None
    setup = [setup_s]

    def probe():
        if len(setup) <= SETUP_PROBES:
            setup.append(probe_setup(args))

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced = measure(workload, args.seconds, tracer,
                            None if args.trace else probe)
    if not block_walls(workload, plain):
        raise SystemExit("error: no block passed its checks")
    attempted = len(plain) + len(traced)
    failed = attempted - len(ok_units(plain)) - len(ok_units(traced))
    if args.trace:
        values = per_layer(workload, tracer, plain, traced)
        rows = [(m["name"], *values[m["name"]], m["better"], len(traced))
                for m in spec["per_layer"]]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        while len(setup) <= SETUP_PROBES:
            probe()
        e2e = end_to_end(workload, plain, setup)
        rows = [(name, value, *UNITS.get(name, TAIL), samples)
                for name, (value, samples) in e2e.items()]
        values = {name: (value, UNITS.get(name, TAIL)[0])
                  for name, (value, _) in e2e.items()}
        names = [m["name"] for m in spec["end_to_end"]]
    print_table(rows)
    metrics = {name: {"value": values[name][0], "unit": values[name][1]}
               for name in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
