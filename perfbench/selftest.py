"""Harness self-test at toy size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the toy size (N=16, coarse mesh,
2 iterations per ascent pass), untraced and traced, and checks that the last
output line holds exactly the metrics BENCHMARK.json names, each with its
unit and a finite value, and that every unit passed its checks.  Then runs
the benchmark in a directory holding only BENCHMARK.json and perfbench/ and
checks that it fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
TIMEOUT_S = 300


def run(cwd, workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--toy"]
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=cwd, timeout=TIMEOUT_S)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def problems(workload, trace, spec):
    out = run(ROOT, workload, trace)
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr[-2000:]}"]
    result = result_of(out)
    if result is None:
        return ["last line is not JSON"]
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or \
            not result.get("attempted", 0) >= 1:
        found.append(f"units failed: {out.stderr[-2000:]}")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = result.get("metrics", {})
    for name in sorted(set(want) | set(got)):
        if name not in got:
            found.append(f"missing metric {name}")
        elif name not in want:
            found.append(f"unlisted metric {name}")
        elif got[name].get("unit") != want[name]:
            found.append(f"{name}: unit {got[name].get('unit')!r}, "
                         f"BENCHMARK.json says {want[name]!r}")
        elif not isinstance(got[name].get("value"), (int, float)) or \
                not math.isfinite(got[name]["value"]):
            found.append(f"{name}: value {got[name].get('value')!r}")
    return found


def bare_checkout_problems(workload):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(tmp, workload, 0)
    if out.returncode == 0 or result_of(out) is not None:
        return ["benchmark succeeded without the package sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = problems(workload, trace, spec)
            failed |= bool(found)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAIL'}")
            for msg in found:
                print(f"  {msg}")
    found = bare_checkout_problems(spec["workloads"][0]["name"])
    failed |= bool(found)
    print(f"bare checkout: {'ok' if not found else 'FAIL'}")
    for msg in found:
        print(f"  {msg}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
