"""Regenerate perfbench/reference.json from the package in src/.

    python3 perfbench/make_reference.py

Writes the spectrum workload's shape pool (seeded, feasible support vectors
of diameter 2 around the aspect-0.6 ellipse), the reference eigenvalues of
every pool shape and of the disk at the spectrum workload's size, and the
best objective of each ascent workload's first pass, which is the same for
every seed.  Regenerate only when a change is meant to move these values,
and say so in the change.
"""

import dataclasses
import json
import sys

import run  # fixes the BLAS thread count before numpy loads

import numpy as np  # noqa: E402

POOL_SEED = 20200430
POOL_SIZE = 12
HARMONICS = (2, 3, 4, 5)
AMPLITUDE = 0.02


def pool_support(rng, workloads, grid, cset):
    """Ellipse support plus small random harmonics, projected feasible."""
    sm = workloads.sm
    p = workloads.flat_support(grid.n_angles, workloads.DIAMETER,
                               workloads.POOL_ASPECT).p
    for m in HARMONICS:
        p = p + rng.uniform(-AMPLITUDE, AMPLITUDE) * np.cos(
            m * grid.theta + rng.uniform(0.0, 2.0 * np.pi))
    return sm.project(p, cset)


def main():
    run.import_package()
    import workloads
    full = workloads.FULL
    spectrum = workloads.Spectrum(full, [])
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for j in range(POOL_SIZE):
        p = pool_support(rng, workloads, spectrum.grid, spectrum.cset)
        spec = spectrum.solve(p)[1]
        pool.append({"support": p.tolist(),
                     "eigenvalues": np.asarray(spec.eigenvalues).tolist()})
        print(f"pool{j}: {pool[-1]['eigenvalues']}", file=sys.stderr)
    disk = spectrum.solve(workloads.disk())[1]
    objective = {}
    for name, params in workloads.ASCENTS.items():
        ascent = workloads.Ascent(size=full, seed=0, reference=None,
                                  **params)
        opts = dataclasses.replace(ascent.opts, restarts=0)
        ascend = (workloads.sm.ascend if ascent.convex
                  else workloads.sm.ascend_nonconvex)
        objective[name] = max(ascend(ascent.start, opts).objective_history)
        print(f"{name}: {objective[name]!r}", file=sys.stderr)
    out = {
        "size": dataclasses.asdict(full),
        "pool_seed": POOL_SEED,
        "disk": np.asarray(disk.eigenvalues).tolist(),
        "objective": objective,
        "pool": pool,
    }
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
