"""Acceptance gate: the nine end-to-end criteria, one pass/fail line each.

Optimizer-backed criteria run at N = 100 with the published tolerances.
The k = 4..7 targets are nightly-marked (skipped by default).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.spatial.distance import pdist

from steklovmax import (AngleGrid, OptimOptions, PerturbationSpec,
                        SupportVector, ascend, ascend_nonconvex,
                        build_constraint_set, cluster_indices,
                        compute_diameter, derive_bound_constant,
                        disk_perturbation_slope, disk_support, project,
                        reconstruct_boundary, support_gradient)
from steklovmax.cli import _flat_graphs, _flat_support, main
from steklovmax.geometry import BoundaryPolyline
import conftest
from conftest import (disk_boundary, ellipse_boundary, solve_boundary,
                      vertex_derivative, vertex_normals)

CONVEX_TARGETS = {1: 2.13536, 2: 4.73269, 3: 7.33378}
NONCONVEX_TARGETS = {1: 2.13623, 2: 4.92925, 3: 7.76108}
NIGHTLY_TARGETS = {4: 9.96641, 5: 12.5721, 6: 15.1812, 7: 17.8068}
TOLS = {1: 0.02, 2: 0.03, 3: 0.03}


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def _options(k, max_iters=300, restarts=None):
    if restarts is None:
        restarts = 3 if k == 1 else 2
    return OptimOptions(k=k, n_angles=100, max_iters=max_iters,
                        restarts=restarts)


def _collect(iterates):
    def cb(it, x, ev):
        iterates.append((float(ev.eigenvalues[1]), np.asarray(ev.eigenvalues),
                         abs(ev.boundary.area()), ev.diameter.diameter))
    return cb


@pytest.fixture(scope="module")
def convex_runs():
    """Optimized convex shapes for k = 1, 2, 3 with per-iterate records."""
    runs = {}
    for k in (1, 2, 3):
        opts = _options(k)
        initial = disk_support(opts) if k == 1 else _flat_support(opts)
        iterates = []
        st = ascend(initial, opts, callback=_collect(iterates))
        runs[k] = (st, iterates)
    return runs


@pytest.fixture(scope="module")
def nonconvex_runs():
    runs = {}
    for k in (1, 2, 3):
        opts = _options(k, max_iters=300, restarts=2)
        iterates = []
        st = ascend_nonconvex(_flat_graphs(opts), opts,
                              callback=_collect(iterates))
        runs[k] = (st, iterates)
    return runs


# ----------------------------------------------------------------- criteria

def test_criterion_1_disk_spectrum_benchmark():
    spec = solve_boundary(disk_boundary(200), m=9)
    analytic = np.array([1, 1, 2, 2, 3, 3, 4, 4], dtype=float)
    w = np.asarray(spec.eigenvalues[1:9])
    rel = float(np.max(np.abs(w - analytic) / analytic))
    report(1, rel < 5e-3, f"disk spectrum max rel err {rel:.2e} < 0.5%")


def test_criterion_2_homogeneity():
    b = ellipse_boundary()
    w1 = np.asarray(solve_boundary(b, 5).eigenvalues)
    worst = 0.0
    for t in (0.5, 2.0):
        scaled = BoundaryPolyline(b.vertices * t)
        w2 = np.asarray(solve_boundary(scaled, 5).eigenvalues)
        worst = max(worst, float(np.max(np.abs(w2 * t - w1))))
    report(2, worst < 1e-9, f"sigma_k(t Omega) t deviation {worst:.2e} < 1e-9")


def test_criterion_3_gradient_correctness():
    fd_step = 1e-5
    worst = 0.0
    # support-gradient entries, 10 seeded indices on the ellipse
    g = AngleGrid(100)
    p = np.sqrt(np.cos(g.theta) ** 2 + (0.6 * np.sin(g.theta)) ** 2)
    sv = SupportVector(g, p)
    b = reconstruct_boundary(sv)
    spec = solve_boundary(b, 4)
    grad = support_gradient(spec, 1, b)
    sig = float(spec.eigenvalues[1])
    rng = np.random.default_rng(7)
    for i in rng.choice(100, size=10, replace=False):
        p2 = p.copy()
        p2[i] += fd_step
        b2 = reconstruct_boundary(SupportVector(g, p2))
        fd = (float(solve_boundary(b2, 4).eigenvalues[1]) - sig) / fd_step
        worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 0.1))
    # shape-derivative values, 10 random smooth directions
    be = ellipse_boundary()
    spec_e = solve_boundary(be, 4)
    sig_e = float(spec_e.eigenvalues[1])
    nrm = vertex_normals(be)
    ang = np.arctan2(be.vertices[:, 1] / 0.6, be.vertices[:, 0])
    for _ in range(10):
        c = rng.normal(size=5)
        vn = (c[0] + c[1] * np.cos(ang) + c[2] * np.sin(ang)
              + c[3] * np.cos(2 * ang) + c[4] * np.sin(2 * ang))
        d = vertex_derivative(spec_e, 1, be, vn[:, None] * nrm)
        moved = BoundaryPolyline(be.vertices + fd_step * vn[:, None] * nrm)
        fd = (float(solve_boundary(moved, 4).eigenvalues[1]) - sig_e) / fd_step
        worst = max(worst, abs(d - fd) / max(abs(fd), 0.1))
    report(3, worst < 3e-2, f"gradient vs FD worst rel err {worst:.2e} < 3e-2")


def test_criterion_4_convex_optima(convex_runs):
    details = []
    ok = True
    for k in (1, 2, 3):
        st, _ = convex_runs[k]
        obj = max(st.objective_history)
        target = CONVEX_TARGETS[k]
        rel = abs(obj - target) / target
        ok &= rel < TOLS[k]
        details.append(f"k={k}: {obj:.5f} vs {target} ({rel * 100:.2f}%)")
    report(4, ok, "; ".join(details))


def test_criterion_5_multiplicity(convex_runs):
    details = []
    ok = True
    for k in (1, 2, 3):
        st, _ = convex_runs[k]
        w = np.asarray(st.eigenvalues)
        gap = float((w[k + 1] - w[k]) / w[k])
        ok &= gap < 0.02
        details.append(f"k={k}: gap {gap:.2e}")
    report(5, ok, "; ".join(details))


def test_criterion_6a_disk_escape(convex_runs):
    st, _ = convex_runs[1]
    excess = max(st.objective_history) - 2.0
    report("6a", excess > 0.05,
           f"from the disk, sigma_1 D - 2 = {excess:.4f} > 0.05")


def test_criterion_6b_perturbation_slope():
    ps = PerturbationSpec(1.0, 1.0, (0.005, 0.01, 0.02))
    measured, predicted = disk_perturbation_slope(ps, n_angles=200)
    rel = abs(measured - predicted) / abs(predicted)
    report("6b", measured > 0 and rel < 0.10,
           f"slope {measured:.4f} vs predicted {predicted} ({rel * 100:.1f}%)")


def test_criterion_7_bound_invariant(convex_runs, nonconvex_runs):
    checked = 0
    worst = 0.0
    ok = True
    for runs in (convex_runs, nonconvex_runs):
        for k, (st, iterates) in runs.items():
            c = derive_bound_constant(k)
            for _, eigs, area, diam in iterates:
                margin = float(eigs[k]) / (c * area / diam**3)
                worst = max(worst, margin)
                ok &= margin <= 1.0
                checked += 1
    # benchmark domains
    for b in (disk_boundary(200), ellipse_boundary()):
        spec = solve_boundary(b, 4)
        for k in (1, 2):
            c = derive_bound_constant(k)
            area = abs(b.area())
            diam = compute_diameter(b).diameter
            margin = float(spec.eigenvalues[k]) / (c * area / diam**3)
            worst = max(worst, margin)
            ok &= margin <= 1.0
            checked += 1
    report(7, ok, f"sigma_k <= 2(k+1)^3 |Omega|/D^3 on {checked} domains "
                  f"(worst margin {worst:.3f})")


def test_cluster_window_ends_before_last_pair(convex_runs, nonconvex_runs):
    # evaluate_boundary solves one pair past every cluster at sigma_k, the
    # margin cluster_indices needs to see the whole cluster
    for runs in (convex_runs, nonconvex_runs):
        for k, (_, iterates) in runs.items():
            for _, w, _, _ in iterates:
                _, hi = cluster_indices(SimpleNamespace(eigenvalues=w), k)
                assert hi < len(w) - 1


def test_criterion_8_nonconvex_optima(nonconvex_runs):
    details = []
    ok = True
    for k in (1, 2, 3):
        st, _ = nonconvex_runs[k]
        obj = max(st.objective_history)
        target = NONCONVEX_TARGETS[k]
        rel = abs(obj - target) / target
        ok &= rel < TOLS[k]
        ok &= st.diameter.diameter <= 2.0 * (1 + 1e-3)
        details.append(f"k={k}: {obj:.5f} vs {target} ({rel * 100:.2f}%), "
                       f"D={st.diameter.diameter:.5f}")
    report(8, ok, "; ".join(details))


def test_nonconvex_optima_match_fem(nonconvex_runs):
    # Ritz values bound the eigenvalues from above, and worst at re-entrant
    # corners, which the ascent could sharpen for a spurious gain: its own
    # optima re-solved by the FEM oracle must give the same spectrum
    for k in (1, 2, 3):
        st, _ = nonconvex_runs[k]
        sig = st.eigenvalues
        ref = conftest.fem_spectrum(st.boundary, 0.025, len(sig) - 1)
        rel = np.abs(sig[1:] - ref.eigenvalues[1:]) / ref.eigenvalues[1:]
        assert rel.max() < 1e-4, (k, rel)


def test_criterion_9_property_suites(tmp_path):
    ok = True
    details = []
    # constraint-residual linearity
    cset = build_constraint_set(50, 2 * np.pi / 50, 2.0, 2e-3)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=50), rng.normal(size=50)
    lin = np.max(np.abs(cset.coeffs @ (0.3 * x + 0.7 * y)
                        - 0.3 * cset.coeffs @ x - 0.7 * cset.coeffs @ y))
    ok &= lin < 1e-10
    details.append(f"linearity {lin:.1e}")
    # projection idempotence
    z = project(np.ones(50) + 0.2 * rng.normal(size=50), cset)
    idem = float(np.max(np.abs(project(z, cset) - z)))
    ok &= idem < 1e-8
    details.append(f"idempotence {idem:.1e}")
    # translation/dilation derivative identities on the ellipse
    b = ellipse_boundary()
    spec = solve_boundary(b, 4)
    tr = abs(vertex_derivative(
        spec, 1, b, np.tile([1.0, 0.0], (len(b), 1))))
    dil = vertex_derivative(spec, 1, b, b.vertices)
    dil_err = abs(dil + float(spec.eigenvalues[1]))
    ok &= tr < 5e-3 and dil_err < 5e-3
    details.append(f"translation {tr:.1e}, dilation {dil_err:.1e}")
    # diameter vs scipy's pdist on 100 random convex polygons
    mismatches = 0
    for _ in range(100):
        pts = rng.normal(size=(30, 2))
        hull = pts[ConvexHull(pts).vertices]
        rep = compute_diameter(BoundaryPolyline(hull))
        if not np.isclose(rep.diameter, pdist(hull).max(), atol=1e-12):
            mismatches += 1
    ok &= mismatches == 0
    details.append(f"diameter mismatches {mismatches}/100")
    # determinism of result.json under a fixed seed, on a short convex
    # ascent whose restarts the seed drives
    out = tmp_path / "det"
    args = ["--mode", "optimize-convex", "--n-angles", "60", "--max-iters",
            "5", "--seed", "11", "--out-dir", str(out)]
    assert main(args) == 0
    first = (out / "result.json").read_bytes()
    assert main(args) == 0
    same = (out / "result.json").read_bytes() == first
    ok &= same
    details.append(f"determinism {'ok' if same else 'BROKEN'}")
    report(9, ok, "; ".join(details))


@pytest.mark.nightly
@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_nightly_high_k_convex(k):
    opts = OptimOptions(k=k, n_angles=200, max_iters=500, restarts=2)
    st = ascend(_flat_support(opts), opts)
    obj = max(st.objective_history)
    target = NIGHTLY_TARGETS[k]
    assert abs(obj - target) / target < 0.05
