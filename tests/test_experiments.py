"""Experiments: constants, perturbation slope, bound, multiplicity."""

import numpy as np
import pytest

from steklovmax import (PerturbationSpec, check_bound, derive_bound_constant,
                        disk_perturbation_slope, multiplicity_report)
from steklovmax.experiments import perturbed_disk_boundary, slope_report
from conftest import solve_boundary


def test_perturbation_constant_d2():
    # K(2) = 3/2: with a4 = 0 the slope is -2 (K - 1) a2
    assert PerturbationSpec(1.0, 0.0, (0.01,)).predicted_slope() == -1.0


def test_bound_constants():
    assert derive_bound_constant(1) == 16.0
    assert derive_bound_constant(2) == 54.0
    assert derive_bound_constant(3) == 128.0
    with pytest.raises(ValueError):
        derive_bound_constant(0)


def test_predicted_slope_linear_in_amplitudes():
    rng = np.random.default_rng(1)
    for _ in range(3):
        a2, a4 = rng.normal(size=2) * 0.5
        s = PerturbationSpec(a2, a4, (0.01,)).predicted_slope()
        s2 = PerturbationSpec(2 * a2, 2 * a4, (0.01,)).predicted_slope()
        assert np.isclose(s2, 2 * s)


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(1.0, 1.0, (0.02, 0.01))      # not ascending
    with pytest.raises(ValueError):
        PerturbationSpec(1.0, 1.0, (0.1,))            # too large
    with pytest.raises(ValueError):
        PerturbationSpec(1.0, 1.0, (-0.01,))          # not positive


def test_check_bound_disk():
    ps = PerturbationSpec(0.0, 0.0, (0.01,))
    b = perturbed_disk_boundary(0.0, ps, 200)
    spec = solve_boundary(b, 3)
    rep = check_bound(b, spec, 1)
    # unit disk: sigma_1 = 1, bound = 16 pi / 8 = 2 pi, margin ~ 0.159
    assert rep["passed"]
    assert np.isclose(rep["margin_ratio"], 1.0 / (2 * np.pi), rtol=5e-3)


def test_check_bound_thin_rectangle():
    from steklovmax.geometry import BoundaryPolyline
    r = BoundaryPolyline(np.array([[0, 0], [2, 0], [2, 0.1], [0, 0.1]],
                                  float))
    spec = solve_boundary(r, 3)
    rep = check_bound(r, spec, 1)
    assert rep["passed"]
    assert np.isclose(rep["bound"], 16 * 0.2 / 2.0024**3, rtol=1e-2)


def test_multiplicity_report_disk_k2():
    ps = PerturbationSpec(0.0, 0.0, (0.01,))
    b = perturbed_disk_boundary(0.0, ps, 200)
    spec = solve_boundary(b, 4)

    class FakeState:
        eigenvalues = np.asarray(spec.eigenvalues)

    rep = multiplicity_report(FakeState(), 2)
    # disk: sigma_2 = 1, sigma_3 = 2 -> upper gap ~ 1 (far from optimal)
    assert rep["upper_gap_ratio"] > 0.9
    assert not rep["passed"]


@pytest.mark.slow
def test_slope_a2_only():
    # a2 = 1, a4 = 0: predicted slope 2(0 - (K-1)) = -1 with K = 3/2
    ps = PerturbationSpec(1.0, 0.0, (0.005, 0.01, 0.02))
    measured, predicted = disk_perturbation_slope(ps, n_angles=200)
    assert predicted == pytest.approx(-1.0)
    assert abs(measured - predicted) < 0.10 * abs(predicted)


def test_slope_report_shape():
    ps = PerturbationSpec(0.0, 0.0, (0.005, 0.01))
    rep = slope_report(ps, n_angles=100)
    assert rep["predicted_slope"] == 0.0
    assert abs(rep["measured_slope"]) < 0.1
    assert rep["passed"]
