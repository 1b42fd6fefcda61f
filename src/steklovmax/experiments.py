"""Numerical verifications: disk non-optimality slope, eigenvalue upper
bound, and multiplicity at computed optima.

Each experiment returns a plain dict (JSON-serializable report) holding the
inputs, measured and predicted values, and a pass/fail verdict.  The
paper's dimension-d constants appear in their closed forms at d = 2.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPolyline, compute_diameter
from .optimize import solve_boundary

SLOPE_REL_TOL = 0.10


@dataclass(frozen=True)
class PerturbationSpec:
    """Amplitudes and epsilon ladder of the perturbed-disk experiment."""

    a2: float
    a4: float
    epsilons: tuple

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if list(eps) != sorted(eps):
            raise ValueError("epsilons must be sorted ascending")
        if eps and max(eps) > 0.05:
            raise ValueError("epsilons must not exceed 0.05")
        object.__setattr__(self, "epsilons", eps)

    def predicted_slope(self):
        """First-order slope of eps -> D(B_eps) sigma_1(B_eps) at eps = 0.

        2 (a4 - (K - 1) a2) with K(2) = (2^2 - 1) pi / (2 omega_2) = 3/2.
        """
        return 2.0 * (self.a4 - 0.5 * self.a2)


def derive_bound_constant(k) -> float:
    """Constant of the upper bound sigma_k <= C(2,k) |Omega| / D^3.

    C(2,k) = [2(k+1)]^3 / (4 C_2) with C_2 = omega_0 / omega_1^0 = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(2 * (k + 1) ** 3)


def check_bound(b: BoundaryPolyline, spectrum, k):
    """Verify sigma_k <= C(2,k) area / D^3; report the margin ratio."""
    const = derive_bound_constant(k)
    area = abs(b.area())
    diam = compute_diameter(b).diameter
    bound = const * area / diam**3
    sigma = float(np.asarray(spectrum.eigenvalues)[k])
    return {
        "k": k,
        "constant": const,
        "area": area,
        "diameter": diam,
        "sigma_k": sigma,
        "bound": bound,
        "margin_ratio": sigma / bound if bound > 0 else np.inf,
        "passed": bool(sigma <= bound),
    }


def perturbed_disk_boundary(eps, pspec: PerturbationSpec, n_angles=200):
    """Polyline of the radially perturbed unit disk."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    r = 1.0 + eps * (pspec.a2 * np.cos(2 * theta) + pspec.a4 * np.cos(4 * theta))
    pts = r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return BoundaryPolyline(pts)


def _objective_at(eps, pspec, n_angles):
    b = perturbed_disk_boundary(eps, pspec, n_angles)
    spec = solve_boundary(b, 3)
    return float(spec.eigenvalues[1]) * compute_diameter(b).diameter


def disk_perturbation_slope(pspec: PerturbationSpec, n_angles=200):
    """Measured vs predicted slope of eps -> D(B_eps) sigma_1(B_eps).

    The measured values (epsilon 0 included) are fitted with a quadratic in
    epsilon; the linear coefficient is reported, since the expansion's o(eps)
    remainder is quadratic with a large constant and would pollute a raw
    straight-line fit over finite epsilons.
    """
    eps_all = np.concatenate([[0.0], np.asarray(pspec.epsilons)])
    values = np.array([_objective_at(e, pspec, n_angles) for e in eps_all])
    deg = 2 if len(eps_all) >= 3 else 1
    design = np.vander(eps_all, deg + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    measured = float(coef[1])
    return measured, float(pspec.predicted_slope())


def slope_report(pspec: PerturbationSpec, n_angles=200):
    """JSON-ready report of the perturbed-disk slope experiment."""
    measured, predicted = disk_perturbation_slope(pspec, n_angles)
    if predicted != 0.0:
        ok = abs(measured - predicted) <= SLOPE_REL_TOL * abs(predicted)
    else:
        ok = abs(measured) <= SLOPE_REL_TOL
    return {
        "experiment": "disk-perturbation-slope",
        "a2": pspec.a2,
        "a4": pspec.a4,
        "epsilons": list(pspec.epsilons),
        "n_angles": n_angles,
        "measured_slope": measured,
        "predicted_slope": predicted,
        "rel_tol": SLOPE_REL_TOL,
        "passed": bool(ok),
    }


def multiplicity_report(state, k):
    """Gap ratios of the optimized sigma_k to its neighbors.

    state is anything with an eigenvalues array, such as an OptimState.
    """
    w = np.asarray(state.eigenvalues)
    sigma = w[k]
    upper = (w[k + 1] - sigma) / sigma if k + 1 < len(w) else np.nan
    lower = (sigma - w[k - 1]) / sigma if k >= 1 else np.nan
    return {
        "experiment": "multiplicity",
        "k": k,
        "eigenvalues": [float(x) for x in w],
        "upper_gap_ratio": float(upper),
        "lower_gap_ratio": float(lower),
        "passed": bool(upper < 0.02),
    }


def bound_report(states_or_pairs):
    """Bound check over a sequence of (boundary, spectrum, k) triples."""
    checks = [check_bound(b, spec, k) for b, spec, k in states_or_pairs]
    return {
        "experiment": "bound",
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks)),
    }
