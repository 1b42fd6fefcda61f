"""Numerical verifications: disk non-optimality slope, eigenvalue upper
bound, and multiplicity at computed optima.

Each experiment returns a plain dict (JSON-serializable report) holding the
inputs, measured and predicted values, and a pass/fail verdict.  The general
dimension-d constants are implemented as written formulas but only d = 2 is
exercised numerically.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPolyline, compute_diameter
from .optimize import solve_boundary


def wallis_integral(p):
    """j_p = integral of sin^p t over [0, pi]; recurrence j_p = j_{p-2}(p-1)/p."""
    if p < 0:
        raise ValueError("p must be >= 0")
    j = [np.pi, 2.0]
    for q in range(2, p + 1):
        j.append(j[q - 2] * (q - 1) / q)
    return j[p]


def ball_volume(m):
    """Volume of the unit ball in R^m; omega_0 = 1, omega_1 = 2, recurrence
    omega_m = omega_{m-2} * 2 pi / m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    vols = [1.0, 2.0]
    for q in range(2, m + 1):
        vols.append(vols[q - 2] * 2.0 * np.pi / q)
    return vols[m]


def perturbation_constant(d=2):
    """The constant K in the first-order expansion sigma_1(B_eps) = 1 - eps K a2.

    K(d) = (d^2 - 1) pi / (2 omega_d) * prod_{p=3}^{d} j_p; the product is
    empty for d = 2 and K(2) = 3 pi / (2 pi) = 3/2.
    """
    prod = 1.0
    for p in range(3, d + 1):
        prod *= wallis_integral(p)
    return (d * d - 1) * np.pi / (2.0 * ball_volume(d)) * prod


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
        """First-order slope of eps -> D(B_eps) sigma_1(B_eps) at eps = 0."""
        K = perturbation_constant(2)
        return 2.0 * (self.a4 - (K - 1.0) * self.a2)


@dataclass(frozen=True)
class BoundConstant:
    """d = 2 constant of the upper bound sigma_k <= C(2,k) |Omega| / D^3."""

    k: int
    C2k: float


def derive_bound_constant(k) -> BoundConstant:
    """C(2,k) = [2(k+1)]^(d+1) / (4 C_d) at d = 2.

    C_d = omega_{d-2} / ((d-1) omega_{d-1}^((d-2)/(d-1))); with omega_0 = 1
    and omega_1 = 2, C_2 = 1, so C(2,k) = [2(k+1)]^3 / 4 = 2 (k+1)^3.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = 2
    c_d = ball_volume(d - 2) / ((d - 1) * ball_volume(d - 1) ** ((d - 2) / (d - 1)))
    val = (2.0 * (k + 1)) ** (d + 1) / (4.0 * c_d)
    return BoundConstant(k, float(val))


def check_bound(b: BoundaryPolyline, spectrum, k):
    """Verify sigma_k <= C(2,k) area / D^3; report the margin ratio."""
    const = derive_bound_constant(k)
    area = abs(b.area())
    diam = compute_diameter(b).diameter
    bound = const.C2k * area / diam**3
    sigma = float(np.asarray(spectrum.eigenvalues)[k])
    return {
        "k": k,
        "constant": const.C2k,
        "area": area,
        "diameter": diam,
        "sigma_k": sigma,
        "bound": bound,
        "margin_ratio": sigma / bound if bound > 0 else np.inf,
        "passed": bool(sigma <= bound),
    }


def perturbed_disk_boundary(eps, pspec: PerturbationSpec, n_angles=200,
                            scale=1.0):
    """Polyline of the radially perturbed unit disk (optionally rescaled)."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    r = 1.0 + eps * (pspec.a2 * np.cos(2 * theta) + pspec.a4 * np.cos(4 * theta))
    pts = scale * (r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]))
    return BoundaryPolyline(pts)


def _objective_at(eps, pspec, n_angles, target_h, scale=1.0):
    b = perturbed_disk_boundary(eps, pspec, n_angles, scale)
    spec = solve_boundary(b, target_h, 3)
    return float(spec.eigenvalues[1]) * compute_diameter(b).diameter


def disk_perturbation_slope(pspec: PerturbationSpec, n_angles=200,
                            mesh_h_factor=0.05):
    """Measured vs predicted slope of eps -> D(B_eps) sigma_1(B_eps).

    The measured values (epsilon 0 included) are fitted with a quadratic in
    epsilon; the linear coefficient is reported, since the expansion's o(eps)
    remainder is quadratic with a large constant and would pollute a raw
    straight-line fit over finite epsilons.
    """
    target_h = mesh_h_factor * 2.0
    eps_all = np.concatenate([[0.0], np.asarray(pspec.epsilons)])
    values = np.array([_objective_at(e, pspec, n_angles, target_h)
                       for e in eps_all])
    deg = 2 if len(eps_all) >= 3 else 1
    design = np.vander(eps_all, deg + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    measured = float(coef[1])
    return measured, float(pspec.predicted_slope())


def slope_report(pspec: PerturbationSpec, n_angles=200, mesh_h_factor=0.05,
                 rel_tol=0.10):
    """JSON-ready report of the perturbed-disk slope experiment."""
    measured, predicted = disk_perturbation_slope(pspec, n_angles,
                                                  mesh_h_factor)
    if predicted != 0.0:
        ok = abs(measured - predicted) <= rel_tol * abs(predicted)
    else:
        ok = abs(measured) <= rel_tol
    return {
        "experiment": "disk-perturbation-slope",
        "a2": pspec.a2,
        "a4": pspec.a4,
        "epsilons": list(pspec.epsilons),
        "n_angles": n_angles,
        "measured_slope": measured,
        "predicted_slope": predicted,
        "rel_tol": rel_tol,
        "passed": bool(ok),
    }


def scale_invariance_error(pspec: PerturbationSpec, eps, t=3.0, n_angles=200,
                           mesh_h_factor=0.05):
    """|sigma_1 D (scaled by t) - sigma_1 D (unscaled)| on identical meshes.

    The product sigma_1 D is scale invariant; the mesh of the scaled run is
    the scaled mesh (target_h scales with the geometry), so the discrete
    values agree to rounding.
    """
    h = mesh_h_factor * 2.0
    v1 = _objective_at(eps, pspec, n_angles, h, scale=1.0)
    v2 = _objective_at(eps, pspec, n_angles, h * t, scale=t)
    return abs(v2 - v1)


def multiplicity_report(state, k=None):
    """Gap ratios of the optimized eigenvalue to its neighbors."""
    w = np.asarray(state.eigenvalues)
    if k is None:
        k = getattr(state, "k", None)
    if k is None:
        raise ValueError("k must be given when the state does not carry it")
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
