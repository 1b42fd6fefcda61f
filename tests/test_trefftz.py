"""Harmonic Ritz solver: FEM oracle, exact shape derivative, quadrature
and residual guards, repeatability."""

import numpy as np
import pytest

from steklovmax import trefftz
from steklovmax.errors import SelfIntersection, SolverFailure
from steklovmax.geometry import BoundaryPolyline
from steklovmax.gradients import _pair_weights, cluster_indices
from steklovmax.trefftz import solve_harmonic
from conftest import (arnoldi_oracle, convex_flat_start, disk_boundary,
                      ellipse_boundary, fem_spectrum, nonconvex_flat_start,
                      two_graph_boundary, vertex_derivative, vertex_normals,
                      wavy_boundary)

M = 5   # sigma_0..sigma_5: every eigenvalue the ascent reads for k <= 3

SHAPES = [pytest.param(disk_boundary(100), id="disk"),
          pytest.param(ellipse_boundary(100), id="ellipse"),
          pytest.param(wavy_boundary(), id="wavy"),
          pytest.param(two_graph_boundary(), id="two-graph")]
@pytest.mark.parametrize("b", SHAPES)
def test_eigenvalues_match_fine_fem(b):
    w = solve_harmonic(b, M).eigenvalues
    ref = fem_spectrum(b, 0.025, M).eigenvalues
    assert abs(w[0]) < 1e-10
    assert np.max(np.abs(w[1:] - ref[1:]) / ref[1:]) < 1e-4


def _smooth_normal_field(b, rng):
    ang = np.arctan2(b.vertices[:, 1], b.vertices[:, 0])
    c = rng.normal(size=5)
    vn = (c[0] + c[1] * np.cos(ang) + c[2] * np.sin(ang)
          + c[3] * np.cos(2 * ang) + c[4] * np.sin(2 * ang))
    return vn[:, None] * vertex_normals(b)


@pytest.mark.parametrize("b", SHAPES)
def test_shape_derivative_matches_central_fd(b):
    # simple sigma_1: vertex_derivative; a double sigma_1 = sigma_2
    # (disk, five-fold wavy domain): the trace of the cluster matrix is the
    # derivative of sigma_1 + sigma_2, which is smooth
    spec = solve_harmonic(b, M)
    lo, hi = cluster_indices(spec, 1)
    step = 1e-5
    rng = np.random.default_rng(5)
    for _ in range(3):
        field = _smooth_normal_field(b, rng)
        if lo == hi:
            pred = vertex_derivative(spec, 1, b, field)
        else:
            pred = sum(np.sum(field * _pair_weights(spec, j, j, b))
                       for j in range(lo, hi + 1))
        vals = [solve_harmonic(BoundaryPolyline(b.vertices + s * field),
                               M).eigenvalues[lo:hi + 1].sum()
                for s in (step, -step)]
        fd = (vals[0] - vals[1]) / (2 * step)
        assert abs(pred - fd) <= 1e-5 * abs(fd)


def test_translation_and_dilation_identities(ellipse_case):
    b, spec = ellipse_case
    sig = float(spec.eigenvalues[1])
    for e in ([1.0, 0.0], [0.0, 1.0]):
        d = vertex_derivative(spec, 1, b, np.tile(e, (len(b), 1)))
        assert abs(d) < 1e-10
    d = vertex_derivative(spec, 1, b, b.vertices)
    assert abs(d + sig) < 1e-10


def test_identities_with_corner_functions():
    # the corner functions move with the polygon: under a translation the
    # eigenvalue is constant, under dilation by 1 + t it scales by 1 / (1 + t)
    b = two_graph_boundary()
    spec = solve_harmonic(b, M)
    assert np.any(spec.samples.basis_motion != 0.0)
    sig = float(spec.eigenvalues[1])
    for e in ([1.0, 0.0], [0.0, 1.0]):
        d = vertex_derivative(spec, 1, b, np.tile(e, (len(b), 1)))
        assert abs(d) < 1e-5 * sig
    d = vertex_derivative(spec, 1, b, b.vertices)
    assert abs(d + sig) < 1e-5 * sig


def test_unresolved_corners_raise(monkeypatch):
    # polynomials alone leave sigma_1 of the two-graph domain 2.7e-2 too
    # high at its re-entrant corners; the boundary residual flags that
    monkeypatch.setattr(trefftz, "REENTRANT_MIN_TURN", np.pi)
    monkeypatch.setattr(trefftz, "CONVEX_MIN_TURN", np.pi)
    with pytest.raises(SolverFailure, match="not resolved"):
        solve_harmonic(two_graph_boundary(), M)


def test_samples_orthonormal_and_rayleigh(ellipse_case):
    # sum w u_i u_j = delta_ij, and sum w u_i d_n u_j = sigma_i delta_ij
    _, spec = ellipse_case
    s = spec.samples
    gram = s.u.T @ (s.weight[:, None] * s.u)
    assert np.allclose(gram, np.eye(len(spec.eigenvalues)), atol=1e-10)
    form = s.u.T @ (s.weight[:, None] * s.un)
    assert np.allclose(form, np.diag(spec.eigenvalues), atol=1e-8)


def test_orientation_does_not_matter(ellipse_case):
    b, spec = ellipse_case
    rev = solve_harmonic(BoundaryPolyline(b.vertices[::-1]), 5)
    assert np.allclose(rev.eigenvalues, spec.eigenvalues, rtol=1e-10,
                       atol=1e-12)


def test_too_few_gauss_points_raise(monkeypatch):
    # GAUSS_MIN = 2 points on every edge: an infinite area scale drops the
    # length-dependent term of the counts
    quadrature = trefftz._quadrature
    monkeypatch.setattr(trefftz, "GAUSS_MIN", 2)
    monkeypatch.setattr(trefftz, "_quadrature", lambda ell, size, graded:
                        quadrature(ell, np.inf, graded))
    with pytest.raises(SolverFailure, match="quadrature under-resolved"):
        solve_harmonic(two_graph_boundary(), M)


def test_self_intersecting_polygon_rejected():
    bow = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    with pytest.raises(SelfIntersection):
        solve_harmonic(BoundaryPolyline(bow), 2)


def test_repeatable():
    b = wavy_boundary()
    a, c = solve_harmonic(b, M), solve_harmonic(b, M)
    assert np.array_equal(a.eigenvalues, c.eigenvalues)
    for name in ("u", "ut", "un", "weight", "lam", "edge"):
        assert np.array_equal(getattr(a.samples, name),
                              getattr(c.samples, name))


def _captured(monkeypatch, name, b):
    """The arguments of the first call of trefftz.<name> while solving b."""
    seen = []
    real = getattr(trefftz, name)

    def spy(*args):
        seen.append([np.array(a) for a in args])
        return real(*args)
    with monkeypatch.context() as mp:
        mp.setattr(trefftz, name, spy)
        solve_harmonic(b, M)
    return seen[0]


@pytest.mark.parametrize("b, corner_passes", [
    pytest.param(convex_flat_start(), 0, id="convex-flat"),
    pytest.param(nonconvex_flat_start(), 2, id="nonconvex-flat"),
    pytest.param(wavy_boundary(), 2, id="wavy"),
    pytest.param(two_graph_boundary(), 2, id="two-graph")])
def test_r_factor(monkeypatch, b, corner_passes):
    # the polynomial block (cond 2..5) takes one Cholesky QR pass and the
    # corner block (the two-graph basis has cond 2.6e5) two; a corner-free
    # basis has no corner block
    X, npoly = _captured(monkeypatch, "_r_factor", b)
    npoly = int(npoly)
    sizes = []
    real = trefftz.lapack.dpotrf

    def counting(gram, **kwargs):
        sizes.append(len(gram))
        return real(gram, **kwargs)
    monkeypatch.setattr(trefftz.lapack, "dpotrf", counting)
    R = trefftz._r_factor(X, npoly)
    assert sizes == [npoly] + [X.shape[1] - npoly] * corner_passes
    assert np.array_equal(R, np.triu(R))
    gram = X.T @ X
    assert np.max(np.abs(R.T @ R - gram)) <= 1e-13 * np.max(np.abs(gram))
    ref = np.linalg.qr(X, mode="r")
    assert np.max(np.abs(np.abs(R) - np.abs(ref))) <= 1e-13 * np.max(
        np.abs(ref))


def test_corner_free_r_factor_is_one_cholesky_qr(monkeypatch):
    # the convex ascent's factor is bit for bit one Cholesky QR pass
    X, npoly = _captured(monkeypatch, "_r_factor", convex_flat_start())
    assert X.shape[1] == npoly
    one = trefftz._cholesky(trefftz.blas.dsyrk(1.0, X, trans=1))
    assert np.array_equal(trefftz._r_factor(X, int(npoly)), one)


def test_r_factor_singular_raises():
    # a duplicated column among orthogonal columns of norm 2, with the first
    # three columns polynomial: the Cholesky pivot of the polynomial block,
    # or of the projected corner block, is exactly 0
    for duplicated in ([0, 1, 1, 2, 3], [0, 1, 2, 3, 3]):
        X = np.asfortranarray(2.0 * np.eye(8, 4)[:, duplicated])
        with pytest.raises(SolverFailure, match="boundary mass matrix"):
            trefftz._r_factor(X, 3)


@pytest.mark.parametrize("b", SHAPES)
def test_eigenvalues_match_householder_factor(monkeypatch, b):
    block = solve_harmonic(b, M).eigenvalues
    monkeypatch.setattr(trefftz, "_r_factor",
                        lambda X, npoly: np.linalg.qr(X, mode="r"))
    ref = solve_harmonic(b, M).eigenvalues
    assert np.allclose(block, ref, rtol=1e-12, atol=1e-13)


def test_one_and_two_pass_agree(monkeypatch):
    b = convex_flat_start()
    one = solve_harmonic(b, M)
    monkeypatch.setattr(trefftz, "ONE_PASS_COND", 1.0)
    two = solve_harmonic(b, M)
    assert np.allclose(two.eigenvalues, one.eigenvalues, rtol=1e-13,
                       atol=1e-13)
    u1, u2 = one.samples.u, two.samples.u
    signs = np.sign(np.sum(u1 * u2, axis=0))
    assert np.max(np.abs(u2 * signs - u1)) <= 1e-10 * np.max(np.abs(u1))


@pytest.mark.parametrize("b", [
    pytest.param(convex_flat_start(), id="convex-flat"),
    pytest.param(nonconvex_flat_start(), id="nonconvex-flat"),
    pytest.param(wavy_boundary(), id="wavy"),
    pytest.param(two_graph_boundary(), id="two-graph")])
def test_arnoldi_matches_oracle(monkeypatch, b):
    # _arnoldi returns the rows sqrt(w) q_k and sqrt(w) q_k'
    zeta, w = _captured(monkeypatch, "_arnoldi", b)
    V, DV = trefftz._arnoldi(zeta, w)
    root = np.sqrt(w)[:, None]
    Q, D = V.T / root, DV.T / root
    Qo, Do = arnoldi_oracle(zeta, w, trefftz.DEGREE)
    assert Q.shape == Qo.shape and D.shape == Do.shape
    assert np.max(np.abs(Q - Qo)) <= 1e-13 * np.max(np.abs(Qo))
    assert np.max(np.abs(D - Do)) <= 1e-13 * np.max(np.abs(Do))


class _Forbidden:
    """Stands in for a LAPACK entry point that must not be reached."""

    def __getattr__(self, name):
        raise AssertionError(f"LAPACK reached: {name}")

    def __call__(self, *args, **kwargs):
        raise AssertionError("LAPACK reached")


def test_non_finite_basis_stops_before_lapack(monkeypatch):
    # the LAPACK calls skip their finiteness checks: a NaN in the basis
    # must fail the antisymmetry guard first
    real = trefftz._arnoldi

    def poisoned(zeta, w):
        Q, D = real(zeta, w)
        Q = Q.copy()
        Q[7, 3] = np.nan
        return Q, D
    monkeypatch.setattr(trefftz, "_arnoldi", poisoned)
    for name in ("blas", "lapack", "eigh"):
        monkeypatch.setattr(trefftz, name, _Forbidden())
    with pytest.raises(SolverFailure, match="quadrature under-resolved"):
        solve_harmonic(convex_flat_start(), M)
