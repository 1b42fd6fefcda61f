"""Shared fixtures: solved reference domains reused across test modules."""

import os

# the package comes first: it sets one BLAS thread (unless the user set a
# count) only while numpy is not loaded, so the tests run as the command does
from steklovmax import (AngleGrid, OptimOptions, ProjectionFailure,
                        SupportVector, assemble, build_space,
                        reconstruct_boundary, solve_spectrum, triangulate)

import numpy as np
import pytest
from scipy.optimize import nnls

from steklovmax.cli import _flat_graphs, _flat_support
from steklovmax.geometry import BoundaryPolyline
from steklovmax.gradients import _pair_weights, cluster_indices
from steklovmax.graphs import GraphPair
from steklovmax.optimize import solve_boundary  # noqa: F401 (shared helper)


def fem_spectrum(b, h, m):
    """FEM oracle: mesh at size h, P2 space, assembly, m+1 eigenpairs."""
    space = build_space(triangulate(b, h), 2)
    K, B = assemble(space)
    return solve_spectrum(space, K, B, m)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def with_src_path(env):
    """env with this checkout's src/ first on PYTHONPATH, for a fresh
    interpreter that imports the package."""
    return {**env, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))}


def ldp_project(x, cset):
    """Projection oracle: least-distance programming (Lawson-Hanson).

    With the rows as G z <= h - G x for z = proj - x, one NNLS solve on the
    augmented matrix [G^T; (h - G x)^T] yields the projection.

    Accuracy: on the recorded ascent inputs it matches the active-set
    constraints.project to 2e-13 relative.  Far from feasibility it is
    much less accurate: on support vectors perturbed by about 0.5 times
    the diameter it left rows violated by up to 1.3e-5, so comparisons
    against it at 1e-10 hold only near feasibility.
    """
    x = np.asarray(x, dtype=float)
    g, hh = cset.coeffs, cset.bounds
    slack = hh - g @ x
    if np.all(slack >= -1e-10):
        return x.copy()
    n = x.size
    e = np.vstack([-g.T, -slack[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = nnls(e, f, maxiter=10 * max(e.shape))
    r = e @ u - f
    if abs(r[n]) < 1e-14:
        raise ProjectionFailure("LDP residual degenerate (empty polyhedron?)")
    return x - r[:n] / r[n]


def ellipse_boundary(n=100, a=1.0, b=0.6):
    theta = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    return BoundaryPolyline(pts)


def disk_boundary(n=100, r=1.0):
    return ellipse_boundary(n, r, r)


def perimeter(b):
    return float(np.linalg.norm(np.roll(b.vertices, -1, axis=0) - b.vertices,
                                axis=1).sum())


def vertex_derivative(spec, k, b, field):
    """Derivative of a simple sigma_k under one velocity per vertex: the
    contraction the optimizer's gradient rows run."""
    assert cluster_indices(spec, k) == (k, k)
    return float(np.sum(field * _pair_weights(spec, k, k, b)))


def vertex_normals(b):
    """Outward unit normal per vertex (normalized mean of adjacent edge normals)."""
    e = np.roll(b.vertices, -1, axis=0) - b.vertices
    n_edge = np.column_stack([e[:, 1], -e[:, 0]])
    n_edge /= np.linalg.norm(n_edge, axis=1)[:, None]
    n_vert = n_edge + np.roll(n_edge, 1, axis=0)
    return n_vert / np.linalg.norm(n_vert, axis=1)[:, None]


def wavy_boundary(n=120):
    """Non-convex star-shaped domain r = 1 + 0.15 cos 5 theta."""
    theta = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.15 * np.cos(5 * theta)
    return BoundaryPolyline(np.column_stack([r * np.cos(theta),
                                             r * np.sin(theta)]))


def two_graph_boundary(n=60):
    """Non-convex: both graphs wiggle, the lower one crosses above y = 0."""
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    base = np.sqrt(1.0 - x ** 2)
    lower = -0.6 * base + 0.25 * np.sin(7 * x) * base
    upper = 0.8 * base + 0.2 * np.cos(9 * x) * base
    return GraphPair(lower, upper, 2.0).polyline()


def convex_flat_start():
    """The convex k=2 ascent's start: the aspect-0.4 support polygon, N=100."""
    return reconstruct_boundary(_flat_support(OptimOptions(k=2,
                                                           n_angles=100)))


def nonconvex_flat_start():
    """The two-graph k=1 ascent's start: the aspect-0.7 lens, N=100."""
    return _flat_graphs(OptimOptions(k=1, n_angles=100)).polyline()


def arnoldi_oracle(zeta, w, degree):
    """Vandermonde with Arnoldi, one column per polynomial: the values and
    derivatives at zeta of q_0..q_degree, orthonormal in the w-weighted
    inner product (the column-major, unweighted form that trefftz._arnoldi
    replaced)."""
    Q = np.empty((len(zeta), degree + 1), dtype=complex)
    H = np.zeros((degree + 1, degree + 1), dtype=complex)
    Q[:, 0] = 1.0 / np.sqrt(w.sum())
    for k in range(degree):
        q = zeta * Q[:, k]
        h = np.conj((w * q).conj() @ Q[:, :k + 1])
        q -= Q[:, :k + 1] @ h
        H[:k + 1, k] = h
        H[k + 1, k] = np.sqrt(w @ (q.real ** 2 + q.imag ** 2))
        Q[:, k + 1] = q / H[k + 1, k]
    T = np.zeros_like(H)
    for k in range(degree):
        rhs = H @ T[:, k] - T[:, :k + 1] @ H[:k + 1, k]
        rhs[k] += 1.0
        T[:, k + 1] = rhs / H[k + 1, k]
    return Q, Q @ T


@pytest.fixture(scope="session")
def disk_spec():
    """FEM oracle on the unit disk, N = 200, h = 0.1."""
    return fem_spectrum(disk_boundary(200), 0.1, m=10)


@pytest.fixture(scope="session")
def ellipse_case():
    """Ellipse (1, 0.6) at N = 100 with its spectrum; sigma_1 is simple."""
    b = ellipse_boundary(100)
    return b, solve_boundary(b, m=5)


@pytest.fixture(scope="session")
def support_disk():
    grid = AngleGrid(100)
    return SupportVector(grid, np.ones(100))


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line acceptance verdicts after the test summary."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
