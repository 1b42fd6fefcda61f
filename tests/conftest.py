"""Shared fixtures: solved reference domains reused across test modules."""

import numpy as np
import pytest

from steklovmax import AngleGrid, SupportVector
from steklovmax.geometry import BoundaryPolyline
from steklovmax.graphs import GraphPair
from steklovmax.optimize import solve_boundary  # noqa: F401 (shared helper)


def ellipse_boundary(n=100, a=1.0, b=0.6):
    theta = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    return BoundaryPolyline(pts)


def disk_boundary(n=100, r=1.0):
    return ellipse_boundary(n, r, r)


def vertex_normals(b):
    """Outward unit normal per vertex (normalized mean of adjacent edge normals)."""
    e = np.roll(b.vertices, -1, axis=0) - b.vertices
    n_edge = np.column_stack([e[:, 1], -e[:, 0]])
    n_edge /= np.linalg.norm(n_edge, axis=1)[:, None]
    n_vert = n_edge + np.roll(n_edge, 1, axis=0)
    return n_vert / np.linalg.norm(n_vert, axis=1)[:, None]


def two_graph_boundary(n=60):
    """Non-convex: both graphs wiggle, the lower one crosses above y = 0."""
    x = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    base = np.sqrt(1.0 - x ** 2)
    lower = -0.6 * base + 0.25 * np.sin(7 * x) * base
    upper = 0.8 * base + 0.2 * np.cos(9 * x) * base
    return GraphPair(lower, upper, 2.0).polyline()


@pytest.fixture(scope="session")
def disk_spec():
    """Unit disk, N = 200, target_h = 0.1 (the benchmark configuration)."""
    return solve_boundary(disk_boundary(200), 0.1, m=10)


@pytest.fixture(scope="session")
def ellipse_case():
    """Ellipse (1, 0.6) at N = 100 with its spectrum; sigma_1 is simple."""
    b = ellipse_boundary(100)
    return b, solve_boundary(b, 0.1, m=5)


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
