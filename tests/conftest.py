"""Shared fixtures: solved reference domains reused across test modules."""

import numpy as np
import pytest

from steklovmax import (AngleGrid, SupportVector, assemble, build_space,
                        reconstruct_boundary, solve_spectrum, triangulate)
from steklovmax.geometry import BoundaryPolyline
from steklovmax.graphs import GraphPair


def solve_boundary(b, target_h=0.1, m=9, order=2):
    mesh = triangulate(b, target_h)
    space = build_space(mesh, order)
    K, B = assemble(space)
    return solve_spectrum(space, K, B, m)


def ellipse_boundary(n=100, a=1.0, b=0.6):
    theta = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    return BoundaryPolyline(pts)


def disk_boundary(n=100, r=1.0):
    return ellipse_boundary(n, r, r)


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
