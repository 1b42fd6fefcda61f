"""Exception hierarchy shared by all modules."""


class SteklovMaxError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateBoundary(SteklovMaxError):
    """Boundary polyline has coincident consecutive vertices or too few points."""


class SelfIntersection(SteklovMaxError):
    """Two non-adjacent boundary edges cross each other."""

    def __init__(self, edge_i, edge_j):
        super().__init__(f"edges {edge_i} and {edge_j} intersect")
        self.edge_i = edge_i
        self.edge_j = edge_j


class EmptyDiameterSet(SteklovMaxError):
    """No diameter-achieving vertex pair available."""


class MeshFailure(SteklovMaxError):
    """Triangulation could not meet its quality contract within the vertex budget."""


class SolverFailure(SteklovMaxError):
    """The sparse factorization or the Lanczos eigensolve failed."""


class ClusteredEigenvalue(SteklovMaxError):
    """Requested a simple-eigenvalue derivative at a clustered eigenvalue."""


class ProjectionFailure(SteklovMaxError):
    """Polyhedron projection did not converge within its iteration cap."""


class NoAscent(SteklovMaxError):
    """The ascent's starting point is rejected: nothing to ascend from."""


class ConfigError(SteklovMaxError):
    """Invalid configuration key or value."""
