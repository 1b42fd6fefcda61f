"""Exception hierarchy shared by all modules."""


class SteklovMaxError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateBoundary(SteklovMaxError):
    """Boundary polyline has coincident consecutive vertices."""


class SelfIntersection(SteklovMaxError):
    """Two non-adjacent boundary edges cross each other."""

    def __init__(self, edge_i, edge_j):
        super().__init__(f"edges {edge_i} and {edge_j} intersect")
        self.edge_i = edge_i
        self.edge_j = edge_j


class EmptyDiameterSet(SteklovMaxError):
    """No diameter-achieving vertex pair available."""


class MeshFailure(SteklovMaxError):
    """Triangulation missed its quality targets: vertex budget or round cap
    reached, refinement stalled, or the boundary chain not recovered."""


class SolverFailure(SteklovMaxError):
    """The Steklov eigensolve failed.

    The harmonic solver raises it for a boundary quadrature that is
    under-resolved, a boundary mass matrix singular on the harmonic basis,
    an eigenfunction whose boundary residual is not resolved, and a basis
    too small for m+1 eigenpairs; the finite elements raise it when the
    sparse factorization or the Lanczos eigensolve fails.
    """


class ProjectionFailure(SteklovMaxError):
    """The projection onto the constraint polyhedron failed: the polyhedron
    is empty, the active rows are linearly dependent, the active-set
    method reached its iteration cap, or the result is infeasible."""


class NoAscent(SteklovMaxError):
    """The ascent's starting point is rejected: nothing to ascend from."""


class ConfigError(SteklovMaxError):
    """Invalid configuration key or value."""
