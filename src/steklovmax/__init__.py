"""Maximization of Steklov eigenvalues of planar domains at fixed diameter.

Pipeline: support-function (or two-graph) parametrization -> boundary
reconstruction -> quality triangulation -> P2 finite-element Steklov
eigensolver -> shape-derivative gradients -> projected gradient ascent.
"""

from .constraints import LinearConstraintSet, build_constraint_set, project
from .errors import (ClusteredEigenvalue, ConfigError, DegenerateBoundary,
                     EmptyDiameterSet, MeshFailure, NoAscent,
                     ProjectionFailure, SelfIntersection, SolverFailure,
                     SteklovMaxError, ZeroBoundaryTrace)
from .experiments import (BoundConstant, PerturbationSpec, ball_volume,
                          check_bound, derive_bound_constant,
                          disk_perturbation_slope, multiplicity_report,
                          perturbation_constant, slope_report,
                          wallis_integral)
from .fem import (FEMSpace, SteklovSpectrum, assemble, build_space,
                  harmonic_extension, rayleigh_quotient, solve_spectrum)
from .geometry import (AngleGrid, BoundaryField, BoundaryPolyline,
                       DiameterReport, SupportVector, compute_diameter,
                       diameter_directional_derivative, reconstruct_boundary)
from .gradients import (cluster_indices, graph_gradient, support_gradient,
                        vertex_field_derivative)
from .graphs import GraphPair
from .meshing import TriangleMesh, triangulate
from .optimize import (OptimOptions, OptimState, ascend, ascend_nonconvex,
                       disk_graphs, disk_support)

__version__ = "0.1.0"
