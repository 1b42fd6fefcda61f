"""Maximization of Steklov eigenvalues of planar domains at fixed diameter.

Pipeline: support-function (or two-graph) parametrization -> boundary
reconstruction -> mesh-free harmonic-polynomial Steklov eigensolver ->
shape-derivative gradients -> projected gradient ascent.  The quality
mesher and the P2 finite-element solver are the reference the solver is
tested against.

Importing the package before numpy sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless one of them is set: the
solver's dense kernels are small, so extra BLAS threads cost more than they
give and change the last digits of the ascent.  Once numpy is loaded its
BLAS has read them, so the package leaves them alone.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
if "numpy" not in sys.modules and \
        not any(name in os.environ for name in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from .constraints import LinearConstraintSet, build_constraint_set, project
from .errors import (ConfigError, DegenerateBoundary, EmptyDiameterSet,
                     MeshFailure, NoAscent, ProjectionFailure,
                     SelfIntersection, SolverFailure, SteklovMaxError)
from .experiments import (PerturbationSpec, check_bound,
                          derive_bound_constant, disk_perturbation_slope,
                          multiplicity_report, slope_report)
from .fem import (FEMSpace, SteklovSpectrum, assemble, build_space,
                  solve_spectrum)
from .geometry import (AngleGrid, BoundaryPolyline, DiameterReport,
                       SupportVector, compute_diameter, reconstruct_boundary)
from .gradients import cluster_indices, graph_gradient, support_gradient
from .graphs import GraphPair
from .meshing import TriangleMesh, triangulate
from .optimize import (OptimOptions, OptimState, ascend, ascend_nonconvex,
                       disk_graphs, disk_support)
from .trefftz import HarmonicSpectrum, solve_harmonic

__version__ = "0.1.0"
