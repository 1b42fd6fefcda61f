"""Discrete Steklov eigenproblem on a triangle mesh.

Lagrange P2 assembly of the stiffness matrix K and the boundary mass
matrix B.  The Steklov spectrum is the finite spectrum of the sparse
pencil K x = sigma B x; B vanishes on interior unknowns, so the pencil
also has infinite eigenvalues, which shift-invert Lanczos never reaches.
Only the few smallest eigenpairs are computed, by shift-invert Lanczos on
one sparse LU of K + B, with SuperLU's relaxed supernodes turned off and
Lanczos stopped at a residual of 1e-10 (solve_spectrum gives the measured
reasons).  The optimizer solves with trefftz.py; this solver is the
reference it is tested against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import SolverFailure
from .gradients import BoundarySamples
from .meshing import TriangleMesh, edge_keys

# quadrature on the reference triangle: edge midpoints, exact to degree 2
_QP = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_QW = np.full(3, 1.0 / 6.0)

# 1D Gauss points/weights on [0, 1], 3 points (exact to degree 5)
_G1 = 0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]))
_W1 = np.array([5.0, 8.0, 5.0]) / 18.0


def _p2_grads(xi, eta):
    """Gradients of the six P2 basis functions at a reference point."""
    lam = np.array([1.0 - xi - eta, xi, eta])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    g = np.zeros((6, 2))
    for i in range(3):
        g[i] = (4.0 * lam[i] - 1.0) * dlam[i]
    # node 3 on edge (1,2), node 4 on (2,0), node 5 on (0,1)
    pairs = [(1, 2), (2, 0), (0, 1)]
    for k, (i, j) in enumerate(pairs):
        g[3 + k] = 4.0 * (lam[i] * dlam[j] + lam[j] * dlam[i])
    return g


def _p2_1d(t):
    """1D quadratic shape functions (left node, right node, midpoint) at t in [0,1]."""
    return np.array([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])


@dataclass(frozen=True)
class FEMSpace:
    """Lagrange P2 nodal space on a TriangleMesh.

    Boundary dofs are ordered along the boundary loop: vertex, edge
    midpoint, vertex, ...
    """

    mesh: TriangleMesh
    dof_count: int
    cell_dofs: np.ndarray       # (n_tri, 6)
    boundary_dofs: np.ndarray   # loop-ordered dof indices


def build_space(mesh: TriangleMesh, order: int = 2) -> FEMSpace:
    if order != 2:
        raise ValueError("order must be 2")
    tris = mesh.triangles
    nv = len(mesh.vertices)
    loop = mesh.boundary_loop
    # edge dofs numbered nv, nv+1, ... in order of first appearance over
    # the triangles' local edges (1,2), (2,0), (0,1)
    ends = (tris[:, [1, 2, 0]], tris[:, [2, 0, 1]])
    keys, first, inverse = np.unique(edge_keys(*ends, nv), return_index=True,
                                     return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(keys), dtype=int)
    rank[by_first] = np.arange(len(keys))
    ndof = nv + len(keys)
    cell_dofs = np.zeros((len(tris), 6), dtype=int)
    cell_dofs[:, :3] = tris
    cell_dofs[:, 3:] = nv + rank[inverse].reshape(-1, 3)
    mid = nv + rank[np.searchsorted(keys, edge_keys(loop, np.roll(loop, -1), nv))]
    boundary_dofs = np.column_stack((loop, mid)).ravel()
    return FEMSpace(mesh=mesh, dof_count=ndof, cell_dofs=cell_dofs,
                    boundary_dofs=boundary_dofs)


def assemble(space: FEMSpace):
    """Stiffness K (volume gradient form) and boundary mass B (trace form)."""
    mesh = space.mesh
    tris = mesh.triangles
    v = mesh.vertices
    a = v[tris[:, 0]]
    e1 = v[tris[:, 1]] - a
    e2 = v[tris[:, 2]] - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # inverse-transpose of the affine Jacobian [e1 e2], times det
    invT = np.empty((len(tris), 2, 2))
    invT[:, 0, 0] = e2[:, 1]
    invT[:, 0, 1] = -e1[:, 1]
    invT[:, 1, 0] = -e2[:, 0]
    invT[:, 1, 1] = e1[:, 0]

    gref = np.stack([_p2_grads(x, y) for x, y in _QP])
    kloc = np.zeros((len(tris), 6, 6))
    for q in range(len(_QW)):
        # physical gradients (invT @ gref / det) and their Gram matrices,
        # both batched matmuls
        g = gref[q] @ invT.transpose(0, 2, 1) / det[:, None, None]
        kloc += _QW[q] * np.abs(det)[:, None, None] * (g @ g.transpose(0, 2, 1))

    rows = np.repeat(space.cell_dofs, 6, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, 6)).ravel()
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)),
                      shape=(space.dof_count, space.dof_count)).tocsr()

    # boundary mass: 1D Gauss per boundary segment
    pts = mesh.vertices[mesh.boundary_loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    phis = np.stack([_p2_1d(t) for t in _G1])  # (nq, 3)
    mref = np.einsum("q,qi,qj->ij", _W1, phis, phis)
    # segment i: its end dofs 2i and 2i+2 (mod 2n), then its midpoint
    ends = space.boundary_dofs[0::2]
    dofs = np.column_stack((ends, np.roll(ends, -1),
                            space.boundary_dofs[1::2]))
    brow = np.repeat(dofs, 3, axis=1).ravel()
    bcol = np.tile(dofs, (1, 3)).ravel()
    bval = (seg[:, None, None] * mref).ravel()
    B = sp.coo_matrix((bval, (brow, bcol)),
                      shape=(space.dof_count, space.dof_count)).tocsr()
    return K, B


@dataclass(frozen=True)
class SteklovSpectrum:
    """Sorted Steklov eigenvalues with boundary traces of eigenfunctions.

    traces[:, k] holds eigenfunction k at the boundary dofs (loop order),
    normalized so traces^T B_bb traces = I; samples holds the traces at
    three Gauss points per boundary segment, their arclength derivatives,
    and sigma_k times the trace as the normal derivative (the boundary
    condition).  b_boundary is the dense B_bb itself: the solver does not
    need it, but it is what the trace normalization is checked against.
    """

    eigenvalues: np.ndarray
    traces: np.ndarray
    samples: BoundarySamples
    space: FEMSpace
    b_boundary: np.ndarray      # dense boundary mass block, loop order


def _boundary_samples(space: FEMSpace, y, sigma) -> BoundarySamples:
    """Traces y (boundary dofs x eigenfunctions) at the 3-point Gauss
    nodes of every boundary segment, placed on the polyline's edges.

    Segment i lies on polyline edge j where boundary_vertex_map[j] <= i <
    boundary_vertex_map[j + 1]; the node's position along that edge comes
    from the arclengths of the boundary loop.
    """
    mesh = space.mesh
    pts = mesh.vertices[mesh.boundary_loop]
    L = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    # segment i runs from vertex dof 2i over midpoint 2i+1 to 2i+2
    ends = (y[0::2], np.roll(y[0::2], -1, axis=0), y[1::2])
    shape = np.stack([_p2_1d(t) for t in _G1])
    dshape = np.column_stack([4.0 * _G1 - 3.0, 4.0 * _G1 - 1.0,
                              4.0 - 8.0 * _G1])
    nodes = np.stack(ends, axis=1)                  # (seg, local, eig)
    u = np.einsum("gl,sle->sge", shape, nodes).reshape(-1, y.shape[1])
    ut = (np.einsum("gl,sle->sge", dshape, nodes)
          / L[:, None, None]).reshape(-1, y.shape[1])

    arcs = mesh.boundary_arclengths()
    bvm = mesh.boundary_vertex_map
    edge = np.searchsorted(bvm, np.arange(len(L)), side="right") - 1
    # arclength at each polyline vertex, and at vertex 0 again at the end
    arcs_v = np.append(arcs[bvm], arcs[-1] + L[-1])
    span = arcs_v[edge + 1] - arcs_v[edge]
    at = arcs[:, None] + _G1[None, :] * L[:, None]
    lam = (at - arcs_v[edge][:, None]) / span[:, None]
    m = y.shape[1]
    return BoundarySamples(edge=np.repeat(edge, len(_G1)), lam=lam.ravel(),
                           weight=np.outer(L, _W1).ravel(), u=u, ut=ut,
                           un=u * sigma,
                           basis_motion=np.zeros((m, m, len(bvm), 2)))


def solve_spectrum(space: FEMSpace, K, B, m: int) -> SteklovSpectrum:
    """The m+1 smallest Steklov eigenvalues of the pencil (K, B).

    Shift-invert Lanczos (ARPACK mode 3) at sigma = -1 on the full sparse
    pencil: K + B is symmetric positive definite, so one sparse LU of it
    serves every Lanczos step, and the singular B defines the (semi-)inner
    product.  The start vector is fixed, so repeated calls are identical.

    Measured on the disk and the 12 perfbench pool shapes at h = 0.035
    (16k-26k dofs, one core, best of three runs):
    - relax=1 turns off SuperLU's relaxed supernodes.  The factors keep
      their nonzeros, but a factorization took 52-108 ms instead of
      57-160 ms, and a solve 1.2-2.2 ms instead of 1.35-2.75 ms.
    - Lanczos stops at ARPACK's relative residual 1e-10, not at machine
      precision: 33-43 solves instead of 44-54.  Ritz values converge
      with the square of the residual, and the eigenvalues moved by at
      most 3.1e-14 relative.  The eigenvectors move with the residual
      itself, most for sigma_m, the last pair to converge: its support
      gradient moved by up to 1.6e-10 relative, those of
      sigma_1..sigma_{m-1} by at most 8.8e-13.  Solve for one more pair
      when the gradient of sigma_m is needed more closely.
    A reverse Cuthill-McKee pre-order before the minimum degree ordering
    cut the factorization by another 7-22%, but importing
    scipy.sparse.csgraph for it added 1.1 MiB to every process that
    imports this package.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    bset = space.boundary_dofs
    n = space.dof_count
    nev = min(m + 1, len(bset))
    if nev >= n - 1:
        raise SolverFailure(f"Lanczos cannot compute {nev} eigenpairs "
                            f"of a pencil with {n} dofs")
    try:
        lu = splu((K + B).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, relax=1,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverFailure(f"factorization of K + B failed: {exc}") from exc
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # not the constant vector: that is the sigma_0 eigenvector itself
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, x = eigsh(K, k=nev, M=B, sigma=-1.0, OPinv=opinv, tol=1e-10, v0=v0)
    except ArpackError as exc:
        raise SolverFailure(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(w, kind="stable")
    w = w[order]
    y = x[bset][:, order]
    Bbb = B.tocsc()[np.ix_(bset, bset)].toarray()
    Bbb = 0.5 * (Bbb + Bbb.T)
    return SteklovSpectrum(eigenvalues=w, traces=y,
                           samples=_boundary_samples(space, y, w),
                           space=space, b_boundary=Bbb)

