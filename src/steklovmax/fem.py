"""Discrete Steklov eigenproblem on a triangle mesh.

Lagrange P1/P2 assembly of the stiffness matrix K and the boundary mass
matrix B.  The Steklov spectrum is the finite spectrum of the sparse
pencil K x = sigma B x; B vanishes on interior unknowns, so the pencil
also has infinite eigenvalues, which shift-invert Lanczos never reaches.
Only the few smallest eigenpairs are computed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import SolverFailure, ZeroBoundaryTrace
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
    """Lagrange nodal space of order 1 or 2 on a TriangleMesh.

    Boundary data is ordered along the boundary loop: for order 2 the
    sequence vertex, edge midpoint, vertex, ... with boundary_arc the
    cumulative arclength of each boundary dof node.
    """

    mesh: TriangleMesh
    order: int
    dof_count: int
    cell_dofs: np.ndarray       # (n_tri, 3 or 6)
    dof_coords: np.ndarray      # (dof_count, 2)
    boundary_dofs: np.ndarray   # loop-ordered dof indices
    boundary_arc: np.ndarray    # cumulative arclength per boundary dof


def build_space(mesh: TriangleMesh, order: int = 2) -> FEMSpace:
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    tris = mesh.triangles
    v = mesh.vertices
    nv = len(v)
    loop = mesh.boundary_loop
    arcs = mesh.boundary_arclengths()
    if order == 1:
        return FEMSpace(mesh=mesh, order=1, dof_count=nv,
                        cell_dofs=tris.copy(), dof_coords=v.copy(),
                        boundary_dofs=loop.copy(), boundary_arc=arcs.copy())
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
    dof_coords = np.zeros((ndof, 2))
    dof_coords[:nv] = v
    dof_coords[nv:] = 0.5 * (v[keys[by_first] // nv] + v[keys[by_first] % nv])

    pts = v[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    mid = nv + rank[np.searchsorted(keys, edge_keys(loop, np.roll(loop, -1), nv))]
    boundary_dofs = np.column_stack((loop, mid)).ravel()
    boundary_arc = np.column_stack((arcs, arcs + 0.5 * seg)).ravel()
    return FEMSpace(mesh=mesh, order=2, dof_count=ndof,
                    cell_dofs=cell_dofs, dof_coords=dof_coords,
                    boundary_dofs=boundary_dofs, boundary_arc=boundary_arc)


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

    nloc = 3 if space.order == 1 else 6
    if space.order == 1:
        gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])[None, :, :]
        qw = np.array([0.5])
    else:
        gref = np.stack([_p2_grads(x, y) for x, y in _QP])
        qw = _QW

    nt = len(tris)
    kloc = np.zeros((nt, nloc, nloc))
    for q in range(len(qw)):
        # physical gradients: invT @ gref / det
        g = np.einsum("tij,nj->tni", invT, gref[q]) / det[:, None, None]
        kloc += qw[q] * np.abs(det)[:, None, None] * np.einsum("tni,tmi->tnm", g, g)

    rows = np.repeat(space.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nloc)).ravel()
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)),
                      shape=(space.dof_count, space.dof_count)).tocsr()

    # boundary mass: 1D Gauss per boundary segment
    loop = mesh.boundary_loop
    n = len(loop)
    pts = mesh.vertices[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    brow, bcol, bval = [], [], []
    if space.order == 1:
        for i in range(n):
            a_, b_ = loop[i], loop[(i + 1) % n]
            L = seg[i]
            m = L / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
            for ii, di in enumerate((a_, b_)):
                for jj, dj in enumerate((a_, b_)):
                    brow.append(di)
                    bcol.append(dj)
                    bval.append(m[ii, jj])
    else:
        phis = np.stack([_p2_1d(t) for t in _G1])  # (nq, 3)
        mref = np.einsum("q,qi,qj->ij", _W1, phis, phis)
        for i in range(n):
            a_ = space.boundary_dofs[2 * i]
            mid = space.boundary_dofs[2 * i + 1]
            b_ = space.boundary_dofs[(2 * i + 2) % (2 * n)]
            L = seg[i]
            dofs = (a_, b_, mid)
            for ii in range(3):
                for jj in range(3):
                    brow.append(dofs[ii])
                    bcol.append(dofs[jj])
                    bval.append(L * mref[ii, jj])
    B = sp.coo_matrix((np.asarray(bval), (np.asarray(brow), np.asarray(bcol))),
                      shape=(space.dof_count, space.dof_count)).tocsr()
    return K, B


@dataclass(frozen=True)
class SteklovSpectrum:
    """Sorted Steklov eigenvalues with boundary traces of eigenfunctions.

    traces[:, k] holds eigenfunction k at the boundary dofs (loop order),
    normalized so traces^T B_bb traces = I; tangential[:, k] is the
    arclength derivative of the order-2 boundary restriction at the same
    nodes.  b_boundary is the dense B_bb itself: the solver does not need
    it, but it is what the trace normalization is checked against.
    """

    eigenvalues: np.ndarray
    traces: np.ndarray
    tangential: np.ndarray
    space: FEMSpace
    b_boundary: np.ndarray      # dense boundary mass block, loop order


def _tangential_derivative(space: FEMSpace, y):
    """Arclength derivative of boundary traces at each boundary dof.

    Per segment the restriction is quadratic (P2) or linear (P1) in arc
    parameter; one-sided derivatives at vertices are averaged.
    """
    pts = space.mesh.vertices[space.mesh.boundary_loop]
    L = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)[:, None]
    if space.order == 1:
        fwd = (np.roll(y, -1, axis=0) - y) / L
        return 0.5 * (fwd + np.roll(fwd, 1, axis=0))
    # segment i runs from vertex dof u0 over midpoint um to vertex dof u1
    u0, um = y[0::2], y[1::2]
    u1 = np.roll(u0, -1, axis=0)
    start = 0.5 * (-3.0 * u0 + 4.0 * um - u1) / L
    end = 0.5 * (u0 - 4.0 * um + 3.0 * u1) / L
    dy = np.empty_like(y)
    dy[0::2] = start + np.roll(end, 1, axis=0)
    dy[1::2] = (u1 - u0) / L
    return dy


def solve_spectrum(space: FEMSpace, K, B, m: int) -> SteklovSpectrum:
    """The m+1 smallest Steklov eigenvalues of the pencil (K, B).

    Shift-invert Lanczos (ARPACK mode 3) at sigma = -1 on the full sparse
    pencil: K + B is symmetric positive definite, so one sparse LU of it
    serves every Lanczos step, and the singular B defines the (semi-)inner
    product.  The start vector is fixed, so repeated calls are identical.
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
                  diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverFailure(f"factorization of K + B failed: {exc}") from exc
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # not the constant vector: that is the sigma_0 eigenvector itself
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, x = eigsh(K, k=nev, M=B, sigma=-1.0, OPinv=opinv, tol=0, v0=v0)
    except ArpackError as exc:
        raise SolverFailure(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(w, kind="stable")
    w = w[order]
    y = x[bset][:, order]
    Bbb = B.tocsc()[np.ix_(bset, bset)].toarray()
    Bbb = 0.5 * (Bbb + Bbb.T)
    dy = _tangential_derivative(space, y)
    return SteklovSpectrum(eigenvalues=w, traces=y, tangential=dy,
                           space=space, b_boundary=Bbb)


def harmonic_extension(space: FEMSpace, K, trace):
    """Full dof vector equal to trace on the boundary, discrete-harmonic inside."""
    bset = space.boundary_dofs
    ndof = space.dof_count
    mask = np.ones(ndof, dtype=bool)
    mask[bset] = False
    iset = np.nonzero(mask)[0]
    v = np.zeros(ndof)
    v[bset] = trace
    if len(iset):
        Kcsc = K.tocsc()
        Kii = Kcsc[np.ix_(iset, iset)].tocsc()
        Kib = Kcsc[np.ix_(iset, bset)]
        v[iset] = -splu(Kii).solve(Kib @ trace)
    return v


def rayleigh_quotient(K, B, v) -> float:
    """v^T K v / v^T B v for a full dof vector v."""
    num = float(v @ (K @ v))
    den = float(v @ (B @ v))
    if den <= 1e-14 * max(num, 1e-300):
        raise ZeroBoundaryTrace("boundary trace numerically zero")
    return num / den


def spectrum_to_csv(spec: SteklovSpectrum, path):
    rows = np.column_stack([np.arange(len(spec.eigenvalues)), spec.eigenvalues])
    np.savetxt(path, rows, delimiter=",", fmt=("%d", "%.17g"))
