"""Finite elements: disk spectrum oracle, homogeneity, solver invariants."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, splu

import steklovmax.fem as fem
from steklovmax import assemble, build_space, solve_spectrum, triangulate
from steklovmax.errors import SolverFailure
from steklovmax.geometry import BoundaryPolyline
from conftest import (disk_boundary, ellipse_boundary, perimeter,
                      two_graph_boundary, wavy_boundary)


def test_disk_spectrum_benchmark(disk_spec):
    # unit disk: sigma = 0, 1, 1, 2, 2, 3, 3, 4, 4 (separation of variables)
    analytic = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4], dtype=float)
    w = np.asarray(disk_spec.eigenvalues[:9])
    assert abs(w[0]) < 1e-8
    rel = np.abs(w[1:] - analytic[1:]) / analytic[1:]
    assert rel.max() < 5e-3


def test_homogeneity_on_scaled_meshes():
    b = ellipse_boundary()
    mesh = triangulate(b, 0.1)
    space1 = build_space(mesh, 2)
    K1, B1 = assemble(space1)
    w1 = np.asarray(solve_spectrum(space1, K1, B1, 5).eigenvalues)
    for t in (0.5, 2.0):
        space2 = build_space(mesh.scaled(t), 2)
        K2, B2 = assemble(space2)
        w2 = np.asarray(solve_spectrum(space2, K2, B2, 5).eigenvalues)
        assert np.allclose(w2 * t, w1, atol=1e-9)


def test_eigenvalues_sorted_nonnegative(disk_spec):
    w = np.asarray(disk_spec.eigenvalues)
    assert np.all(np.diff(w) >= -1e-12)
    assert w[0] > -1e-8


def test_first_eigenfunction_constant_trace(disk_spec):
    # sigma_0 = 0 has constant boundary trace
    tr = disk_spec.traces[:, 0]
    assert np.std(tr) / (abs(np.mean(tr)) + 1e-30) < 1e-5


def test_traces_b_orthonormal(disk_spec):
    gram = disk_spec.traces.T @ disk_spec.b_boundary @ disk_spec.traces
    assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8)


def test_stiffness_symmetric_psd():
    mesh = triangulate(disk_boundary(48), 0.2)
    space = build_space(mesh, 2)
    K, _ = assemble(space)
    Kd = K.toarray()
    assert np.allclose(Kd, Kd.T, atol=1e-12)
    w = np.linalg.eigvalsh(Kd)
    assert w.min() > -1e-10 * abs(w.max())


def test_mass_supported_on_boundary():
    mesh = triangulate(disk_boundary(48), 0.2)
    space = build_space(mesh, 2)
    _, B = assemble(space)
    Bd = B.toarray()
    interior = np.setdiff1d(np.arange(Bd.shape[0]), space.boundary_dofs)
    assert np.allclose(Bd[interior], 0.0)
    assert np.allclose(Bd[:, interior], 0.0)


def test_build_space_is_p2_only():
    mesh = triangulate(disk_boundary(48), 0.2)
    for order in (1, 3):
        with pytest.raises(ValueError, match="order"):
            build_space(mesh, order)


def test_boundary_mass_total_is_perimeter():
    b = disk_boundary(100)
    mesh = triangulate(b, 0.1)
    space = build_space(mesh, 2)
    _, B = assemble(space)
    ones = np.ones(space.dof_count)
    assert np.isclose(ones @ (B @ ones), perimeter(b), rtol=1e-12)


def test_boundary_arc_total(disk_spec):
    mesh = disk_spec.space.mesh
    # the boundary loop's segments add up to the perimeter, and the
    # arclengths the boundary samples are placed by increase along it
    total = mesh.vertices[mesh.boundary_loop]
    seg = np.linalg.norm(np.roll(total, -1, axis=0) - total, axis=1)
    assert np.isclose(seg.sum(), 2 * np.pi, rtol=2e-3)
    assert np.all(np.diff(mesh.boundary_arclengths()) > 0)


def test_tangential_derivative_of_linear_function():
    # u = x: the P2 trace reproduces it at the boundary Gauss samples, and
    # its arclength derivative there is the x-component of the edge tangent
    b = disk_boundary(100)
    space = build_space(triangulate(b, 0.1), 2)
    # boundary dof coordinates: vertex, segment midpoint, vertex, ...
    ends = space.mesh.vertices[space.mesh.boundary_loop]
    mids = 0.5 * (ends + np.roll(ends, -1, axis=0))
    coords = np.column_stack([ends, mids]).reshape(-1, 2)
    s = fem._boundary_samples(space, coords[:, [0]], np.array([2.0]))
    v = b.vertices
    e = np.roll(v, -1, axis=0) - v
    at = v[s.edge] + s.lam[:, None] * e[s.edge]
    tau_x = (e[:, 0] / np.linalg.norm(e, axis=1))[s.edge]
    assert np.allclose(s.u[:, 0], at[:, 0], atol=1e-12)
    assert np.allclose(s.ut[:, 0], tau_x, atol=1e-12)
    assert np.array_equal(s.un, 2.0 * s.u)
    assert np.isclose(s.weight.sum(), perimeter(b), rtol=1e-12)


def p2_numbering_oracle(mesh):
    """Dict-based P2 numbering: edge dofs in order of first appearance over
    the triangles' local edges (1,2), (2,0), (0,1)."""
    tris, nv = mesh.triangles, len(mesh.vertices)
    edges = {}
    cell_dofs = np.zeros((len(tris), 6), dtype=int)
    cell_dofs[:, :3] = tris
    for t, tri in enumerate(tris):
        for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
            key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
            if key not in edges:
                edges[key] = nv + len(edges)
            cell_dofs[t, 3 + k] = edges[key]
    loop = mesh.boundary_loop
    bd = []
    for i in range(len(loop)):
        a, b = loop[i], loop[(i + 1) % len(loop)]
        bd += [a, edges[(min(a, b), max(a, b))]]
    return cell_dofs, nv + len(edges), np.asarray(bd)


@pytest.mark.parametrize("b,h", [(ellipse_boundary(100), 0.1),
                                 (disk_boundary(48), 0.2)])
def test_p2_numbering_matches_oracle(b, h):
    mesh = triangulate(b, h)
    space = build_space(mesh, 2)
    cell_dofs, dof_count, bdofs = p2_numbering_oracle(mesh)
    assert space.dof_count == dof_count
    assert np.array_equal(space.cell_dofs, cell_dofs)
    assert np.array_equal(space.boundary_dofs, bdofs)


def boundary_mass_oracle(space):
    """Segment-by-segment loop appending the boundary mass triples."""
    loop = space.mesh.boundary_loop
    n = len(loop)
    pts = space.mesh.vertices[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    brow, bcol, bval = [], [], []
    phis = np.stack([fem._p2_1d(t) for t in fem._G1])
    mref = np.einsum("q,qi,qj->ij", fem._W1, phis, phis)
    for i in range(n):
        dofs = (space.boundary_dofs[2 * i],
                space.boundary_dofs[(2 * i + 2) % (2 * n)],
                space.boundary_dofs[2 * i + 1])
        for ii in range(3):
            for jj in range(3):
                brow.append(dofs[ii])
                bcol.append(dofs[jj])
                bval.append(seg[i] * mref[ii, jj])
    return np.asarray(brow), np.asarray(bcol), np.asarray(bval)


@pytest.mark.parametrize("order", [2])
@pytest.mark.parametrize("b", [ellipse_boundary(100), wavy_boundary(),
                               two_graph_boundary()],
                         ids=["ellipse", "wavy", "two-graph"])
def test_boundary_mass_matches_oracle(b, order):
    space = build_space(triangulate(b, 0.1), order)
    _, B = assemble(space)
    rows, cols, vals = boundary_mass_oracle(space)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=B.shape).tocsr()
    assert np.array_equal(B.indptr, ref.indptr)
    assert np.array_equal(B.indices, ref.indices)
    assert B.data.tobytes() == ref.data.tobytes()


def stiffness_oracle(space):
    """K assembled with the local stiffness of every quadrature point
    taken by two einsums (gradients, then their Gram matrices)."""
    tris, v = space.mesh.triangles, space.mesh.vertices
    a = v[tris[:, 0]]
    e1 = v[tris[:, 1]] - a
    e2 = v[tris[:, 2]] - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    invT = np.empty((len(tris), 2, 2))
    invT[:, 0, 0] = e2[:, 1]
    invT[:, 0, 1] = -e1[:, 1]
    invT[:, 1, 0] = -e2[:, 0]
    invT[:, 1, 1] = e1[:, 0]
    gref = np.stack([fem._p2_grads(x, y) for x, y in fem._QP])
    qw = fem._QW
    nloc = gref.shape[1]
    kloc = np.zeros((len(tris), nloc, nloc))
    for q in range(len(qw)):
        g = np.einsum("tij,nj->tni", invT, gref[q]) / det[:, None, None]
        kloc += (qw[q] * np.abs(det)[:, None, None]
                 * np.einsum("tni,tmi->tnm", g, g))
    rows = np.repeat(space.cell_dofs, nloc, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nloc)).ravel()
    return sp.coo_matrix((kloc.ravel(), (rows, cols)),
                         shape=(space.dof_count, space.dof_count)).tocsr()


@pytest.mark.parametrize("order", [2])
@pytest.mark.parametrize("b", [ellipse_boundary(100), wavy_boundary(),
                               two_graph_boundary()],
                         ids=["ellipse", "wavy", "two-graph"])
def test_stiffness_matches_oracle(b, order):
    space = build_space(triangulate(b, 0.1), order)
    K, _ = assemble(space)
    ref = stiffness_oracle(space)
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    # P2 couplings that cancel to zero get an absolute floor at the same
    # relative size
    np.testing.assert_allclose(K.data, ref.data, rtol=1e-13,
                               atol=1e-13 * np.abs(ref.data).max())


def test_vanishing_couplings_are_exact_zeros():
    # a vertex and the midpoint of its opposite edge share only that
    # triangle, whose stiffness coupling them vanishes, so K + B, which
    # drops zeros, has the same pattern wherever the mesh lies
    mesh = triangulate(ellipse_boundary(), 0.1)
    space = build_space(mesh, 2)
    K, B = assemble(space)
    cd = space.cell_dofs
    assert np.all(K[cd[:, :3].ravel(), cd[:, 3:].ravel()] == 0.0)
    K2, B2 = assemble(build_space(dataclasses.replace(
        mesh, vertices=mesh.vertices + [0.3, -0.2]), 2))
    assert np.array_equal((K + B).indptr, (K2 + B2).indptr)
    assert np.array_equal((K + B).indices, (K2 + B2).indices)


def test_spectrum_independent_of_numbering():
    space, K, B = _solved(two_graph_boundary())
    q = np.random.default_rng(5).permutation(space.dof_count)

    def renumbered(A):
        A = A.tocoo()
        return sp.csr_matrix((A.data, (q[A.row], q[A.col])), shape=A.shape)

    other = dataclasses.replace(space, cell_dofs=q[space.cell_dofs],
                                boundary_dofs=q[space.boundary_dofs])
    a = solve_spectrum(space, K, B, 5)
    b = solve_spectrum(other, renumbered(K), renumbered(B), 5)
    np.testing.assert_allclose(b.eigenvalues[1:], a.eigenvalues[1:],
                               rtol=1e-12)
    assert abs(b.eigenvalues[0] - a.eigenvalues[0]) < 1e-12
    assert np.array_equal(a.b_boundary, b.b_boundary)
    w = a.eigenvalues
    gaps = np.minimum(np.diff(w, prepend=-np.inf), np.diff(w, append=np.inf))
    simple = gaps > 1e-6 * w[-1]
    assert simple.sum() >= 4
    signs = np.sign(np.sum(a.traces * b.traces, axis=0))
    assert np.abs((b.traces * signs - a.traces)[:, simple]).max() < 1e-8


def schur_oracle(space, K, B):
    """Complete spectrum of the dense Dirichlet-to-Neumann pencil: interior
    dofs eliminated by the Schur complement S = K_bb - K_bi K_ii^-1 K_ib,
    then a dense generalized eigh of (S, B_bb)."""
    bset = space.boundary_dofs
    iset = np.setdiff1d(np.arange(space.dof_count), bset)
    Kc = K.tocsc()
    Kib = Kc[np.ix_(iset, bset)].toarray()
    S = (Kc[np.ix_(bset, bset)].toarray()
         - Kib.T @ splu(Kc[np.ix_(iset, iset)].tocsc()).solve(Kib))
    Bbb = B.tocsc()[np.ix_(bset, bset)].toarray()
    return eigh(0.5 * (S + S.T), 0.5 * (Bbb + Bbb.T))


# the finer ellipse checks the factorization and Lanczos stopping nearer
# the benchmark's h = 0.035
ORACLE_CASES = [pytest.param(disk_boundary(100), 4, 0.1, id="disk"),
                pytest.param(ellipse_boundary(100, 1.0, 0.3), 5, 0.1,
                             id="flat-ellipse"),
                pytest.param(two_graph_boundary(), 5, 0.1, id="two-graph"),
                pytest.param(ellipse_boundary(), 5, 0.05,
                             id="ellipse-h0.05")]


def _solved(b, h=0.1):
    space = build_space(triangulate(b, h), 2)
    return (space,) + assemble(space)


@pytest.mark.parametrize("b,m,h", ORACLE_CASES)
def test_spectrum_matches_schur_oracle(b, m, h):
    # the disk's sigma_1..sigma_4 are two double pairs; m = 4 keeps both
    space, K, B = _solved(b, h)
    spec = solve_spectrum(space, K, B, m)
    w, y = schur_oracle(space, K, B)
    w, y = w[:m + 1], y[:, :m + 1]
    assert len(spec.eigenvalues) == m + 1
    assert abs(spec.eigenvalues[0] - w[0]) < 1e-10
    assert np.allclose(spec.eigenvalues[1:], w[1:], rtol=1e-10, atol=0)
    # the oracle's traces lie in the span of the solver's: B-orthogonal
    # projection onto that span reproduces them
    T, Bbb = spec.traces, spec.b_boundary
    assert np.abs(T @ (T.T @ Bbb @ y) - y).max() < 1e-8
    assert np.allclose(T.T @ Bbb @ T, np.eye(m + 1), atol=1e-8)


class _CountingLU:
    """A SuperLU factor that counts its solves."""

    def __init__(self, factor):
        self.factor = factor
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.factor.solve(rhs)


def test_eigensolve_work_bounded(monkeypatch):
    # the factor's fill and the number of Lanczos solves on the aspect-0.6
    # ellipse at the benchmark's h; with Lanczos run to machine precision
    # it took 44 solves, and factored in build_space's order the fill was
    # 1,155,054
    factors = []

    def counting_splu(*args, **kwargs):
        factors.append(_CountingLU(splu(*args, **kwargs)))
        return factors[-1]

    space, K, B = _solved(ellipse_boundary(), 0.035)
    monkeypatch.setattr(fem, "splu", counting_splu)
    solve_spectrum(space, K, B, 5)
    [lu] = factors
    assert lu.factor.L.nnz + lu.factor.U.nnz <= 1087478
    assert lu.solves <= 33


def test_spectrum_repeatable():
    space, K, B = _solved(disk_boundary(100))
    a = solve_spectrum(space, K, B, 4)
    b = solve_spectrum(space, K, B, 4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.traces, b.traces)


def _unit_square_space():
    # the unit square as two triangles: P2 has 9 dofs, 8 on the boundary
    b = BoundaryPolyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
    return _solved(b, 10.0)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_factorization_failure_named(monkeypatch):
    space, K, B = _unit_square_space()
    monkeypatch.setattr(fem, "splu",
                        _raise(RuntimeError("Factor is exactly singular")))
    with pytest.raises(SolverFailure, match="factorization"):
        solve_spectrum(space, K, B, 1)


@pytest.mark.parametrize("exc", [
    ArpackError(-9999),
    ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((9, 0)))],
    ids=["arpack-error", "no-convergence"])
def test_lanczos_failure_named(monkeypatch, exc):
    space, K, B = _unit_square_space()
    monkeypatch.setattr(fem, "eigsh", _raise(exc))
    with pytest.raises(SolverFailure, match="Lanczos"):
        solve_spectrum(space, K, B, 1)


def test_too_many_eigenpairs_rejected():
    space, K, B = _unit_square_space()
    assert space.dof_count == 9 and len(space.boundary_dofs) == 8
    with pytest.raises(SolverFailure, match="Lanczos"):
        solve_spectrum(space, K, B, 7)
