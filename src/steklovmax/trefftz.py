"""Mesh-free Steklov eigensolver: Rayleigh-Ritz over harmonic functions.

Every Steklov eigenfunction is harmonic, so the trial space is spanned by
Re p(z) and Im p(z) for the complex polynomials p of degree <= DEGREE,
plus one singular harmonic function per sharp corner.  Both forms of the
pencil are then integrals over the polygon's boundary,

    A_ij = int phi_i d_n phi_j ds  (= int grad phi_i . grad phi_j dx),
    B_ij = int phi_i phi_j ds,

evaluated by Gauss quadrature on every edge.  The polynomials come from
Arnoldi iteration at the quadrature nodes ("Vandermonde with Arnoldi",
Brubeck, Nakatsukasa and Trefethen, SIAM Review 2021), which keeps the
basis well conditioned and carries the derivatives p' along.  B is
factored by a block Cholesky QR of the weighted basis values: one pass
for the well-conditioned polynomial block, two block Gram-Schmidt passes
of the corner functions against it, and two Cholesky QR passes
(CholeskyQR2) for what is left of the ill-conditioned corner block.  A
convex support polygon's basis has no corner block.  The pencil is
solved by one dense symmetric eigensolve.  Ritz values bound
the polygon's exact eigenvalues from above, up to quadrature error.

At a corner of interior angle alpha the eigenfunctions behave like
r^gamma cos(gamma theta), gamma = pi / alpha, with theta measured from an
edge.  Polynomials approximate that only algebraically, and badly at
re-entrant corners (gamma < 1, unbounded gradient): on a wiggly two-graph
domain they leave sigma_1 2.7e-2 too high at degree 45, a bias an ascent
would exploit by sharpening such corners.  So every re-entrant corner,
and every convex one turning by CONVEX_MIN_TURN..CONVEX_MAX_TURN, adds
Im (w^gamma - w) / (gamma - 1), w the corner-centred coordinate with
its branch cut along the exterior bisector, and the edges at such a
corner carry Gauss rules graded towards it.  (A cut that crosses the
polygon elsewhere breaks Green's identity, and the antisymmetry guard
rejects the shape; no test shape or optimum has one.)  That brings the two-graph
domain to 3e-5 of fine FEM.  The corner functions move with the polygon,
and the shape derivative's samples carry that motion (basis_motion).  A
boundary residual ||d_n u - sigma u|| above RESIDUAL_TOL sigma rejects
the shapes the basis still does not resolve.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np
from scipy.linalg import blas, eigh, lapack

from .errors import SolverFailure
from .geometry import BoundaryPolyline, check_simple
from .gradients import BoundarySamples

# 91 polynomial basis functions: degree 45 resolves sigma_1..sigma_5 of a
# five-lobed star (r = 1 + 0.15 cos 5 theta) to 8e-5 relative, degree 30
# to 5e-4
DEGREE = 45
# Gauss points on an edge of length l: GAUSS_MIN + DEGREE * l / sqrt(area),
# capped at DEGREE + 1 (exact for the integrands, of degree at most
# 2 DEGREE).  The square root of the area, not the diameter, sets the
# scale because polynomials vary fastest at the tips of thin domains.
GAUSS_MIN = 6
# ||A - A^T|| / ||A|| above this means the quadrature does not resolve the
# basis: the ascents' shapes give 1e-15..1e-9, and too few Gauss points,
# or trial shapes folded into spikes, give 1e-7..1 together with wrong
# Ritz values
ANTISYMMETRY_TOL = 1e-7
# corners that get a singular basis function: every re-entrant turn above
# REENTRANT_MIN_TURN (smaller ones are straight to rounding), and convex
# turns between CONVEX_MIN_TURN and CONVEX_MAX_TURN (gamma up to 1.5;
# sharper corners are smooth to second order, and a rectangle's gamma = 2
# is regular).  Convex polygons of the support ascent turn by 2 pi / N at
# every vertex and are resolved by polynomials alone (to 1e-5 at
# N = 100); the wiggly two-graph domain's convex corners of 10-29 degrees
# still cost it 3e-5.
REENTRANT_MIN_TURN = np.radians(0.5)
CONVEX_MIN_TURN = np.radians(10.0)
CONVEX_MAX_TURN = np.radians(60.0)
# An edge half next to a corner carries the Gauss points of a plain edge
# of twice the edge's length (capped at GRADING * DEGREE + 1, exact for
# the polynomials), in s with the position along the half s^GRADING: the
# shape derivative integrates |grad u|^2 ~ r^(2 gamma - 2) there, which
# GRADING = 2 leaves 1e-5 wrong against finite differences, 3 at 1e-7.
GRADING = 3
# ||d_n u - sigma u|| / sigma over the boundary, for B-normalized u, above
# this means the basis does not resolve the eigenfunction.  The test
# shapes and the non-convex optima give 0.02-0.07 (eigenvalues within
# 3e-5 of fine FEM); trial shapes of the non-convex ascents give up to 0.1
# at errors up to 1.3e-4, and 0.1-0.25 at 1.5e-4..4.5e-4; polynomials
# alone on the wiggly two-graph domain give 0.86 at 2.7e-2.
RESIDUAL_TOL = 0.1
# corner functions are evaluated this many at a time
CORNER_BLOCK = 16
# _r_factor takes one Cholesky QR pass on the polynomial block P when
# LAPACK's estimate of cond(R_pp) is at most this: P R_pp^-1 is then
# orthonormal to eps cond^2 < 1e-11.  The corner block always takes two.
ONE_PASS_COND = 1e2


@dataclass(frozen=True)
class HarmonicSpectrum:
    """The m+1 smallest Ritz values and their eigenfunctions' samples.

    samples holds the B-orthonormal eigenfunctions and their tangential
    and normal derivatives at the quadrature nodes.  Only the shape
    derivative reads it, and its corner terms take a second pass over the
    corner functions, so it is built on first access.
    """

    eigenvalues: np.ndarray
    build_samples: Callable[[], BoundarySamples] = field(repr=False)

    @cached_property
    def samples(self) -> BoundarySamples:
        return self.build_samples()


@lru_cache(maxsize=None)
def _rule(n, toward):
    """n-point Gauss rule on [0, 1]: positions x and weights (read-only).

    toward is 0 for a plain rule, -1 (+1) for one graded towards 0 (1):
    the substitution x = s^GRADING turns a corner's r^beta into the
    smoother s^(GRADING (beta + 1) - 1).
    """
    s, ws = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * (s + 1.0), 0.5 * ws
    if toward < 0:
        x, dx = s ** GRADING, GRADING * s ** (GRADING - 1)
    elif toward > 0:
        x = 1.0 - (1.0 - s) ** GRADING
        dx = GRADING * (1.0 - s) ** (GRADING - 1)
    else:
        x, dx = s, np.ones(n)
    w = ws * dx
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quadrature(ell, size, graded):
    """Gauss nodes on every edge of a polygon of area size^2.

    ell holds the edge lengths (edge i runs from vertex i to i + 1) and
    graded flags the vertices that carry a corner function.  An edge with
    a graded end is split at its midpoint and each half graded towards its
    graded end.  A panel gets the points of a plain edge of its length, a
    graded one those of an edge four times as long (see GRADING).  Returns
    (edge, lam, weight): the edge of each node, its position along the
    edge (0 at vertex edge, 1 at the next vertex) and its arclength
    weight.  Nodes are ordered by edge and position.
    """
    start, end = graded, np.roll(graded, -1)
    # two panels per edge in edge order, [a, b] = [0, 1/2] and [1/2, 1] on
    # a split edge; on a whole edge [0, 1] and an empty [1, 1]
    mid = np.where(start | end, 0.5, 1.0)
    a = np.column_stack([np.zeros(len(ell)), mid]).ravel()
    b = np.column_stack([mid, np.ones(len(ell))]).ravel()
    toward = np.column_stack([-start.astype(int), end.astype(int)]).ravel()
    # a panel gets the points of a plain edge of length span; an empty none
    span = (b - a) * ell.repeat(2) * np.where(toward, 4, 1)
    cap = np.where(toward, GRADING * DEGREE + 1, DEGREE + 1) * (b > a)
    npts = np.minimum(np.ceil(GAUSS_MIN + DEGREE * span / size), cap)
    npts = npts.astype(int)
    rules = [_rule(p, t) for p, t in zip(npts.tolist(), toward.tolist())
             if p > 0]
    x = np.concatenate([r[0] for r in rules])
    wx = np.concatenate([r[1] for r in rules])
    edge = np.repeat(np.arange(len(ell)), 2).repeat(npts)
    h = (b - a).repeat(npts)
    return edge, a.repeat(npts) + h * x, h * wx * ell[edge]


def _arnoldi(zeta, w):
    """Polynomials q_0..q_DEGREE orthonormal in sum_i w_i q(zeta_i) conj(.)
    and their derivatives, at the nodes zeta, times sqrt(w).

    The rows V_k = sqrt(w) q_k are orthonormal in the plain inner product.
    q_{k+1} is zeta q_k orthogonalized against q_0..q_k (one classical
    Gram-Schmidt pass: a second leaves the basis's condition unchanged,
    and _r_factor orthonormalizes it anyway), so zeta q_k = sum_j H[j, k]
    q_j.  Differentiating that recurrence gives q_k' = sum_j T[j, k] q_j
    with T strictly upper triangular; column k + 1 of T needs only the
    columns of H up to k, so it is built in the same loop.

    A step is two contiguous matrix-vector products and allocates no
    node-length temporaries.
    Returns (V, T^T V), of shape (DEGREE + 1, nodes): row k holds
    sqrt(w) q_k and sqrt(w) q_k'.
    """
    V = np.empty((DEGREE + 1, len(zeta)), dtype=complex)
    H = np.zeros((DEGREE + 1, DEGREE + 1), dtype=complex)
    T = np.zeros_like(H)
    V[0] = np.sqrt(w / w.sum())
    work = np.empty(len(zeta), dtype=complex)
    for k in range(DEGREE):
        v = V[k + 1]
        np.multiply(zeta, V[k], out=v)
        # h = V^H v, through conj(v): conjugating one row, not k + 1
        h = np.conjugate(V[:k + 1] @ np.conjugate(v, out=work))
        np.matmul(h, V[:k + 1], out=work)
        v -= work
        H[:k + 1, k] = h
        H[k + 1, k] = norm = np.sqrt(np.vdot(v, v).real)
        v *= 1.0 / norm
        # q_k + zeta q_k' = sum_j H[j, k] q_j'
        rhs = H @ T[:, k] - T[:, :k + 1] @ h
        rhs[k] += 1.0
        T[:, k + 1] = rhs / norm
    return V, T.T @ V


def _corners(dz, orient):
    """Vertices that get a corner function: flags per vertex, indices, and
    per corner gamma = pi / alpha (above 1/2, as a turn lies in (-pi, pi])
    and the unit complex direction of the interior bisector."""
    turn = orient * np.angle(dz / np.roll(dz, 1))
    graded = (turn < -REENTRANT_MIN_TURN) | (
        (turn > CONVEX_MIN_TURN) & (turn <= CONVEX_MAX_TURN))
    at = np.flatnonzero(graded)
    gamma = np.pi / (np.pi - turn[at])
    bisector = dz[at] / np.abs(dz[at]) * np.exp(
        0.5j * orient * (np.pi - turn[at]))
    return graded, at, gamma, bisector


def _corner_blocks(nodes, zc, gamma, rho):
    """f_c = (w^gamma - w) / (gamma - 1) at the nodes, for blocks of
    CORNER_BLOCK corners, with w = (z - z_c) rho on the principal branch,
    which puts the cut on the exterior bisector when rho is 1 over the
    interior bisector's direction (times a length scale).

    Yields (cols, w, log w, w^gamma, f, f') with complex arrays of
    one column per corner of the block cols.  The basis function is
    Im f_c; subtracting the polynomial w keeps it well conditioned as
    gamma nears 1 (f_c -> w log w).  Blocks bound the memory.
    """
    for lo in range(0, len(zc), CORNER_BLOCK):
        cols = slice(lo, lo + CORNER_BLOCK)
        g = gamma[cols]
        w = (nodes[:, None] - zc[cols]) * rho[cols]
        # log w and w^(gamma - 1) through real parts: numpy's complex log
        # and exp take three times as long
        logw = np.empty_like(w)
        logw.real = 0.5 * np.log(w.real ** 2 + w.imag ** 2)
        logw.imag = np.arctan2(w.imag, w.real)
        mag = np.exp((g - 1.0) * logw.real)
        arg = (g - 1.0) * logw.imag
        e = np.empty_like(w)
        e.real = mag * np.cos(arg)
        e.imag = mag * np.sin(arg)
        wg = w * e
        eps = g - 1.0
        yield cols, w, logw, wg, (wg - w) / eps, (g * e - 1.0) / eps


def _r_factor(X, npoly):
    """Upper triangular R with X^T X = R^T R, by block Cholesky QR of
    X = [P, C], P its first npoly (polynomial) columns and C the corner
    functions:

        R = [[R_pp, R_pc],
             [0,    R_cc]].

    R_pp is one Cholesky QR pass on P, and a second one on P R_pp^-1 when
    cond(R_pp) exceeds ONE_PASS_COND: the Arnoldi polynomials have cond
    2..5, and one pass leaves P R_pp^-1 orthonormal to about eps cond^2.
    C is orthogonalized against P by two block classical Gram-Schmidt
    passes, S = R_pp^-T P^T C, C <- C - P R_pp^-1 S, R_pc += S (a second
    pass recovers what the first loses to cancellation when a corner
    function is nearly polynomial), and R_cc is CholeskyQR2 on what is
    left of C (as accurate as a Householder QR for cond < 1e7; the corner
    functions take the non-convex ascents' bases to 1e4..1e6).  A
    corner-free basis, every convex polygon's, is one pass on P.  X is
    F-contiguous, the layout the BLAS calls read without a copy.
    """
    P, C = X[:, :npoly], X[:, npoly:]
    R = _cholesky(blas.dsyrk(1.0, P, trans=1))
    rcond, _ = lapack.dtrcon(R)
    if rcond * ONE_PASS_COND < 1.0:
        R = _second_pass(P, R)
    if C.shape[1] == 0:
        return R
    full = np.zeros((X.shape[1], X.shape[1]), order="F")
    full[:npoly, :npoly] = R
    for _ in range(2):
        S = blas.dtrsm(1.0, R, blas.dgemm(1.0, P, C, trans_a=1), trans_a=1)
        C = blas.dgemm(-1.0, P, blas.dtrsm(1.0, R, S), beta=1.0, c=C)
        full[:npoly, npoly:] += S
    full[npoly:, npoly:] = _second_pass(
        C, _cholesky(blas.dsyrk(1.0, C, trans=1)))
    return full


def _second_pass(X, R):
    """R_2 R for R_2 the Cholesky QR factor of X R^-1, the second pass of
    CholeskyQR2 after X^T X = R^T R."""
    # X R^-1 as a right-sided solve: OpenBLAS takes about two thirds of
    # the time of the left-sided R^-T X^T
    Y = blas.dtrsm(1.0, R, X, side=1)
    return blas.dtrmm(1.0, _cholesky(blas.dsyrk(1.0, Y, trans=1)), R)


def _cholesky(gram):
    """Upper Cholesky factor, lower triangle zero, of a Gram matrix whose
    upper triangle is set; gram is overwritten."""
    R, info = lapack.dpotrf(gram, overwrite_a=1)
    if info != 0:
        raise SolverFailure("boundary mass matrix singular on the harmonic "
                            "basis")
    return R


def _samples(edge, lam, w, u, un, ut, nodes, tau, corners, coef, sigma,
             dz, orient):
    """BoundarySamples of the Ritz vectors, given their values u, normal
    derivatives un and the tangential derivatives ut of their polynomial
    part; coef holds their corner functions' coefficients.

    Adds the corner part of ut and, as basis_motion, the vertex-velocity
    weights of the first-order change of the trial space for every pair
    of Ritz vectors: an array (m+1, m+1, n_vertices, 2).

    Corner function c moves with its vertex (translation), with the
    bisector of its two edges (rotation) and with their turn (gamma).
    Along such a change d phi the pair (a, b) form moves by
    int d u_a (d_n u_b - s u_b) + d u_b (d_n u_a - s u_a) ds, s the pair's
    mean eigenvalue, by Green's identity for the harmonic d u; the
    polynomial span is invariant, and so is the span under the scale of w.
    """
    at, zc, gamma, rho = corners
    nv, nm = len(dz), len(sigma)
    W = np.zeros((nv, 2, nm, nm))
    ut = ut.copy()
    wr = w[:, None] * (un - u * sigma)
    wu = w[:, None] * u
    K = np.empty((4, len(at), nm))
    L = np.empty((4, len(at), nm))
    for cols, w_c, logw, wg, f, df in _corner_blocks(nodes, zc, gamma, rho):
        g = gamma[cols]
        ut += (df * (rho[cols] * tau[:, None])).imag @ coef[cols]
        ddz = -df * rho[cols]                           # d f / d z_c
        for p, fn in enumerate((
                ddz.imag, ddz.real,                     # d / d (x_c, y_c)
                -(g * f + w_c).real,                    # d / d bisector
                ((wg * logw - f) / (g - 1.0)).imag)):   # d / d gamma
            K[p, cols] = fn.T @ wr
            L[p, cols] = fn.T @ wu
    half_gap = 0.5 * (sigma[None, :] - sigma[:, None])      # [a, b]
    H = coef[None, :, :, None] * (K[:, :, None, :]
                                  + half_gap[None, None] * L[:, :, None, :])
    G = H + H.transpose(0, 1, 3, 2)          # (param, corner, a, b)
    # edge angle theta_e moves by perp_e . (V_{e+1} - V_e); the bisector
    # angle is the mean of the corner's two edge angles and the turn is
    # orient times their difference, with d gamma = gamma^2 / pi d turn
    perp = np.column_stack([-dz.imag, dz.real]) / (np.abs(dz) ** 2)[:, None]
    dgamma = orient * gamma ** 2 / np.pi
    out_coef = 0.5 * G[2] + dgamma[:, None, None] * G[3]
    in_coef = 0.5 * G[2] - dgamma[:, None, None] * G[3]
    np.add.at(W, at, np.stack([G[0], G[1]], axis=1))
    for e, a in ((at, out_coef), ((at - 1) % nv, in_coef)):
        term = perp[e][:, :, None, None] * a[:, None]
        np.add.at(W, (e + 1) % nv, term)
        np.add.at(W, e, -term)
    return BoundarySamples(edge=edge, lam=lam, weight=w, u=u, ut=ut, un=un,
                           basis_motion=W.transpose(2, 3, 0, 1))


def solve_harmonic(b: BoundaryPolyline, m: int) -> HarmonicSpectrum:
    """The m+1 smallest Steklov Ritz pairs of the polygon b.

    Either orientation of the vertex loop is accepted.  Raises
    SelfIntersection for a polygon that is not simple, and SolverFailure
    when the quadrature does not resolve the basis (the boundary form A
    is not symmetric to ANTISYMMETRY_TOL), when B is numerically singular
    on the basis, or when an eigenpair leaves a boundary residual
    ||d_n u - sigma u|| above RESIDUAL_TOL sigma.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    check_simple(b)
    v = b.vertices
    area = b.area()
    orient = 1.0 if area > 0 else -1.0
    size = np.sqrt(abs(area))
    z = v[:, 0] + 1j * v[:, 1]
    dz = np.roll(z, -1) - z
    ell = np.abs(dz)
    tau = dz / ell
    graded, at, gamma, bisector = _corners(dz, orient)
    npoly = 2 * DEGREE + 1
    nbasis = npoly + len(at)
    if m + 1 > nbasis:
        raise SolverFailure(f"{m + 1} eigenpairs requested from a basis "
                            f"of {nbasis} harmonic functions")
    edge, lam, w = _quadrature(ell, size, graded)
    nodes = z[edge] + lam * dz[edge]
    tau_q = tau[edge]
    center = z.mean()
    scale = np.max(np.abs(z - center))
    corners = (at, z[at], gamma, 1.0 / (bisector * scale))
    # Xt and Xnt hold, one row per function, the basis Re q_0, Re q_1..q_M,
    # Im q_1..q_M and the corner functions, and their outward normal
    # derivatives, times the square roots of the weights.  Along a unit
    # direction e the derivatives of Re q and Im q are Re and Im of q'(z) e,
    # and the outward normal of a counterclockwise loop is -i tau.
    root = np.sqrt(w)
    V, DV = _arnoldi((nodes - center) / scale, w)
    G = DV[1:] * (tau_q / scale)
    Xt = np.empty((nbasis, len(nodes)))
    Xt[0] = V[0].real
    Xt[1:DEGREE + 1] = V[1:].real
    Xt[DEGREE + 1:npoly] = V[1:].imag
    del V, DV
    Xnt = np.empty_like(Xt)
    Xnt[0] = 0.0
    np.multiply(G.imag, orient, out=Xnt[1:DEGREE + 1])
    np.multiply(G.real, -orient, out=Xnt[DEGREE + 1:npoly])
    for cols, _, _, _, f, df in _corner_blocks(nodes, *corners[1:]):
        rows = slice(npoly + cols.start, npoly + cols.stop)
        Xt[rows] = f.imag.T * root
        Xnt[rows] = (df * (corners[3][cols] * tau_q[:, None])).real.T * (
            -orient * root)
    A = Xt @ Xnt.T
    # a NaN or inf anywhere in Xt or Xnt makes skew NaN, which fails this
    # guard; only that lets the LAPACK calls below skip their finiteness
    # checks, so it must stay first
    skew = np.linalg.norm(A - A.T) / np.linalg.norm(A)
    if not skew <= ANTISYMMETRY_TOL:
        raise SolverFailure(
            f"boundary quadrature under-resolved for degree {DEGREE}: "
            f"||A - A^T|| / ||A|| = {skew:.1e} > {ANTISYMMETRY_TOL:.0e} "
            f"with {len(nodes)} Gauss nodes on {len(v)} edges")
    R = _r_factor(Xt.T, npoly)
    rdiag = np.abs(np.diag(R))
    if rdiag.min() <= 1e-13 * rdiag.max():
        raise SolverFailure("boundary mass matrix singular on the harmonic "
                            "basis")
    # B = R^T R, so the pencil (A, B) becomes R^-T A R^-1 with A
    # symmetrized: ((A + A^T) R^-1)^T R^-1, by two right-sided solves
    Y = blas.dtrsm(1.0, R, A + A.T, side=1)
    C = blas.dtrsm(1.0, R, Y.T, side=1)
    sigma, Y = eigh(0.25 * (C + C.T), subset_by_index=(0, m),
                    check_finite=False)
    coef = blas.dtrsm(1.0, R, Y)
    root = root[:, None]
    u, un = (Xt.T @ coef) / root, (Xnt.T @ coef) / root
    res = np.sqrt(w @ (un - u * sigma) ** 2)
    rel = res / np.maximum(sigma, 1.0 / size)
    if not np.all(rel <= RESIDUAL_TOL):
        j = int(np.argmax(rel))
        raise SolverFailure(
            f"eigenfunction {j} not resolved: ||d_n u - sigma u|| / sigma "
            f"= {rel[j]:.2f} > {RESIDUAL_TOL} with {len(at)} corner "
            f"functions on {len(v)} vertices")
    ut = (G.T @ (coef[1:DEGREE + 1] - 1j * coef[DEGREE + 1:npoly])).real
    ut /= root
    return HarmonicSpectrum(sigma, partial(
        _samples, edge, lam, w, u, un, ut, nodes, tau_q, corners,
        coef[npoly:], sigma, dz, orient))
