"""Shape derivatives of Steklov eigenvalues under polygon vertex velocities.

The boundary is the reconstructed polyline, and a velocity per vertex moves
it piecewise linearly.  The derivative is the polygon-exact Hadamard formula
of _pair_weights, integrated edgewise over the P2 boundary dofs with the
normal-derivative square replaced by sigma^2 u^2 through the boundary
condition.  Clustered eigenvalues use the cluster matrix of _gradient_rows.
"""

import numpy as np

from .errors import ClusteredEigenvalue
from .fem import SteklovSpectrum
from .geometry import BoundaryField, BoundaryPolyline
from .graphs import GraphPair

CLUSTER_TOL = 1e-3


def _vertex_arcs(spec: SteklovSpectrum):
    """Arclength of each polyline vertex along the mesh boundary loop."""
    space = spec.space
    mesh = space.mesh
    loop_arcs = mesh.boundary_arclengths()
    return loop_arcs[mesh.boundary_vertex_map]


def _interval_lengths(spec: SteklovSpectrum):
    space = spec.space
    arc = space.boundary_arc
    pts = space.dof_coords[space.boundary_dofs]
    seg = np.diff(arc)
    last = np.linalg.norm(pts[0] - pts[-1])
    return np.concatenate([seg, [last]])


def cluster_indices(spec: SteklovSpectrum, k, cluster_tol=CLUSTER_TOL):
    """Contiguous index range of eigenvalues within cluster_tol of sigma_k."""
    w = spec.eigenvalues
    scale = max(abs(w[k]), 1e-12)
    lo = k
    while lo > 1 and abs(w[lo] - w[lo - 1]) < cluster_tol * scale:
        lo -= 1
    hi = k
    while hi + 1 < len(w) and abs(w[hi + 1] - w[hi]) < cluster_tol * scale:
        hi += 1
    return lo, hi


def _edge_frames(b: BoundaryPolyline):
    """Unit tangent and outward normal of every polyline edge."""
    v = b.vertices
    e = np.roll(v, -1, axis=0) - v
    el = np.linalg.norm(e, axis=1)
    safe = np.where(el < 1e-300, 1.0, el)
    tau = e / safe[:, None]
    nrm = np.column_stack([tau[:, 1], -tau[:, 0]])
    return tau, nrm, el


def _interval_geometry(spec: SteklovSpectrum, b: BoundaryPolyline):
    """Boundary-dof interval data for edgewise integration.

    Returns (L, edge, lam0, lam1, span): per interval its length, the
    polyline edge it lies on, the barycentric positions of its endpoints
    along that edge, and the edge's arclength span.
    """
    arc = spec.space.boundary_arc
    L = _interval_lengths(spec)
    arcs_v = _vertex_arcs(spec)
    total = float(arc[-1] + L[-1])
    arcs_ext = np.concatenate([arcs_v, [arcs_v[0] + total]])
    edge = np.searchsorted(arcs_v, arc + 1e-12 * max(total, 1.0),
                           side="right") - 1
    edge = np.clip(edge, 0, len(b) - 1)
    a0 = arcs_ext[edge]
    span = arcs_ext[edge + 1] - a0
    span = np.where(span < 1e-300, 1.0, span)
    lam0 = (arc - a0) / span
    lam1 = (arc + L - a0) / span
    return L, edge, lam0, lam1, span


def _pair_weights(spec: SteklovSpectrum, a, bb, b: BoundaryPolyline, geom):
    """Vertex-velocity weights of the pair (a, bb) shape derivative.

    Returns W of shape (n_vertices, 2) such that the derivative of the
    boundary functional under a vertex velocity field V (piecewise linear
    along the polyline) is sum_j V_j . W_j.  The polygon-exact Hadamard
    formula is used: for harmonic eigenfunctions,
      d sigma = int (u_tau.u_tau - sigma^2 u u) V.n ds
                - sigma int (u_a u_tau_b + u_b u_tau_a) V.tau ds
                - sigma int u_a u_b div_tau V ds,
    with edge frames (tau, n) constant per edge, so the formula is exact for
    the polygon and captures the corner effects of the discrete
    parametrization.
    """
    L, edge, lam0, lam1, span = geom
    tau, nrm, _ = _edge_frames(b)
    sig = 0.5 * (spec.eigenvalues[a] + spec.eigenvalues[bb])
    ua, ub = spec.traces[:, a], spec.traces[:, bb]
    ta, tb = spec.tangential[:, a], spec.tangential[:, bb]
    fA = ta * tb - sig**2 * ua * ub       # multiplies V.n
    fB = -sig * (ua * tb + ub * ta)       # multiplies V.tau
    fC = -sig * ua * ub                   # multiplies div_tau V
    nv = len(b)
    m1 = np.roll(np.arange(len(L)), -1)

    W = np.zeros((nv, 2))
    j1 = (edge + 1) % nv
    for f, vecs in ((fA, nrm), (fB, tau)):
        f0, f1 = f, f[m1]
        cg0 = L / 6.0 * (2 * f0 + f1)
        cg1 = L / 6.0 * (f0 + 2 * f1)
        w_lo = cg0 * (1 - lam0) + cg1 * (1 - lam1)
        w_hi = cg0 * lam0 + cg1 * lam1
        np.add.at(W, edge, w_lo[:, None] * vecs[edge])
        np.add.at(W, j1, w_hi[:, None] * vecs[edge])
    intC = L / 2.0 * (fC + fC[m1]) / span
    np.add.at(W, edge, -intC[:, None] * tau[edge])
    np.add.at(W, j1, intC[:, None] * tau[edge])
    return W


def _gradient_rows(spec, k, b, transform, cluster_tol):
    """Gradient entries through a linear map of vertex-velocity weights.

    transform maps a weight array W (n_vertices, 2) to the vector of
    directional derivatives along the parametrization's basis velocities.
    Simple eigenvalue: derivative of the smooth branch through u_k.
    Clustered eigenvalue: per coordinate the minimum eigenvalue of the
    cluster matrix.  For k at the bottom of the cluster this is the exact
    one-sided derivative (sigma_k follows the lowest splitting branch);
    higher in the cluster it is the conservative lower bound, so the
    ascent cannot overshoot across a branch crossing.
    """
    lo, hi = cluster_indices(spec, k, cluster_tol)
    geom = _interval_geometry(spec, b)
    if lo == hi:
        return transform(_pair_weights(spec, k, k, b, geom))
    m = hi - lo + 1
    rows = {}
    for a in range(m):
        for bb in range(a, m):
            rows[(a, bb)] = transform(_pair_weights(spec, lo + a, lo + bb, b, geom))
    n_entries = len(next(iter(rows.values())))
    grads = np.zeros(n_entries)
    mat = np.zeros((m, m))
    for r in range(n_entries):
        for a in range(m):
            for bb in range(a, m):
                mat[a, bb] = rows[(a, bb)][r]
                mat[bb, a] = mat[a, bb]
        grads[r] = np.linalg.eigvalsh(mat)[0]
    return grads


def vertex_field_derivative(spec: SteklovSpectrum, k, b: BoundaryPolyline,
                            field, cluster_tol=CLUSTER_TOL) -> float:
    """Derivative of a simple sigma_k under a per-vertex velocity field.

    field holds one 2D velocity per polyline vertex (a BoundaryField or an
    (n, 2) array); the boundary moves piecewise linearly.
    Raises ClusteredEigenvalue when the gap test fails.
    """
    lo, hi = cluster_indices(spec, k, cluster_tol)
    if lo != hi:
        raise ClusteredEigenvalue(
            f"sigma_{k} clusters with indices [{lo}, {hi}]")
    vals = field.values if isinstance(field, BoundaryField) else \
        np.asarray(field, dtype=float)
    if vals.shape != (len(b), 2):
        raise ValueError("field must hold one 2D velocity per vertex")
    geom = _interval_geometry(spec, b)
    W = _pair_weights(spec, k, k, b, geom)
    return float(np.sum(vals * W))


def support_gradient(spec: SteklovSpectrum, k, b: BoundaryPolyline,
                     cluster_tol=CLUSTER_TOL) -> np.ndarray:
    """Gradient of sigma_k with respect to every support value p_i.

    Entry i is the derivative under the exact vertex velocity of the
    reconstruction: raising p_i moves vertex i along (cos theta_i,
    sin theta_i) and shears the neighbors tangentially through the
    finite-difference p'; clusters are handled per _gradient_rows.
    """
    n = len(b)
    theta = 2.0 * np.pi * np.arange(n) / n
    c, s = np.cos(theta), np.sin(theta)
    nth = np.column_stack([c, s])
    tth = np.column_stack([-s, c])
    half_h = n / (4.0 * np.pi)    # 1/(2h) for the support grid step

    def transform(W):
        wn = np.einsum("ij,ij->i", nth, W)
        wt = np.einsum("ij,ij->i", tth, W)
        return wn + half_h * (np.roll(wt, 1) - np.roll(wt, -1))

    return _gradient_rows(spec, k, b, transform, cluster_tol)


def graph_gradient(spec: SteklovSpectrum, k, gp: GraphPair,
                   cluster_tol=CLUSTER_TOL):
    """Gradients of sigma_k with respect to lower-graph values p and
    upper-graph values q (vertical vertex perturbations V = (0, chi_i))."""
    b = gp.polyline()
    lower = gp.lower_vertex_indices()
    upper = gp.upper_vertex_indices()

    def transform(W):
        return np.concatenate([W[lower, 1], W[upper, 1]])

    g = _gradient_rows(spec, k, b, transform, cluster_tol)
    n = gp.n
    return g[:n], g[n:]
