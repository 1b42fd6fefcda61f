"""Shape derivatives of Steklov eigenvalues under polygon vertex velocities.

The boundary is the reconstructed polyline, and a velocity per vertex moves
it piecewise linearly.  The derivative is the polygon-exact Hadamard formula
of _pair_weights, integrated over the quadrature samples that the solver
leaves on its spectrum (BoundarySamples), plus the weights the samples
carry for a trial space that moves with the vertices.  Clustered
eigenvalues use the cluster matrix of _gradient_rows.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPolyline
from .graphs import GraphPair

CLUSTER_TOL = 1e-3


@dataclass(frozen=True)
class BoundarySamples:
    """Eigenfunctions sampled at boundary quadrature nodes of a polyline.

    Node i lies on polyline edge edge[i] at position lam[i] (0 at vertex
    edge[i], 1 at the next vertex) and carries the arclength quadrature
    weight weight[i].  Column j of u, ut and un holds eigenfunction j, its
    tangential derivative and its outward normal derivative at the nodes,
    with the eigenfunctions orthonormal in the boundary L2 product.
    basis_motion[a, b] holds the vertex-velocity weights (n_vertices, 2)
    that a solver whose trial functions move with the vertices adds to the
    pair (a, b) derivative (zero for a trial space fixed in the plane).
    """

    edge: np.ndarray
    lam: np.ndarray
    weight: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    un: np.ndarray
    basis_motion: np.ndarray


def cluster_indices(spec, k, cluster_tol=CLUSTER_TOL):
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
    """Unit tangent and outward normal of every polyline edge, for a loop
    of either orientation: the normal is the tangent turned clockwise on
    a counterclockwise loop, counterclockwise on a clockwise one."""
    v = b.vertices
    e = np.roll(v, -1, axis=0) - v
    el = np.linalg.norm(e, axis=1)
    tau = e / el[:, None]
    orient = 1.0 if b.area() > 0 else -1.0
    nrm = orient * np.column_stack([tau[:, 1], -tau[:, 0]])
    return tau, nrm, el


def _pair_weights(spec, a, bb, b: BoundaryPolyline):
    """Vertex-velocity weights of the pair (a, bb) shape derivative.

    Returns W of shape (n_vertices, 2) such that the derivative of the
    boundary functional under a vertex velocity field V (piecewise linear
    along the polyline) is sum_j V_j . W_j.  For harmonic u_a, u_b and
    sigma the mean of their eigenvalues,
      d sigma = int (u_a,tau u_b,tau + u_a,n u_b,n
                     - sigma (u_a u_b,n + u_b u_a,n)) V.n ds
                - sigma int (u_a u_b,tau + u_b u_a,tau) V.tau ds
                - sigma int u_a u_b div_tau V ds:
    the Reynolds derivative of int grad u_a . grad u_b dx less sigma times
    that of int u_a u_b ds.  The edge frames (tau, n) are constant per
    edge, so the formula is exact for the polygon, corners included.  The
    samples' basis_motion[a, bb] adds the change of the trial space.
    """
    s = spec.samples
    tau, nrm, el = _edge_frames(b)
    sig = 0.5 * (spec.eigenvalues[a] + spec.eigenvalues[bb])
    ua, ub = s.u[:, a], s.u[:, bb]
    ta, tb = s.ut[:, a], s.ut[:, bb]
    na, nb = s.un[:, a], s.un[:, bb]
    e = s.edge
    w = s.weight
    fA = w * (ta * tb + na * nb - sig * (ua * nb + ub * na))  # V.n
    fB = -w * sig * (ua * tb + ub * ta)                       # V.tau
    fC = -w * sig * ua * ub / el[e]                            # div_tau V
    vec = fA[:, None] * nrm[e] + fB[:, None] * tau[e]
    lo = (1.0 - s.lam)[:, None] * vec - fC[:, None] * tau[e]
    hi = s.lam[:, None] * vec + fC[:, None] * tau[e]
    nv = len(b)
    nxt = (e + 1) % nv
    return np.column_stack([
        np.bincount(e, lo[:, c], nv) + np.bincount(nxt, hi[:, c], nv)
        for c in (0, 1)]) + s.basis_motion[a, bb]


def _gradient_rows(spec, k, b, transform):
    """Gradient entries through a linear map of vertex-velocity weights.

    transform maps a weight array W (n_vertices, 2) to the vector of
    directional derivatives along the parametrization's basis velocities.
    Simple eigenvalue: derivative of the smooth branch through u_k.
    Clustered eigenvalue: entry r is the smallest eigenvalue of the cluster
    matrix M_r, the derivative of the cluster along coordinate r.  That is
    a heuristic, not a directional derivative: along a direction d the
    lowest branch moves at lambda_min(sum_r d_r M_r), which differs from
    sum_r d_r lambda_min(M_r) unless the M_r commute (on the disk the
    first-order gain predicted along d = g/|g| is 0.400 where finite
    differences give 0.100).
    """
    lo, hi = cluster_indices(spec, k)
    m = hi - lo + 1
    rows = {(a, bb): transform(_pair_weights(spec, lo + a, lo + bb, b))
            for a in range(m) for bb in range(a, m)}
    mats = np.empty((len(rows[0, 0]), m, m))
    for (a, bb), row in rows.items():
        mats[:, a, bb] = mats[:, bb, a] = row
    return np.linalg.eigvalsh(mats)[:, 0]


def support_gradient(spec, k, b: BoundaryPolyline) -> np.ndarray:
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

    return _gradient_rows(spec, k, b, transform)


def graph_gradient(spec, k, gp: GraphPair, b: BoundaryPolyline):
    """Gradient of sigma_k with respect to the two-graph variables, the
    lower-graph values p then the upper-graph values q (vertical vertex
    perturbations V = (0, chi_i)).

    b is gp.polyline(), the boundary that spec was solved on.
    """
    lower = gp.lower_vertex_indices()
    upper = gp.upper_vertex_indices()

    def transform(W):
        return np.concatenate([W[lower, 1], W[upper, 1]])

    return _gradient_rows(spec, k, b, transform)
