"""Projected gradient ascent maximizing Steklov eigenvalues at fixed diameter.

Convex mode optimizes the support values over the convexity/width/anchor
polyhedron; non-convex mode optimizes the two-graph values under the
ordering and box constraints.  A trial step whose projection, boundary,
mesh or eigensolve fails is rejected and the step halved.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import build_constraint_set, project
from .errors import (DegenerateBoundary, MeshFailure, NoAscent,
                     ProjectionFailure, SelfIntersection, SolverFailure)
from .fem import SteklovSpectrum, assemble, build_space, solve_spectrum
from .geometry import (BoundaryPolyline, DiameterReport, SupportVector,
                       AngleGrid, compute_diameter, reconstruct_boundary)
from .gradients import (CLUSTER_TOL, cluster_indices, graph_gradient,
                        support_gradient)
from .graphs import GraphPair
from .meshing import triangulate

STEP_MIN = 1e-12
STEP_GROW_CAP = 16.0
# failures of one candidate point: the step is rejected, not the run
REJECTED = (ProjectionFailure, SelfIntersection, DegenerateBoundary,
            MeshFailure, SolverFailure)


@dataclass(frozen=True)
class OptimOptions:
    """Knobs of the ascent loop (defaults follow the reference setup)."""

    k: int = 1
    n_angles: int = 200
    diameter: float = 2.0
    max_iters: int = 500
    step0: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    stop_tol: float = 1e-7
    stop_window: int = 10
    cluster_tol: float = CLUSTER_TOL
    mesh_h_factor: float = 0.05
    p_min_factor: float = 1e-3
    convexity_floor_factor: float = 5e-3
    graph_gap_factor: float = 1e-3
    restarts: int = 3
    restart_scale: float = 0.02
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_angles % 2 != 0 or self.n_angles < 8:
            raise ValueError("n_angles must be even and >= 8")
        for name in ("diameter", "max_iters", "step0", "backtrack", "armijo",
                     "stop_tol", "cluster_tol", "mesh_h_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def target_h(self):
        return self.mesh_h_factor * self.diameter


@dataclass
class Evaluation:
    """One solved candidate: geometry, spectrum slice, product objective."""

    boundary: BoundaryPolyline
    eigenvalues: np.ndarray
    spectrum: object
    diameter: DiameterReport

    def objective(self, k):
        return float(self.eigenvalues[k] * self.diameter.diameter)


@dataclass
class OptimState:
    """Result of an ascent run; variables hold the best feasible iterate."""

    variables: object
    objective_history: list
    eigenvalues: np.ndarray
    diameter: DiameterReport
    boundary: BoundaryPolyline
    active_rows: dict
    iterations: int
    converged: bool
    message: str = ""


def solve_boundary(b: BoundaryPolyline, target_h, m) -> SteklovSpectrum:
    """Mesh one boundary and solve its m+1 smallest P2 Steklov eigenpairs.

    The only mesh -> space -> assemble -> solve pipeline.  The layer entry
    points are looked up in this module's namespace at call time, which is
    where perfbench/tracing.py wraps them.
    """
    mesh = triangulate(b, target_h)
    space = build_space(mesh, 2)
    K, B = assemble(space)
    return solve_spectrum(space, K, B, m)


def evaluate_boundary(b: BoundaryPolyline, opts: OptimOptions) -> Evaluation:
    """Mesh and solve one candidate boundary; propagate rejection errors."""
    spec = solve_boundary(b, opts.target_h, opts.k + 2)
    return Evaluation(b, spec.eigenvalues, spec, compute_diameter(b))


def evaluate_support(p, opts: OptimOptions) -> Evaluation:
    sv = SupportVector(AngleGrid(opts.n_angles), p)
    return evaluate_boundary(reconstruct_boundary(sv), opts)


def evaluate_graphs(gp: GraphPair, opts: OptimOptions) -> Evaluation:
    return evaluate_boundary(gp.polyline(), opts)


def project_graphs(p, q, d, gap):
    """Projection onto {p_i <= q_i - gap, |p_i| <= d/2, |q_i| <= d/2}.

    Separable per abscissa: the ordering constraint averages a crossed
    pair, then the box clips (clipping preserves the ordering).
    """
    p = np.asarray(p, dtype=float).copy()
    q = np.asarray(q, dtype=float).copy()
    bad = p > q - gap
    mid = 0.5 * (p[bad] + q[bad])
    p[bad] = mid - 0.5 * gap
    q[bad] = mid + 0.5 * gap
    half = 0.5 * d
    return np.clip(p, -half, half - gap), np.clip(q, -half + gap, half)


def _stopped(history, opts):
    w = opts.stop_window
    if len(history) <= w:
        return False
    ref = max(abs(history[-1]), 1e-30)
    return (history[-1] - history[-1 - w]) / ref < opts.stop_tol


def _ascent_loop(x0, opts, evaluate, gradient, projector, active_snapshot,
                 callback=None):
    """Generic projected-gradient ascent with Armijo backtracking.

    evaluate(x) -> Evaluation; gradient(x, ev) -> ascent direction in the
    variables at x, whose evaluation is ev; projector(x) -> feasible point.
    evaluate and projector raise one of REJECTED on a candidate that cannot
    be used; at x0 that raises NoAscent.
    """
    try:
        x = projector(x0)
        ev = evaluate(x)
    except REJECTED as exc:
        raise NoAscent(f"initial point rejected by {type(exc).__name__}: "
                       f"{exc}") from exc
    obj = ev.objective(opts.k)
    history = [obj]
    best_x, best_ev, best_obj = x, ev, obj
    step = opts.step0
    converged = False
    message = "max_iters reached"
    it = 0
    for it in range(1, opts.max_iters + 1):
        g = gradient(x, ev)
        accepted = False
        while step >= STEP_MIN:
            try:
                cand = projector(x + step * g)
            except ProjectionFailure:
                step *= opts.backtrack
                continue
            move = cand - x
            gain_pred = float(g @ move)
            if np.linalg.norm(move) < 1e-14 * max(1.0, np.linalg.norm(x)):
                break
            try:
                cand_ev = evaluate(cand)
            except REJECTED:
                step *= opts.backtrack
                continue
            cand_obj = cand_ev.objective(opts.k)
            if cand_obj >= obj + opts.armijo * max(gain_pred, 0.0) and \
                    cand_obj >= obj:
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            converged = True
            message = "no feasible ascent step"
            break
        x, ev, obj = cand, cand_ev, cand_obj
        history.append(obj)
        if obj > best_obj:
            best_x, best_ev, best_obj = x, ev, obj
        if callback is not None:
            callback(it, x, ev)
        if opts.verbose:
            lo, hi = cluster_indices(ev.spectrum, opts.k, opts.cluster_tol)
            print(f"{it}\t{obj:.8f}\t{step:.3e}\t{active_snapshot(x)}\t"
                  f"{hi - lo + 1}")
        step = min(step / opts.backtrack, opts.step0 * STEP_GROW_CAP)
        if _stopped(history, opts):
            converged = True
            message = "objective change below stop_tol"
            break
    return best_x, best_ev, history, it, converged, message


def _multistart(x0, opts, evaluate, gradient, projector, active_snapshot,
                callback=None):
    """Ascent with seeded random restarts around the incumbent best.

    The first pass starts at x0; each restart perturbs the best point found
    so far with Gaussian noise of scale restart_scale * diameter, projects
    it feasible, and re-runs the loop.  Deterministic given opts.seed.
    """
    rng = np.random.default_rng(opts.seed)
    best = _ascent_loop(x0, opts, evaluate, gradient, projector,
                        active_snapshot, callback)
    history, iters = list(best[2]), best[3]
    for _ in range(opts.restarts):
        noise = rng.normal(scale=opts.restart_scale * opts.diameter,
                           size=np.asarray(best[0]).shape)
        try:
            out = _ascent_loop(best[0] + noise, opts, evaluate, gradient,
                               projector, active_snapshot, callback)
        except NoAscent:
            continue
        history.extend(out[2])
        iters += out[3]
        if out[2][-1] > max(best[2]):
            best = out
    return best[0], best[1], history, iters, best[4], best[5]


def ascend(initial: SupportVector, opts: OptimOptions,
           callback=None) -> OptimState:
    """Maximize sigma_k * D over the support polyhedron.

    The gradient is the support gradient of sigma_k; feasibility (convexity,
    width <= d with the anchor pair pinned to d, positivity) is restored
    after every trial step by Euclidean projection.
    """
    grid = AngleGrid(opts.n_angles)
    if initial.grid.n_angles != opts.n_angles:
        raise ValueError("initial support vector does not match n_angles")
    cset = build_constraint_set(opts.n_angles, grid.h, opts.diameter,
                                opts.p_min_factor * opts.diameter,
                                opts.convexity_floor_factor * opts.diameter)

    def projector(p):
        return project(p, cset)

    def gradient(p, ev):
        return support_gradient(ev.spectrum, opts.k, ev.boundary,
                                cluster_tol=opts.cluster_tol)

    def active_snapshot(p):
        r = cset.residuals(p)
        return {tag: int(np.sum((cset.tags == tag) & (np.abs(r) < 1e-8)))
                for tag in ("convexity", "width", "anchor", "positivity")}

    best_x, best_ev, history, iters, converged, message = _multistart(
        initial.p, opts, lambda p: evaluate_support(p, opts), gradient,
        projector, active_snapshot, callback)
    return OptimState(
        variables=SupportVector(grid, best_x),
        objective_history=history,
        eigenvalues=best_ev.eigenvalues,
        diameter=best_ev.diameter,
        boundary=best_ev.boundary,
        active_rows=active_snapshot(best_x),
        iterations=iters, converged=converged, message=message)


def ascend_nonconvex(initial: GraphPair, opts: OptimOptions,
                     callback=None) -> OptimState:
    """Maximize sigma_k * D over the two-graph variables.

    Constraints are only the ordering p_i <= q_i (with a small gap against
    boundary pinch-off) and the |.| <= d/2 box; the diameter constraint is
    verified post hoc on the returned optimum.
    """
    n = initial.n
    d = opts.diameter
    gap = opts.graph_gap_factor * d

    def pack(gp):
        return np.concatenate([gp.p, gp.q])

    def unpack(x):
        return GraphPair(x[:n], x[n:], d)

    def projector(x):
        p, q = project_graphs(x[:n], x[n:], d, gap)
        return np.concatenate([p, q])

    def gradient(x, ev):
        gl, gu = graph_gradient(ev.spectrum, opts.k, unpack(x),
                                cluster_tol=opts.cluster_tol)
        return np.concatenate([gl, gu])

    def active_snapshot(x):
        p, q = x[:n], x[n:]
        return {"ordering": int(np.sum(q - p <= gap * (1 + 1e-9))),
                "box": int(np.sum((np.abs(p) >= d / 2 - 1e-12)
                                  | (np.abs(q) >= d / 2 - 1e-12)))}

    best_x, best_ev, history, iters, converged, message = _multistart(
        pack(initial), opts, lambda x: evaluate_graphs(unpack(x), opts),
        gradient, projector, active_snapshot, callback)
    rep = best_ev.diameter
    if rep.diameter > d * (1.0 + 1e-3):
        message += f"; diameter excess {rep.diameter - d:.3e}"
    return OptimState(
        variables=unpack(best_x),
        objective_history=history,
        eigenvalues=best_ev.eigenvalues,
        diameter=rep,
        boundary=best_ev.boundary,
        active_rows=active_snapshot(best_x),
        iterations=iters, converged=converged, message=message)


def disk_support(opts: OptimOptions) -> SupportVector:
    """The ball of the prescribed diameter as a support vector."""
    return SupportVector(AngleGrid(opts.n_angles),
                         np.full(opts.n_angles, opts.diameter / 2.0))


def disk_graphs(opts: OptimOptions, n_points=None) -> GraphPair:
    """The ball of the prescribed diameter in two-graph form."""
    n = n_points if n_points is not None else opts.n_angles // 2
    d = opts.diameter
    x = np.linspace(-d / 2, d / 2, n + 2)[1:-1]
    y = np.sqrt(np.maximum((d / 2) ** 2 - x ** 2, 0.0))
    return GraphPair(-y, y, d)
