"""Projected gradient ascent maximizing Steklov eigenvalues at fixed diameter.

Convex mode optimizes the support values over the convexity/width/anchor
polyhedron; non-convex mode optimizes the two-graph values under the
ordering and box constraints.  Every candidate is solved mesh-free by the
harmonic-polynomial Ritz solver of trefftz.py.  A trial step whose
projection, boundary or eigensolve fails is rejected and the step halved.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import build_constraint_set, project
from .errors import (DegenerateBoundary, NoAscent, ProjectionFailure,
                     SelfIntersection, SolverFailure)
from .geometry import (BoundaryPolyline, DiameterReport, SupportVector,
                       AngleGrid, compute_diameter, reconstruct_boundary)
from .gradients import (CLUSTER_TOL, cluster_indices, graph_gradient,
                        support_gradient)
from .graphs import GraphPair
from .trefftz import HarmonicSpectrum, solve_harmonic

STEP0 = 1.0
BACKTRACK = 0.5
ARMIJO = 1e-4
STEP_MIN = 1e-12
STEP_MAX = 16.0
STOP_WINDOW = 10
RESTART_SCALE = 0.02
# failures of one candidate point: the step is rejected, not the run
REJECTED = (ProjectionFailure, SelfIntersection, DegenerateBoundary,
            SolverFailure)


@dataclass(frozen=True)
class OptimOptions:
    """Knobs of the ascent loop (defaults follow the reference setup).

    Fixed loop constants: a pass starts at step STEP0 = 1, halves it
    (BACKTRACK = 0.5) until the Armijo test (ARMIJO = 1e-4) passes, doubles
    it after each accepted step up to STEP_MAX = 16, and ends when no step
    above STEP_MIN = 1e-12 is accepted or the relative gain over the last
    STOP_WINDOW = 10 accepted steps is below tol.  Restarts perturb the
    reported point by noise of scale RESTART_SCALE = 0.02 times the diameter.

    mesh_h_factor and target_h are not used by the ascent, whose solver is
    mesh-free; they remain for callers that mesh the same shapes with
    meshing.triangulate at that size.
    """

    k: int = 1
    n_angles: int = 200
    diameter: float = 2.0
    max_iters: int = 500
    tol: float = 1e-7
    mesh_h_factor: float = 0.05
    restarts: int = 3
    seed: int = 0
    verbose: bool = False

    # constants, not fields: the cluster tolerance of the gradients and
    # the projection margins as fractions of the diameter
    cluster_tol = CLUSTER_TOL
    p_min_factor = 1e-3
    convexity_floor_factor = 5e-3
    graph_gap_factor = 1e-3

    def __post_init__(self):
        for name in ("k", "max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        AngleGrid(self.n_angles)    # raises on a bad n_angles
        for name in ("diameter", "max_iters", "tol", "mesh_h_factor"):
            # written so that NaN fails too
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("restarts", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

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
    """Ascent result at the last accepted iterate of the reported pass."""

    variables: object
    objective_history: list
    eigenvalues: np.ndarray
    diameter: DiameterReport
    boundary: BoundaryPolyline
    active_rows: dict
    iterations: int
    converged: bool
    message: str = ""


def solve_boundary(b: BoundaryPolyline, m) -> HarmonicSpectrum:
    """The m+1 smallest Steklov eigenpairs of one polygon.

    The only solve path of the optimizer, the command line and the
    experiments.  solve_harmonic is looked up in this module's namespace
    at call time, so a wrapper installed here sees every solve.
    """
    return solve_harmonic(b, m)


def evaluate_boundary(b: BoundaryPolyline, opts: OptimOptions) -> Evaluation:
    """Solve one candidate boundary; propagate rejection errors.  Its k + 2
    is the margin of cluster_indices: a pair past any cluster at sigma_k."""
    spec = solve_boundary(b, opts.k + 2)
    return Evaluation(b, spec.eigenvalues, spec, compute_diameter(b))


def evaluate_support(p, opts: OptimOptions) -> Evaluation:
    sv = SupportVector(AngleGrid(opts.n_angles), p)
    return evaluate_boundary(reconstruct_boundary(sv), opts)


def evaluate_graphs(gp: GraphPair, opts: OptimOptions) -> Evaluation:
    return evaluate_boundary(gp.polyline(), opts)


def project_graphs(x, d, gap):
    """Projection of x, the lower-graph values p then the upper-graph
    values q, onto {p_i <= q_i - gap, |p_i| <= d/2, |q_i| <= d/2}.

    Separable per abscissa: the ordering constraint averages a crossed
    pair, then the box clips (clipping preserves the ordering).
    """
    x = np.array(x, dtype=float)
    p, q = np.split(x, 2)       # views into the copy x
    bad = p > q - gap
    mid = 0.5 * (p[bad] + q[bad])
    p[bad] = mid - 0.5 * gap
    q[bad] = mid + 0.5 * gap
    half = 0.5 * d
    np.clip(p, -half, half - gap, out=p)
    np.clip(q, -half + gap, half, out=q)
    return x


def _ascent(x0, opts, evaluate, gradient, projector, active_snapshot,
            variables, callback=None) -> OptimState:
    """Projected-gradient ascent with Armijo backtracking and seeded random
    restarts around the reported point.

    evaluate(x) -> Evaluation; gradient(x, ev) -> ascent direction in the
    variables at x, whose evaluation is ev; projector(x) -> feasible point;
    variables(x) maps the reported point to the state's variables.
    evaluate and projector raise one of REJECTED on a candidate that cannot
    be used: a trial step is then halved, a restart skipped, and the first
    start raises NoAscent.  The first pass starts at x0; each restart
    perturbs the reported point with Gaussian noise of scale
    RESTART_SCALE * diameter and is reported instead when its final
    objective is strictly higher.  A pass reports its last accepted point,
    its highest, as the Armijo test never lowers the objective.
    Deterministic given opts.seed.
    """
    rng = np.random.default_rng(opts.seed)
    history, iters = [], 0
    for restart in range(opts.restarts + 1):
        start = x0
        if restart:
            start = rep[0] + rng.normal(scale=RESTART_SCALE * opts.diameter,
                                        size=np.shape(rep[0]))
        try:
            x = projector(start)
            ev = evaluate(x)
        except REJECTED as exc:
            if restart:
                continue
            raise NoAscent(f"initial point rejected by {type(exc).__name__}: "
                           f"{exc}") from exc
        obj = ev.objective(opts.k)
        first = len(history)        # this pass's values are history[first:]
        history.append(obj)
        step = STEP0
        converged = False
        message = "max_iters reached"
        for it in range(1, opts.max_iters + 1):
            g = gradient(x, ev)
            accepted = False
            while step >= STEP_MIN:
                try:
                    cand = projector(x + step * g)
                    move = cand - x
                    if np.linalg.norm(move) < 1e-14 * max(
                            1.0, np.linalg.norm(x)):
                        break
                    cand_ev = evaluate(cand)
                except REJECTED:
                    step *= BACKTRACK
                    continue
                gain_pred = float(g @ move)
                cand_obj = cand_ev.objective(opts.k)
                if cand_obj >= obj + ARMIJO * max(gain_pred, 0.0):
                    accepted = True
                    break
                step *= BACKTRACK
            if not accepted:
                converged = True
                message = "no feasible ascent step"
                break
            x, ev, obj = cand, cand_ev, cand_obj
            history.append(obj)
            if callback is not None:
                callback(it, x, ev)
            if opts.verbose:
                lo, hi = cluster_indices(ev.spectrum, opts.k)
                print(f"{it}\t{obj:.8f}\t{step:.3e}\t{active_snapshot(x)}\t"
                      f"{hi - lo + 1}")
            step = min(step / BACKTRACK, STEP_MAX)
            if (len(history) - first > STOP_WINDOW
                    and (obj - history[-1 - STOP_WINDOW])
                    / max(abs(obj), 1e-30) < opts.tol):
                converged = True
                # the option's former name; result.json records this text
                message = "objective change below stop_tol"
                break
        iters += it
        if not restart or obj > rep[2]:
            rep = (x, ev, obj, converged, message)
    x, ev, _, converged, message = rep
    return OptimState(
        variables=variables(x), objective_history=history,
        eigenvalues=ev.eigenvalues, diameter=ev.diameter,
        boundary=ev.boundary, active_rows=active_snapshot(x),
        iterations=iters, converged=converged, message=message)


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

    last = None

    def projector(p):
        # warm start: the previous projection's active rows seed this one
        nonlocal last
        last = project(p, cset, last)
        return last

    def gradient(p, ev):
        return support_gradient(ev.spectrum, opts.k, ev.boundary)

    def active_snapshot(p):
        r = cset.residuals(p)
        return {tag: int(np.sum((cset.tags == tag) & (np.abs(r) < 1e-8)))
                for tag in ("convexity", "width", "anchor", "positivity")}

    return _ascent(
        initial.p, opts, lambda p: evaluate_support(p, opts), gradient,
        projector, active_snapshot, lambda p: SupportVector(grid, p),
        callback)


def ascend_nonconvex(initial: GraphPair, opts: OptimOptions,
                     callback=None) -> OptimState:
    """Maximize sigma_k * D over the two-graph variables.

    Constraints are only the ordering p_i <= q_i (with a small gap against
    boundary pinch-off) and the |.| <= d/2 box; the diameter constraint is
    verified post hoc on the returned optimum.  The initial graphs take
    n_angles // 2 values each over [-d/2, d/2], d the diameter.
    """
    n = initial.n
    d = opts.diameter
    if n != opts.n_angles // 2 or initial.d != d:
        raise ValueError("initial graphs do not match n_angles and diameter")
    gap = opts.graph_gap_factor * d

    def unpack(x):
        return GraphPair(x[:n], x[n:], d)

    def gradient(x, ev):
        return graph_gradient(ev.spectrum, opts.k, unpack(x), ev.boundary)

    def active_snapshot(x):
        p, q = x[:n], x[n:]
        return {"ordering": int(np.sum(q - p <= gap * (1 + 1e-9))),
                "box": int(np.sum((np.abs(p) >= d / 2 - 1e-12)
                                  | (np.abs(q) >= d / 2 - 1e-12)))}

    state = _ascent(
        np.concatenate([initial.p, initial.q]), opts,
        lambda x: evaluate_graphs(unpack(x), opts), gradient,
        lambda x: project_graphs(x, d, gap), active_snapshot, unpack,
        callback)
    rep = state.diameter
    if rep.diameter > d * (1.0 + 1e-3):
        state.message += f"; diameter excess {rep.diameter - d:.3e}"
    return state


def disk_support(opts: OptimOptions) -> SupportVector:
    """The ball of the prescribed diameter as a support vector."""
    return SupportVector(AngleGrid(opts.n_angles),
                         np.full(opts.n_angles, opts.diameter / 2.0))


def disk_graphs(opts: OptimOptions) -> GraphPair:
    """The ball of the prescribed diameter in two-graph form."""
    n = opts.n_angles // 2
    d = opts.diameter
    x = np.linspace(-d / 2, d / 2, n + 2)[1:-1]
    y = np.sqrt(np.maximum((d / 2) ** 2 - x ** 2, 0.0))
    return GraphPair(-y, y, d)
