"""Per-layer tracing for the traced benchmark run.

The tracer wraps the layer entry points that ``steklovmax.optimize`` looks
up in its module namespace at call time, plus the same names on the
``steklovmax`` package, which the spectrum workload calls.  Each wrapped call
is a span; a span's self time is its duration minus the time of the spans it
encloses.  Entry points that a refactor removed are skipped and show up as
0 calls.  Nothing is wrapped outside ``Tracer.installed()``, so untraced
units run the package's own functions.
"""

import contextlib
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

import steklovmax

# layer name -> (module, attribute) entry points timed as that layer
LAYERS = {
    # the boundary of the variables: support reconstruction, or the
    # two-graph polyline of the non-convex ascent
    "geometry.reconstruct_boundary": [
        ("steklovmax.optimize", "reconstruct_boundary"),
        ("steklovmax", "reconstruct_boundary"),
        ("steklovmax.graphs", "GraphPair.polyline")],
    "geometry.compute_diameter": [
        ("steklovmax.optimize", "compute_diameter"),
        ("steklovmax", "compute_diameter")],
    "constraints.project": [
        ("steklovmax.optimize", "project"),
        ("steklovmax.optimize", "project_graphs"),
        ("steklovmax", "project")],
    "meshing.triangulate": [
        ("steklovmax.optimize", "triangulate"),
        ("steklovmax", "triangulate")],
    "fem.build_space": [
        ("steklovmax.optimize", "build_space"),
        ("steklovmax", "build_space")],
    "fem.assemble": [
        ("steklovmax.optimize", "assemble"),
        ("steklovmax", "assemble")],
    "fem.solve_spectrum": [
        ("steklovmax.optimize", "solve_spectrum"),
        ("steklovmax", "solve_spectrum")],
    "gradients.gradient": [
        ("steklovmax.optimize", "support_gradient"),
        ("steklovmax.optimize", "graph_gradient"),
        ("steklovmax", "support_gradient")],
}
# one candidate shape evaluated by the ascent loop
EVALUATE = "optimize.evaluate"
EVALUATE_POINTS = [("steklovmax.optimize", "evaluate_support"),
                   ("steklovmax.optimize", "evaluate_graphs")]
# one shape of the spectrum workload, opened by the workload itself
SHAPE = "shape"
MESH_REJECTIONS = ("SelfIntersection", "MeshFailure", "DegenerateBoundary")


class Tracer:
    """Span timer and counters for the layers in LAYERS."""

    def __init__(self):
        # the gradients' default, which the spectrum workload uses
        self.cluster_tol = steklovmax.OptimOptions().cluster_tol
        self.durations = defaultdict(list)  # span name -> seconds per call
        self.self_s = defaultdict(list)     # span name -> self time per call
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)    # layer statistic -> values
        self.bookkeeping_s = 0.0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """Time the enclosed block as one call of span `name`."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.durations[name].append(dur)
            self.self_s[name].append(dur - child)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except Exception as exc:
                self._count_failure(name, exc)
                raise
            t0 = time.perf_counter()
            self._observe(name, args, kwargs, out)
            self.bookkeeping_s += time.perf_counter() - t0
            return out
        traced.__wrapped__ = fn
        return traced

    def _count_failure(self, name, exc):
        kind = type(exc).__name__
        if name == "meshing.triangulate" and kind in MESH_REJECTIONS:
            self.counts["meshing.rejected"] += 1
        elif name.startswith("fem.") and kind == "SolverFailure":
            self.counts["fem.failed"] += 1

    def _observe(self, name, args, kwargs, out):
        if name == "meshing.triangulate":
            self.samples["vertices"].append(len(out.vertices))
            self.samples["min_angle"].append(out.min_angle_deg())
        elif name == "fem.build_space":
            self.samples["dofs"].append(out.dof_count)
            self.samples["boundary_dofs"].append(len(out.boundary_dofs))
        elif name == "constraints.project":
            if isinstance(out, tuple):      # project_graphs(p, q, ...)
                noop = all(np.array_equal(o, a) for o, a in zip(out, args))
            else:
                noop = np.array_equal(out, args[0])
            self.counts["project.noop"] += int(noop)
        elif name == "gradients.gradient":
            cluster = getattr(steklovmax, "cluster_indices", None)
            if cluster is not None:
                lo, hi = cluster(args[0], args[1],
                                 kwargs.get("cluster_tol", self.cluster_tol))
                self.samples["cluster_size"].append(hi - lo + 1)

    def _targets(self):
        for layer, points in LAYERS.items():
            for point in points:
                yield layer, point
        for point in EVALUATE_POINTS:
            yield EVALUATE, point

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point that exists; restore them on exit."""
        saved = []
        try:
            for name, (modname, path) in self._targets():
                try:
                    owner = importlib.import_module(modname)
                except ImportError:
                    continue
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent, None)
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self, wall_s, accepted, passes):
        """Per-layer metrics of traced units that took `wall_s` seconds.

        `accepted` counts accepted ascent steps and `passes` the ascent
        passes run; each pass starts with one evaluation that is not a
        trial step.  Returns {name: (value, unit)}.
        """
        out = {}
        layer_self = 0.0
        for layer in LAYERS:
            times = self.self_s.get(layer, [])
            total = float(sum(times))
            layer_self += total
            out[f"{layer}.calls"] = (len(times), "count")
            out[f"{layer}.self_s"] = (total, "s")
            out[f"{layer}.p50_ms"] = (_median_ms(times), "ms")
            out[f"{layer}.share"] = (100.0 * total / wall_s, "%")
        n_proj = len(self.self_s.get("constraints.project", []))
        out["constraints.project.noop_frac"] = (
            self.counts["project.noop"] / n_proj if n_proj else 0.0, "ratio")
        s = self.samples
        out["meshing.vertices_mean"] = (_mean(s["vertices"]), "count")
        out["meshing.min_angle_deg"] = (
            float(min(s["min_angle"])) if s["min_angle"] else 0.0, "deg")
        out["meshing.rejected"] = (self.counts["meshing.rejected"], "count")
        out["fem.dofs_mean"] = (_mean(s["dofs"]), "count")
        out["fem.boundary_dofs_mean"] = (_mean(s["boundary_dofs"]), "count")
        out["fem.failed"] = (self.counts["fem.failed"], "count")
        out["gradients.cluster_size_mean"] = (_mean(s["cluster_size"]),
                                              "count")
        evaluations = len(self.durations.get(EVALUATE, []))
        out["optimize.evaluations"] = (evaluations, "count")
        out["optimize.accepted"] = (accepted, "count")
        out["optimize.accept_ratio"] = (
            accepted / evaluations if evaluations else 0.0, "ratio")
        out["optimize.rejected"] = (max(evaluations - accepted - passes, 0),
                                    "count")
        out["optimize.self_s"] = (wall_s - layer_self - self.bookkeeping_s,
                                  "s")
        shapes = self.durations.get(EVALUATE, []) + \
            self.durations.get(SHAPE, [])
        out["eval.p50_ms"] = (_median_ms(shapes), "ms")
        out["eval.per_s"] = (len(shapes) / wall_s, "1/s")
        return out


def _median_ms(seconds):
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0
