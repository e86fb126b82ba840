"""Outside-in spans around disclab's public functions, and per-layer metrics.

The tracer replaces every module binding of each traced function with a
wrapper that records a span: name, start, end, parent span, and a count
taken from the call's arguments.  Every binding matters because disclab
modules import functions by name (``from .flows import hamiltonian_path``).
Methods are wrapped on their defining class.  Spans stay in memory; the
benchmark writes them once, at the end of a traced run.

A span's self time is its duration minus the durations of its direct
children (calls run on one thread, so children never overlap).  A layer's
busy time sums only its outermost spans, so recursion is not counted twice.
"""

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

_clock = time.perf_counter


def _method_points(self, *args, **kwargs):
    """Points evaluated by GridField2D(points) or ScalarTimeField(t, points)."""
    return np.size(args[-1]) // 2, 0


def _field_points(H, t, points, *args, **kwargs):
    return np.size(points) // 2, 0


def _kernel_count(pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support_radius):
    """Live points times RK4 steps, flagged backward when dt < 0."""
    r2 = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    live = int(np.count_nonzero(r2 < support_radius * support_radius))
    return live * int(nsteps), int(dt < 0.0)


def _newton_targets(self, targets, *args, **kwargs):
    return np.size(targets) // 2, 0


# (module, attribute, span name, counter).  Entries whose attribute is
# missing are reported, not fatal: alexander._cal_on and _hofer_on are the
# private copies of the Cal^path and Hofer quadratures that E2 and E3 run.
FUNCTIONS = (
    ("disclab.kernels", "rk4_bump_flow", "kernels", _kernel_count),
    ("disclab.flows", "integrate_points", "flows.integrate_points", None),
    ("disclab.flows", "vector_field", "flows.vector_field", _field_points),
    ("disclab.flows", "hamiltonian_path", "flows.hamiltonian_path", None),
    ("disclab.flows", "flow_map", "flows.flow_map", None),
    ("disclab.flows", "hofer_length", "flows.hofer", None),
    ("disclab.alexander", "_hofer_on", "flows.hofer", None),
    ("disclab.calabi", "spatial_integral", "calabi.spatial_integral", None),
    ("disclab.calabi", "cal_path", "calabi.cal_path", None),
    ("disclab.alexander", "_cal_on", "calabi.cal_path", None),
    ("disclab.calabi", "primitive_and_cal_def1", "calabi.primitive", None),
    ("disclab.alexander", "s_hamiltonian", "alexander.s_hamiltonian", None),
    ("disclab.alexander", "shrinking_calabi_sequence", "alexander.shrinking_sequence", None),
    ("disclab.graphical", "is_graphical", "graphical.is_graphical", None),
    ("disclab.graphical", "recover_one_form", "graphical.recover_one_form", None),
    ("disclab.graphical", "integrate_generating", "graphical.integrate_generating", None),
    ("disclab.phase", "phase_function_graphical", "phase.phase_function", None),
    ("disclab.phase", "basic_generating", "phase.basic_generating", None),
    ("disclab.experiments", "run_experiment", "experiments.run_experiment", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("disclab.grids", "GridField2D", "__call__", "grids", _method_points),
    ("disclab.fields", "ScalarTimeField", "__call__", "fields", _method_points),
    ("disclab.flows", "PlaneMap", "__call__", "flows.plane_map", None),
    ("disclab.flows", "PlaneMap", "newton_invert", "flows.newton_invert", _newton_targets),
)

# Span record fields.
NAME, START, END, PARENT, COUNT, AUX, NESTED = range(7)


class Tracer:
    """Records spans in memory and installs wrappers into disclab."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._active = {}
        self._undo = []

    def _open(self, name, count, aux):
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent, count, aux, depth > 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = _clock()
        self._stack.pop()
        name = self.spans[idx][NAME]
        self._active[name] -= 1

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code, as a context manager."""
        idx = self._open(name, 0, 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count, aux = counter(*args, **kwargs) if counter is not None else (0, 0)
            idx = self._open(name, count, aux)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        """Wrap every traced function and method; returns self."""
        for modname in {spec[0] for spec in FUNCTIONS + METHODS}:
            importlib.import_module(modname)
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "disclab" or key.startswith("disclab."))]
        for modname, attr, name, counter in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for modname, clsname, meth, name, counter in METHODS:
            cls = getattr(sys.modules[modname], clsname, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                self.missing.append(f"{modname}.{clsname}.{meth}")
                continue
            setattr(cls, meth, self.wrap(orig, name, counter))
            self._undo.append((cls, meth, orig))
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def layer_stats(records, lo, hi):
    """Per span name in records[lo:hi]: calls, outermost busy time, self time, counts.

    Also returns the summed duration of the top-level spans (no parent in
    the slice), which should account for the slice's wall time.
    """
    spans = records[lo:hi]
    child = [0.0] * len(spans)
    top = 0.0
    for rec in spans:
        dur = rec[END] - rec[START]
        par = rec[PARENT] - lo
        if 0 <= par < len(spans):
            child[par] += dur
        else:
            top += dur
    stats = {}
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        st = stats.setdefault(rec[NAME], _empty_stats())
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        if not rec[NESTED]:
            st["busy_s"] += dur
            st["count"] += rec[COUNT]
            if rec[AUX]:
                st["aux_count"] += rec[COUNT]
        par = rec[PARENT] - lo
        if 0 <= par < len(spans):
            pname = spans[par][NAME]
            st["under"][pname] = st["under"].get(pname, 0) + 1
    return stats, top


def _empty_stats():
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "aux_count": 0,
            "under": {}}


def _rate(count, seconds):
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(stats):
    """The per-layer metrics of one traced pass, by name."""
    empty = _empty_stats()
    s = lambda name: stats.get(name, empty)
    k, g, f = s("kernels"), s("grids"), s("fields")
    newton = s("flows.newton_invert")
    return {
        "kernels.point_steps": k["count"],
        "kernels.point_steps_backward": k["aux_count"],
        "kernels.calls": k["calls"],
        "kernels.busy_s": k["busy_s"],
        "kernels.point_steps_per_s": _rate(k["count"], k["busy_s"]),
        "flows.hamiltonian_path.busy_s": s("flows.hamiltonian_path")["busy_s"],
        "flows.flow_map.busy_s": s("flows.flow_map")["busy_s"],
        "flows.integrate_points.calls": s("flows.integrate_points")["calls"],
        "flows.integrate_points.self_s": s("flows.integrate_points")["self_s"],
        "flows.vector_field.points": s("flows.vector_field")["count"],
        "flows.vector_field.self_s": s("flows.vector_field")["self_s"],
        "flows.newton_invert.calls": newton["calls"],
        "flows.newton_invert.targets": newton["count"],
        "flows.newton_invert.iterations":
            s("flows.plane_map")["under"].get("flows.newton_invert", 0),
        "flows.newton_invert.busy_s": newton["busy_s"],
        "grids.calls": g["calls"],
        "grids.evals": g["count"],
        "grids.busy_s": g["busy_s"],
        "grids.evals_per_s": _rate(g["count"], g["busy_s"]),
        "fields.evals": f["count"],
        "fields.busy_s": f["busy_s"],
        "fields.evals_per_s": _rate(f["count"], f["busy_s"]),
        "calabi.spatial_integral.calls": s("calabi.spatial_integral")["calls"],
        "calabi.spatial_integral.self_s": s("calabi.spatial_integral")["self_s"],
        "calabi.cal_path.busy_s": s("calabi.cal_path")["busy_s"],
        "calabi.primitive.busy_s": s("calabi.primitive")["busy_s"],
        "flows.hofer.busy_s": s("flows.hofer")["busy_s"],
        "alexander.s_hamiltonian.busy_s": s("alexander.s_hamiltonian")["busy_s"],
        "alexander.s_hamiltonian.self_s": s("alexander.s_hamiltonian")["self_s"],
        "alexander.shrinking_sequence.busy_s":
            s("alexander.shrinking_sequence")["busy_s"],
        "graphical.is_graphical.busy_s": s("graphical.is_graphical")["busy_s"],
        "graphical.recover_one_form.self_s": s("graphical.recover_one_form")["self_s"],
        "graphical.integrate_generating.busy_s":
            s("graphical.integrate_generating")["busy_s"],
        "phase.phase_function.busy_s": s("phase.phase_function")["busy_s"],
        "phase.basic_generating.self_s": s("phase.basic_generating")["self_s"],
        "experiments.run_experiment.busy_s": s("experiments.run_experiment")["busy_s"],
    }


#: Units of the per-layer metrics; the trace.* entries come from the worker.
UNITS = {name: ("count" if name.endswith((".calls", ".points", ".targets",
                                          ".iterations", ".evals", "point_steps",
                                          "point_steps_backward"))
                else "1/s" if name.endswith("_per_s") else "s")
         for name in layer_metrics({})}
UNITS.update({
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
})
