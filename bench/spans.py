"""Outside-in span tracing of one `autosand run`.

The tracer replaces public functions of the autosand modules with wrappers
that record a span per call: name, start, end, parent span and run id.  The
program itself is not edited; every module binding of a wrapped function is
replaced (``planner`` imports ``pseudo_inverse`` from ``dynamics`` by name,
``cli`` imports ``load_config``), and the planner's collision checks are
wrapped on the ``PlannerContext`` class.  Spans stay in memory in flat arrays
and are written out with ``save`` when the run ends.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from array import array

import numpy as np

STAGE_NAMES = ("scan", "model", "plan", "sand", "assess")

# harness functions decorated with ``_stage``: the pipeline's stage boundaries.
STAGE_FUNCTIONS = {
    "_scan_stage": "scan",
    "_model_stage": "model",
    "_sequence_stage": "plan",
    "_plan_transit": "plan",
    "_sand_face": "sand",
    "_assess_face": "assess",
}


class Tracer:
    """Span recorder for one process.  Not thread-safe: autosand is serial."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._undo: list = []

    # --- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (used by the self-tests)."""
        self.name_idx.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span recorder.

        ``on_result(tracer, args, result)`` runs after the span closes, so
        counter bookkeeping is not charged to the wrapped call.
        """
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        name_idx, starts, ends, parents = self.name_idx, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(starts)
            name_idx.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    # --- installing --------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap ``module.attr`` and every other autosand binding of the same object."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self.wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "autosand" or mod_name.startswith("autosand.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_result))

    def install(self) -> None:
        """Wrap the public calls of every measured autosand layer."""
        # cli is imported only so that its bindings exist to be patched
        from autosand import cli  # noqa: F401
        from autosand import (config, controller, dynamics, harness, impedance,
                              planner, pointcloud)

        pf = self.patch_function
        pf(config, "load_config", "config.load_config")

        pf(planner, "plan_single_query", "planner.plan_single_query",
           lambda t, a, r: t.add("planner.via_points", max(len(r.waypoints) - 2, 0)))
        self.patch_method(planner.PlannerContext, "segment_free", "planner.segment_free",
                          lambda t, a, r: t.add("planner.segment_free.free", bool(r)))
        self.patch_method(planner.PlannerContext, "in_collision", "planner.in_collision")
        pf(planner, "gjk_intersects", "planner.gjk_intersects",
           lambda t, a, r: t.add("planner.gjk_intersects.hits", bool(r)))
        pf(planner, "ga_optimize_sequence", "planner.ga_optimize_sequence")
        pf(planner, "lspb_parameterize", "planner.lspb_parameterize")
        if hasattr(planner, "warnings"):
            self._undo.append((planner, "warnings", planner.warnings))
            planner.warnings = _WarningCounter(self, getattr(planner, "IterationLimit", None))

        pf(dynamics, "step", "dynamics.step")
        pf(dynamics, "dynamics_terms", "dynamics.dynamics_terms")
        pf(dynamics, "pseudo_inverse", "dynamics.pseudo_inverse")

        for fn in ("rbf_activation", "control_law", "weight_update", "lyapunov_monitor"):
            pf(controller, fn, f"controller.{fn}")
        pf(impedance, "filter_force_step", "impedance.filter_force_step")

        def sanding_done(t, args, result):
            t.add("harness.control_ticks", len(result.times))
            t.add("harness.sim_s", args[0].duration)

        pf(harness, "simulate_sanding", "harness.simulate_sanding", sanding_done)
        pf(harness, "write_csv", "harness.write_csv",
           lambda t, a, r: t.add("harness.write_csv.bytes", os.path.getsize(a[0])))
        for attr, stage in STAGE_FUNCTIONS.items():
            pf(harness, attr, f"harness.stage.{stage}")

        pf(pointcloud, "synthetic_scan", "pointcloud.synthetic_scan",
           lambda t, a, r: t.add("pointcloud.synthetic_scan.points", len(r)))
        pf(pointcloud, "icp_register", "pointcloud.icp_register",
           lambda t, a, r: t.peak("pointcloud.icp_register.rms_max", float(r[1])))

        def sor_done(t, args, result):
            t.add("pointcloud.sor_filter.in", len(args[0]))
            t.add("pointcloud.sor_filter.kept", len(result))

        pf(pointcloud, "sor_filter", "pointcloud.sor_filter", sor_done)
        pf(pointcloud, "assess_quality", "pointcloud.assess_quality")
        pf(pointcloud, "save_ply", "pointcloud.save_ply",
           lambda t, a, r: t.add("pointcloud.save_ply.bytes", os.path.getsize(a[1])))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, run id) as a compressed npz."""
        np.savez_compressed(path, names=np.array(self.names), run_id=np.array(self.run_id),
                            **self.arrays())


class _WarningCounter:
    """Stands in for the ``warnings`` module inside ``planner`` to count GJK caps."""

    def __init__(self, tracer: Tracer, category):
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is not None and category is self._category:
            self._tracer.add("planner.gjk_intersects.iter_cap", 1)
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, attr):
        return getattr(warnings, attr)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time covered by its direct children.

    Children of one span never overlap (autosand is serial), so the covered
    time is the sum of the children's durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros(len(dur))
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def stage_seconds(names, name_idx, start, end, parent) -> dict:
    """Seconds per pipeline stage.

    Each top-level span counts toward the stage that began most recently, so
    the transit parameterisation and CSV writes between ``_plan_transit`` and
    ``_sand_face`` count as planning.  Top-level spans before the first stage
    (config loading) count toward none.
    """
    totals = dict.fromkeys(STAGE_NAMES, 0.0)
    current = None
    for i in np.flatnonzero(np.asarray(parent) < 0):
        name = names[name_idx[i]]
        if name.startswith("harness.stage."):
            current = name[len("harness.stage."):]
        if current is not None:
            totals[current] += end[i] - start[i]
    return totals


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced run, named as in BENCHMARK.json."""
    arr = tracer.arrays()
    idx, start, end, parent = arr["name_idx"], arr["start"], arr["end"], arr["parent"]
    selfs = self_times(start, end, parent)
    dur = end - start
    n_names = len(tracer.names)
    calls = np.bincount(idx, minlength=n_names)
    self_s = np.bincount(idx, weights=selfs, minlength=n_names)
    total_s = np.bincount(idx, weights=dur, minlength=n_names)

    def by(name, table):
        i = tracer._ids.get(name)
        return float(table[i]) if i is not None else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters.get
    gjk_calls = by("planner.gjk_intersects", calls)
    seg_calls = by("planner.segment_free", calls)
    step_calls = by("dynamics.step", calls)
    ticks = c("harness.control_ticks", 0.0)
    sand_total = by("harness.simulate_sanding", total_s)
    m = {
        "planner.plan_single_query.calls": by("planner.plan_single_query", calls),
        "planner.plan_single_query.total_s": by("planner.plan_single_query", total_s),
        "planner.plan_single_query.via_points": c("planner.via_points", 0.0),
        "planner.segment_free.calls": seg_calls,
        "planner.segment_free.free_ratio": ratio(c("planner.segment_free.free", 0.0), seg_calls),
        "planner.in_collision.calls": by("planner.in_collision", calls),
        "planner.in_collision.self_s": by("planner.in_collision", self_s),
        "planner.gjk_intersects.calls": gjk_calls,
        "planner.gjk_intersects.self_s": by("planner.gjk_intersects", self_s),
        "planner.gjk_intersects.us": 1e6 * ratio(by("planner.gjk_intersects", total_s),
                                                 gjk_calls),
        "planner.gjk_intersects.hit_ratio": ratio(c("planner.gjk_intersects.hits", 0.0),
                                                  gjk_calls),
        "planner.gjk_intersects.iter_cap": c("planner.gjk_intersects.iter_cap", 0.0),
        "planner.ga_optimize_sequence.self_s": by("planner.ga_optimize_sequence", self_s),
        "planner.lspb_parameterize.self_s": by("planner.lspb_parameterize", self_s),
        "dynamics.step.calls": step_calls,
        "dynamics.step.self_s": by("dynamics.step", self_s),
        "dynamics.step.us": 1e6 * ratio(by("dynamics.step", total_s), step_calls),
        "dynamics.dynamics_terms.calls": by("dynamics.dynamics_terms", calls),
        "dynamics.dynamics_terms.self_s": by("dynamics.dynamics_terms", self_s),
        "dynamics.pseudo_inverse.calls": by("dynamics.pseudo_inverse", calls),
        "dynamics.pseudo_inverse.self_s": by("dynamics.pseudo_inverse", self_s),
        "impedance.filter_force_step.calls": by("impedance.filter_force_step", calls),
        "impedance.filter_force_step.self_s": by("impedance.filter_force_step", self_s),
        "harness.simulate_sanding.self_s": by("harness.simulate_sanding", self_s),
        "harness.control_ticks": ticks,
        "harness.tick_us": 1e6 * ratio(sand_total, ticks),
        "harness.sand_rtf": ratio(c("harness.sim_s", 0.0), sand_total),
        "harness.write_csv.self_s": by("harness.write_csv", self_s),
        "harness.write_csv.bytes": c("harness.write_csv.bytes", 0.0),
        "pointcloud.synthetic_scan.self_s": by("pointcloud.synthetic_scan", self_s),
        "pointcloud.synthetic_scan.points": c("pointcloud.synthetic_scan.points", 0.0),
        "pointcloud.icp_register.calls": by("pointcloud.icp_register", calls),
        "pointcloud.icp_register.self_s": by("pointcloud.icp_register", self_s),
        "pointcloud.icp_register.rms_max": c("pointcloud.icp_register.rms_max", 0.0),
        "pointcloud.sor_filter.self_s": by("pointcloud.sor_filter", self_s),
        "pointcloud.sor_filter.kept_ratio": ratio(c("pointcloud.sor_filter.kept", 0.0),
                                                  c("pointcloud.sor_filter.in", 0.0)),
        "pointcloud.assess_quality.self_s": by("pointcloud.assess_quality", self_s),
        "pointcloud.save_ply.self_s": by("pointcloud.save_ply", self_s),
        "pointcloud.save_ply.bytes": c("pointcloud.save_ply.bytes", 0.0),
        "config.load_s": by("config.load_config", total_s),
    }
    for fn in ("rbf_activation", "control_law", "weight_update", "lyapunov_monitor"):
        m[f"controller.{fn}.self_s"] = by(f"controller.{fn}", self_s)
    stages = stage_seconds(tracer.names, idx, start, end, parent)
    for stage in STAGE_NAMES:
        m[f"harness.{stage}_s"] = stages[stage]
    return m
