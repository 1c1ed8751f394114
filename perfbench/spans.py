"""Per-layer tracing for the benchmark's traced run.

Spans are recorded only here, by wrapping the public entry points of each
layer for the duration of the traced phase; the library itself is not
changed.  A span has a name, a start and an end (program CPU seconds of
``hostspeed.CLOCK``, so calibration rounds are left out) and a parent
(the span open when it began; the enclosing operation span is the root, so
spans of one operation share its identifier).  Spans are kept in memory
and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; durations are reported in
reference seconds (``CLOCK.reference_s``), like the end-to-end timings.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List

from repro.api.program import Analysis, Program
from repro.core.compiler import OilCompiler
from repro.engine.steady_state import SteadyState
from repro.runtime.simulator import Simulation
from repro.service.store import ResultStore
from repro.util.graphs import ConstraintGraph

from hostspeed import CLOCK

cpu = CLOCK.now

#: span name -> (owner class, attribute); properties are wrapped as properties
WRAPPED = (
    ("lang.parse", OilCompiler, "parse"),
    ("lang.semantics", OilCompiler, "analyze"),
    ("graph.extract", OilCompiler, "extract"),
    ("core.compile", OilCompiler, "compile"),
    ("cta.consistency", Analysis, "consistency"),
    ("cta.buffer_sizing", Analysis, "sizing"),
    ("cta.latency", Analysis, "latency"),
    ("cta.longest_paths", ConstraintGraph, "longest_paths"),
    ("rules.check", Program, "check"),
    ("api.simulation_build", Analysis, "simulation"),
    ("runtime.run", Simulation, "run"),
    ("steady_state.sample", SteadyState, "on_anchor_completion"),
    ("service.store_put", ResultStore, "put"),
    ("service.store_get", ResultStore, "get"),
)

#: per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    "lang.parse_s": "s",
    "lang.semantics_s": "s",
    "graph.extract_s": "s",
    "core.compile_s": "s",
    "cta.consistency_s": "s",
    "cta.buffer_sizing_s": "s",
    "cta.latency_s": "s",
    "cta.longest_paths_calls": "count",
    "rules.check_s": "s",
    "api.simulation_build_s": "s",
    "runtime.run_s": "s",
    "engine.stepped_events": "count",
    "engine.stepped_events_per_cpu_s": "1/s",
    "runtime.trace_records": "count",
    "steady_state.sample_s": "s",
    "steady_state.samples": "count",
    "steady_state.snapshots_peak": "count",
    "steady_state.jumps": "count",
    "steady_state.first_jump_sim_s": "s",
    "steady_state.skipped_events": "count",
    "steady_state.samples_per_jump": "ratio",
    "service.store_put_s": "s",
    "service.store_get_s": "s",
    "service.warm_point_s": "s",
    "api.sweep.compiles": "count",
    "bench.trace_overhead": "ratio",
}


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the layer entry points."""

    def __init__(self) -> None:
        #: [name, start, end, parent index]; parent -1 for a root span
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        #: simulated time of the first jump of each run that jumped
        self.first_jumps_s: List[float] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, cpu(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = cpu()

    def _wrap(self, name: str, function):
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        return wrapper

    def _wrap_sampler(self, function):
        span = self.span
        first_jumps = self.first_jumps_s

        def on_anchor_completion(steady):
            jumps, now = steady.jumps, steady.queue.now
            with span("steady_state.sample"):
                function(steady)
            if jumps == 0 and steady.jumps:
                first_jumps.append(float(steady.queue.to_time(now)))

        return on_anchor_completion

    def install(self) -> None:
        for name, owner, attribute in WRAPPED:
            original = owner.__dict__[attribute]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget))
            elif name == "steady_state.sample":
                wrapped = self._wrap_sampler(original)
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attribute, wrapped)
            self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent]`` JSON rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)

    # ------------------------------------------------------------ analysis
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self reference seconds."""
        durations = [CLOCK.reference_s(start, end) for _name, start, end, _parent in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_name, _start, _end, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, _start, _end, _parent) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "inclusive": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["inclusive"] += durations[index]
            entry["self"] += durations[index] - child_time[index]
        return totals

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called *name* that run inside a span called *ancestor*."""
        count = 0
        for span_name, _start, _end, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count


def layer_metrics(tracer: Tracer, ops: list, overhead: float) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric: ``{name: {"value", "unit", "n"}}``.

    Times and counts are per operation of the traced phase (means), except
    where the name says otherwise: ``snapshots_peak`` is the largest table
    of one run, ``first_jump_sim_s`` the median over runs that jumped,
    ``samples_per_jump`` all samples over all jumps (over one when nothing
    jumped, so every sample was wasted), ``warm_point_s`` the warm re-run's
    CPU per grid point and ``api.sweep.compiles`` compilations per cold grid.
    """
    totals = tracer.totals()
    n_ops = len(ops)

    def total(name: str, kind: str = "inclusive") -> float:
        return totals.get(name, {}).get(kind, 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def stat(key: str) -> List[Any]:
        return [op.stats[key] for op in ops if key in op.stats]

    values: Dict[str, tuple] = {}
    for span_name in (
        "lang.parse",
        "lang.semantics",
        "graph.extract",
        "core.compile",
        "cta.consistency",
        "cta.buffer_sizing",
        "cta.latency",
        "rules.check",
        "api.simulation_build",
        "steady_state.sample",
        "service.store_put",
        "service.store_get",
    ):
        values[f"{span_name}_s"] = (total(span_name) / n_ops, calls(span_name))
    values["cta.longest_paths_calls"] = (
        tracer.count_within("cta.longest_paths", "cta.buffer_sizing") / n_ops,
        calls("cta.buffer_sizing"),
    )
    run_self = total("runtime.run", "self")
    stepped = sum(stat("stepped_events"))
    samples = calls("steady_state.sample")
    jumps = sum(stat("jumps"))
    runs = len(stat("jumps"))
    values["runtime.run_s"] = (run_self / n_ops, calls("runtime.run"))
    values["engine.stepped_events"] = (stepped / n_ops, runs)
    values["engine.stepped_events_per_cpu_s"] = (stepped / run_self if run_self else 0.0, runs)
    values["runtime.trace_records"] = (sum(stat("trace_records")) / n_ops, runs)
    values["steady_state.samples"] = (samples / n_ops, samples)
    values["steady_state.snapshots_peak"] = (max(stat("snapshots"), default=0), runs)
    values["steady_state.jumps"] = (jumps / n_ops, runs)
    first = tracer.first_jumps_s
    values["steady_state.first_jump_sim_s"] = (statistics.median(first) if first else 0.0, len(first))
    values["steady_state.skipped_events"] = (sum(stat("skipped_events")) / n_ops, runs)
    values["steady_state.samples_per_jump"] = (samples / max(jumps, 1), samples)
    warm = [op.ref_s / op.stats["points"] for op in ops if "points" in op.stats]
    values["service.warm_point_s"] = (statistics.median(warm) if warm else 0.0, len(warm))
    grids = calls("op.fig4-sweep.cold")
    values["api.sweep.compiles"] = (
        tracer.count_within("core.compile", "op.fig4-sweep.cold") / grids if grids else 0.0,
        grids,
    )
    values["bench.trace_overhead"] = (overhead, len(ops))
    return {
        name: {"value": values[name][0], "unit": unit, "n": values[name][1]}
        for name, unit in LAYER_UNITS.items()
    }
