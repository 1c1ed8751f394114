"""The benchmark's workloads: inputs drawn from the seed, operations, checks.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned.  A workload runs in *blocks*; each block
holds the same multiset of operations (only their order changes with the
seed), so a run that stops on a block boundary always measures the same
operation mix.  Every operation is timed on the program CPU
clock of ``hostspeed.CLOCK`` (converted to reference seconds by the
runner) and checked against the committed references in
``references.json`` (regenerated by ``make_references.py``).

An operation fails when it raises, or when its output differs from its
reference.  For simulations, the reference holds ``RunResult.metrics()``
(deadline misses, occupancy verdict, firing and sink counts, measured
rates) and a digest of every sink's consumed values, all taken from a
``fast_forward=False`` run; a run whose occupancy exceeds the analysed
capacities fails as well.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api import Program, Sweep
from repro.core.compiler import OilCompiler
from repro.engine.policies import BoundedProcessors, SelfTimedUnbounded
from repro.service.store import ResultStore

from hostspeed import CLOCK

cpu = CLOCK.now

#: (app, parameter bindings the seed may draw).  Bindings are chosen so no
#: verdict fails and so a program's cost does not change its rank among the
#: five: the median operation is always a ``modal_two_mode`` verdict and the
#: p90 operation a ``pal_decoder`` verdict (see README.md).
ANALYZE_PROGRAMS = (
    ("quickstart", ({}, {"utilisation": 0.5})),
    ("rate_converter", ({}, {"f_wcet": Fraction(1, 2000)})),
    ("modal_mute", ({}, {"utilisation": 0.6})),
    ("modal_two_mode", ({},)),
    ("pal_decoder", ({},)),
)

#: simulated seconds per grid point of the Fig. 4 sweep / per long PAL run
FIG4_SECONDS = Fraction(1)
PAL_LONG_SECONDS = Fraction(20)

#: metrics() keys that legitimately differ from the naive reference run
_NOT_COMPARED = ("fast_forwarded",)


def fig4_schedulers() -> list:
    """Fresh policy objects for the Fig. 4 scheduler axis."""
    return [SelfTimedUnbounded(), BoundedProcessors(1), BoundedProcessors(2), BoundedProcessors(4)]


def binding_label(app: str, params: Dict[str, Any]) -> str:
    """The reference key of one program binding, e.g. ``quickstart(utilisation=0.5)``."""
    rendered = ", ".join(f"{key}={value}" for key, value in sorted(params.items()))
    return f"{app}({rendered})"


# ---------------------------------------------------------------- outputs


def verdict(program: Program, report) -> Dict[str, Any]:
    """The checked output of one analysis operation (JSON-safe)."""
    analysis = program.analyze()
    return {
        "consistent": analysis.consistent,
        "sink_rates": {name: str(rate) for name, rate in sorted(analysis.sink_rates.items())},
        "capacities": dict(sorted(analysis.capacities.items())),
        "latency": [[check.satisfied, str(check.actual_difference)] for check in analysis.latency],
        "rules": sorted(violation.rule_id for violation in report.violations),
    }


def sink_digests(run) -> Dict[str, str]:
    """sha256 of the repr of every sink's consumed values (exact floats)."""
    return {
        name: hashlib.sha256(repr(run.sink(name)).encode("utf-8")).hexdigest()
        for name in sorted(run.simulation.sinks)
    }


def run_output(run) -> Dict[str, Any]:
    """The checked output of one simulation (JSON-safe)."""
    metrics = json.loads(json.dumps(run.metrics()))
    for key in _NOT_COMPARED:
        metrics.pop(key, None)
    return {"metrics": metrics, "sinks": sink_digests(run)}


def _difference(actual: Dict[str, Any], expected: Optional[Dict[str, Any]]) -> Optional[str]:
    if expected is None:
        return "no reference"
    if actual == expected:
        return None
    keys = sorted(k for k in set(actual) | set(expected) if actual.get(k) != expected.get(k))
    return "differs from reference in " + ", ".join(keys)


def run_mismatch(run, expected: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why *run* fails its reference, or None."""
    if expected is None:
        return "no reference"
    if not run.occupancy_ok:
        return "occupancy exceeds the analysed capacities"
    output = run_output(run)
    problem = _difference(output["metrics"], expected["metrics"])
    if problem is None:
        problem = _difference(output["sinks"], expected["sinks"])
        if problem is not None:
            problem = "sink values " + problem
    return problem


def run_stats(run) -> Dict[str, Any]:
    """Engine / detector counters of one simulation (for the traced run)."""
    simulation = run.simulation
    steady = simulation.engine.steady_state
    skipped = steady.skipped_events if steady is not None else 0
    trace = run.trace
    return {
        "stepped_events": simulation.queue.processed - skipped,
        "trace_records": len(trace.firings) + len(trace.endpoint_events) + len(trace.violations),
        "jumps": steady.jumps if steady is not None else 0,
        "skipped_events": skipped,
        "snapshots": len(steady._seen) if steady is not None else 0,
    }


# ------------------------------------------------------------- operations


@dataclass
class Op:
    """One timed, checked operation."""

    label: str
    #: program CPU seconds (``hostspeed.CLOCK.now``) from *start* on
    cpu_s: float
    start: float = 0.0
    #: the same interval in reference seconds (``CLOCK.reference_s``), set
    #: by the runner once the block is done
    ref_s: float = 0.0
    #: simulated seconds the operation covered (0 for verdicts / cache hits)
    sim_s: float = 0.0
    #: None when the output matched its reference
    error: Optional[str] = None
    #: engine counters of a simulation operation
    stats: Dict[str, Any] = field(default_factory=dict)


class _NullTracer:
    def span(self, name: str):
        return nullcontext()


NULL_TRACER = _NullTracer()


class Workload:
    """Base: build inputs in ``__init__`` (timed as set-up), run blocks."""

    name = ""
    #: the calibration part (``hostspeed.REFERENCE_S``) timings are scaled by
    calibration = "arith"

    def __init__(self, references: Dict[str, Any], seed: int, workdir: Path) -> None:
        self.references = references[self.name]
        self.rng = random.Random(seed)
        self.workdir = workdir

    def block(self, tracer=NULL_TRACER) -> List[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class AnalyzeWorkload(Workload):
    """One verdict per operation: fresh program, compile, analyze, check."""

    name = "analyze"

    def __init__(self, references, seed, workdir) -> None:
        super().__init__(references, seed, workdir)
        # the modules from_app and check() import lazily on first use
        import repro.apps.modal_audio  # noqa: F401
        import repro.apps.pal_decoder  # noqa: F401
        import repro.apps.producer_consumer  # noqa: F401
        import repro.apps.rate_converter  # noqa: F401
        import repro.rules  # noqa: F401

    def _plan(self) -> List[tuple]:
        """Two rounds of the five programs; each binding used once per block."""
        offsets = {app: self.rng.randrange(len(bindings)) for app, bindings in ANALYZE_PROGRAMS}
        plan = []
        for round_index in range(2):
            for app, bindings in self.rng.sample(ANALYZE_PROGRAMS, len(ANALYZE_PROGRAMS)):
                plan.append((app, bindings[(offsets[app] + round_index) % len(bindings)]))
        return plan

    def block(self, tracer=NULL_TRACER) -> List[Op]:
        ops = []
        for app, params in self._plan():
            label = binding_label(app, params)
            start = cpu()
            try:
                with tracer.span("op.analyze"):
                    program = Program.from_app(app, **params)
                    program.compile()
                    analysis = program.analyze()
                    analysis.consistency, analysis.sizing, analysis.latency
                    report = program.check()
                elapsed = cpu() - start
                error = _difference(verdict(program, report), self.references.get(label))
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed = cpu() - start
                error = f"{type(exc).__name__}: {exc}"
            ops.append(Op(label, elapsed, start, error=error))
            program = analysis = report = None
            gc.collect()
        return ops


def _analysed_pal() -> Program:
    program = Program.from_app("pal_decoder")
    analysis = program.analyze()
    analysis.consistency, analysis.sizing, analysis.latency
    return program


class _CompileCounter:
    """Counts ``OilCompiler.compile`` calls while installed."""

    def __init__(self) -> None:
        self.count = 0
        self._original = OilCompiler.compile
        counter = self

        def compile(self_, *args, **kwargs):
            counter.count += 1
            return counter._original(self_, *args, **kwargs)

        OilCompiler.compile = compile

    def close(self) -> None:
        OilCompiler.compile = self._original


class _TimedStore(ResultStore):
    """A result store that notes the CPU clock after every row it stores,
    which is where one cold grid point ends and the next begins."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.put_times: List[float] = []

    def put(self, key, payload):
        stored = super().put(key, payload)
        self.put_times.append(cpu())
        return stored


class Fig4SweepWorkload(Workload):
    """The Fig. 4 scheduler grid on the PAL decoder at 1 s, cold then warm.

    The sweep runs over the program compiled and analysed at set-up (the
    compile-once ``Sweep(program=...)`` path), so analysis is a one-off
    set-up cost.  Each cold grid point is one operation; the warm re-run
    against the same store is one more.
    """

    name = "fig4-sweep"
    calibration = "memory"

    def __init__(self, references, seed, workdir) -> None:
        super().__init__(references, seed, workdir)
        self.program = _analysed_pal()
        self.compiles = _CompileCounter()

    def block(self, tracer=NULL_TRACER) -> List[Op]:
        """The four rotations of the scheduler axis, in an order drawn from
        the seed.

        Every scheduler runs once at every grid position, after the same
        predecessors.  Both matter: a point costs more the later it runs,
        because the sweep keeps the earlier points' runs (and their traces)
        alive, so a block fixes the multiset of (point, position) pairs.
        """
        ops = []
        for shift in self.rng.sample(range(4), 4):
            schedulers = fig4_schedulers()
            ops += self._grid(schedulers[shift:] + schedulers[:shift], tracer)
        return ops

    def _grid(self, schedulers: list, tracer) -> List[Op]:
        labels = [repr(scheduler) for scheduler in schedulers]
        sweep = Sweep(program=self.program, duration=FIG4_SECONDS).add_axis("scheduler", schedulers)
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            ops, cold = self._cold_grid(sweep, labels, root, tracer)
            ops.append(self._warm_rerun(sweep, cold, root, tracer, len(labels)))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        cold = None
        gc.collect()
        return ops

    def _cold_grid(self, sweep, labels, root, tracer):
        ops = [Op(label, 0.0, sim_s=float(FIG4_SECONDS)) for label in labels]
        store = _TimedStore(root)
        start = cpu()
        try:
            with tracer.span("op.fig4-sweep.cold"):
                cold = sweep.run(workers=1, store=store)
        except Exception as exc:  # a failed operation is counted, not fatal
            for i, op in enumerate(ops):
                op.cpu_s, op.error = (cpu() - start) / len(ops), f"{type(exc).__name__}: {exc}"
                op.start = start + i * op.cpu_s
            return ops, None
        finally:
            store.close()
        end = cpu()
        bounds = [start] + store.put_times[:-1] + [end]
        if len(bounds) != len(ops) + 1:  # a failed point stores no row
            bounds = [start + (end - start) * i / len(ops) for i in range(len(ops) + 1)]
        for i, (op, result) in enumerate(zip(ops, cold.results)):
            op.start, op.cpu_s = bounds[i], bounds[i + 1] - bounds[i]
            if not result.ok or result.run is None:
                op.error = result.error or "point was not executed"
            else:
                op.error = run_mismatch(result.run, self.references.get(op.label))
                op.stats = run_stats(result.run)
        return ops, cold

    def _warm_rerun(self, sweep, cold, root, tracer, points: int) -> Op:
        op = Op("warm re-run", 0.0, stats={"points": points})
        compiles = self.compiles.count
        start = cpu()
        op.start = start
        try:
            with tracer.span("op.fig4-sweep.warm"):
                warm = sweep.run(workers=1, store=root)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.cpu_s, op.error = cpu() - start, f"{type(exc).__name__}: {exc}"
            return op
        op.cpu_s = cpu() - start
        if cold is None:
            op.error = "cold grid failed"
        elif warm.service_stats["executed"] != 0:
            op.error = f"warm re-run executed {warm.service_stats['executed']} points"
        elif self.compiles.count != compiles:
            op.error = "warm re-run compiled"
        elif warm.to_json() != cold.to_json():
            op.error = "warm report differs from the cold report"
        return op

    def close(self) -> None:
        self.compiles.close()


class PalLongWorkload(Workload):
    """The PAL decoder at 20 s simulated under the facade defaults."""

    name = "pal-long"
    calibration = "memory"

    def __init__(self, references, seed, workdir) -> None:
        super().__init__(references, seed, workdir)
        self.analysis = _analysed_pal().analyze()

    def block(self, tracer=NULL_TRACER) -> List[Op]:
        op = Op("pal_decoder 20 s", 0.0, sim_s=float(PAL_LONG_SECONDS))
        start = cpu()
        op.start = start
        try:
            with tracer.span("op.pal-long"):
                run = self.analysis.run(PAL_LONG_SECONDS)
            op.cpu_s = cpu() - start
            op.error = run_mismatch(run, self.references)
            op.stats = run_stats(run)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.cpu_s = cpu() - start
            op.error = f"{type(exc).__name__}: {exc}"
        run = None
        gc.collect()
        return [op]


WORKLOADS = {cls.name: cls for cls in (AnalyzeWorkload, Fig4SweepWorkload, PalLongWorkload)}
