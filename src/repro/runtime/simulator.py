"""Discrete-event execution of compiled OIL programs.

The simulator instantiates the module hierarchy of a compiled program --
FIFOs, sources, sinks, sequential-module task graphs and black boxes -- and
executes it with self-timed (data-driven) task semantics on virtual
unbounded-parallel hardware: every task occupies its own processor, exactly
the execution model the CTA analysis bounds.  This replaces the paper's
multi-core MPSoC platform (ref. [28]); each task firing takes its registered
worst-case response time.

The simulation is used by the examples and benchmarks to validate the
analysis results: with the buffer capacities computed by
:mod:`repro.cta.buffer_sizing`, periodic sources never find their buffer full
and periodic sinks never find it empty, and the observed buffer occupancies
stay within the computed capacities.

Modal behaviour: a sequential module with a single (infinite) top-level loop
runs fully data-driven; a module with several top-level loops switches
between them according to a *mode schedule* (iteration quotas per loop)
supplied by the caller -- the adversarial mode sequences of experiment E10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.compiler import CompilationResult
from repro.engine.dispatcher import ExecutionEngine
from repro.engine.policies import SchedulerPolicy
from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Access, Task, TaskGraph
from repro.lang import ast
from repro.lang.semantics import BlackBoxModule
from repro.runtime.events import EventQueue
from repro.runtime.functions import FunctionRegistry, FunctionSpec, qualify_functions
from repro.runtime.sources import SinkDriver, SourceDriver, Stimulus
from repro.runtime.tasks import OilRuntimeError, RuntimeTask
from repro.runtime.trace import TraceRecorder
from repro.util.rational import Rat, TimeBase, as_rational
from repro.util.runwarnings import RunWarning

if TYPE_CHECKING:  # annotation only -- repro.platform imports the engine
    from repro.platform.model import Platform

#: A mode schedule: per module instance path (or module name), the cyclic list
#: of (loop identifier, iteration quota) phases.
ModeSchedule = Mapping[str, Sequence[Tuple[str, int]]]


@dataclass
class SequentialInstance:
    """Book-keeping of one instantiated sequential module."""

    path: str
    graph: TaskGraph
    tasks: List[RuntimeTask] = field(default_factory=list)
    #: phases: list of (loop identifier, iteration quota); empty = single mode
    phases: List[Tuple[str, int]] = field(default_factory=list)
    phase_index: int = 0

    def tasks_of_loop(self, loop: Optional[str]) -> List[RuntimeTask]:
        return [t for t in self.tasks if (t.task.loop or "").split(".")[0] == (loop or "")]

    def active_loop(self) -> Optional[str]:
        if not self.phases:
            return None
        return self.phases[self.phase_index % len(self.phases)][0]

    def apply_activation(self) -> None:
        """Activate the tasks of the current phase (single-mode: all tasks).

        When a mode switch activates a loop, the windows of its tasks are
        moved forward to the frontier the previous mode left behind -- this is
        the runtime counterpart of the distribution/combination tasks of
        Sec. V-B.3 (the next values of a stream go to whichever loop executes
        next), and the windows of inactive loops are excluded from the buffer
        availability computations so that an idle mode never blocks the
        active one.
        """
        if not self.phases:
            for task in self.tasks:
                task.active = True
            return
        active = self.active_loop()
        newly_active: List[RuntimeTask] = []
        for task in self.tasks:
            if task.one_shot:
                task.active = True
                continue
            top_loop = (task.task.loop or "").split(".")[0]
            was_active = task.active
            task.active = top_loop == active
            if task.active and not was_active:
                newly_active.append(task)
            if not task.active:
                task.phase_firings = 0

        # Reflect activation on the buffer windows.
        for task in self.tasks:
            if task.one_shot:
                continue
            key = task.producer_key()
            for access in task.task.reads:
                task.buffers[access.buffer].set_consumer_active(key, task.active)
            for access in task.task.writes:
                task.buffers[access.buffer].set_producer_active(key, task.active)

        # Newly activated tasks continue from the frontier of the instance.
        for task in newly_active:
            key = task.producer_key()
            for access in task.task.reads:
                buffer = task.buffers[access.buffer]
                frontier = max(
                    (
                        buffer.consumer_position(other.producer_key())
                        for other in self.tasks
                        if not other.one_shot
                        and any(a.buffer == access.buffer for a in other.task.reads)
                    ),
                    default=0,
                )
                buffer.advance_consumer_to(key, frontier)
            for access in task.task.writes:
                buffer = task.buffers[access.buffer]
                frontier = max(
                    (
                        buffer.producer_position(other.producer_key())
                        for other in self.tasks
                        if not other.one_shot
                        and any(a.buffer == access.buffer for a in other.task.writes)
                    ),
                    default=0,
                )
                buffer.advance_producer_to(key, frontier)

    def maybe_advance_phase(self) -> bool:
        """Advance to the next phase when the iteration quota is reached."""
        if not self.phases:
            return False
        loop, quota = self.phases[self.phase_index % len(self.phases)]
        loop_tasks = [t for t in self.tasks if not t.one_shot and (t.task.loop or "").split(".")[0] == loop]
        if not loop_tasks:
            return False
        if min(t.phase_firings for t in loop_tasks) >= quota:
            for task in loop_tasks:
                task.phase_firings = 0
            self.phase_index += 1
            self.apply_activation()
            return True
        return False


class Simulation:
    """A runnable instantiation of a compiled OIL program.

    Execution is delegated to the pluggable scheduler engine
    (:mod:`repro.engine`): this class instantiates the module hierarchy --
    buffers, drivers, runtime tasks, mode schedules -- and registers the
    resulting task fleet with an :class:`~repro.engine.dispatcher.ExecutionEngine`
    that performs indexed ready-set dispatch.

    Parameters (scheduling)
    -----------------------
    scheduler:
        A :class:`~repro.engine.policies.SchedulerPolicy` deciding which
        eligible task may occupy a processor; default
        :class:`~repro.engine.policies.SelfTimedUnbounded` (one processor per
        task, the execution model the CTA analysis bounds).  Platform
        policies (:mod:`repro.platform.policies`) are accepted here too and
        switch the engine to platform mode (processor assignment,
        preemption, per-processor accounting).
    platform:
        A :class:`~repro.platform.model.Platform` shorthand for
        ``scheduler=platform.policy()`` -- partitioned when the platform
        carries an affinity mapping, greedy list scheduling otherwise.
        Mutually exclusive with ``scheduler``.  The platform's speed-scaled
        firing durations join the tick-base derivation, so heterogeneous
        runs stay exact under ``time_base="auto"``/``"ticks"``.
    dispatcher:
        ``"ready-set"`` (default) or ``"polling"`` -- the brute-force
        whole-fleet reference dispatcher kept for equivalence testing and
        benchmarking.  Both produce bit-identical self-timed traces.
    trace_level:
        Granularity of the :class:`~repro.runtime.trace.TraceRecorder`
        (``"full"``, ``"endpoints"`` or ``"off"``).
    time_base:
        Time representation of the event queue.  ``"auto"`` (default)
        derives an exact integer-tick base from every period, response time
        and offset of the instantiated program and falls back transparently
        to exact :class:`~fractions.Fraction` timestamps when the durations
        do not fit one; ``"ticks"`` requires the tick base (raising
        otherwise); ``"fraction"`` forces the legacy representation; a ready
        :class:`~repro.util.rational.TimeBase` is validated against the
        program's durations and used as given.  Traces are bit-identical
        across all choices.
    fast_forward:
        Online steady-state detection and O(1) period skipping
        (:mod:`repro.engine.steady_state`):

        * ``"auto"`` (default) engages a *value-exact* detector when the
          program qualifies -- every source stimulus declared periodic in
          value (:class:`~repro.runtime.sources.Stimulus`) and every
          coordinated function declaring jump-exact behaviour
          (:class:`~repro.runtime.functions.FunctionSpec`).  Qualified
          runs are bit-identical to naive execution, data values
          included.  Unqualified runs step naively; auto-wrapped bare
          iterators and undeclared functions record ``undeclared-source``
          / ``undeclared-function`` warnings, while declared-but-aperiodic
          stimuli and engine-level refusals fall back silently.
        * ``True`` engages the legacy *timing-exact* detector for
          :meth:`run`.  Timing-derived results (completion times, misses,
          rates, busy accounting) stay exactly equal to a naive run; data
          values are replayed from the canonical period, so finite or
          aperiodic source signals are the caller's responsibility.
          Configurations that cannot fast-forward (fraction-mode queues,
          speed-migrating preemptive policies) record the reason in
          :attr:`warnings`.
        * ``False`` always steps naively.
    trace_retention:
        Keep only the most recent N records per trace stream (see
        :class:`~repro.runtime.trace.TraceRecorder`); ``None`` (default)
        stores everything.  Streaming counters and rates remain exact either
        way; long fast-forwarded horizons need a cap (or a coarser
        ``trace_level``) to avoid materialising billions of records.
    """

    def __init__(
        self,
        result: CompilationResult,
        registry: FunctionRegistry,
        *,
        source_signals: Optional[Mapping[str, Union[Stimulus, Iterable, Callable[[], Iterator]]]] = None,
        capacities: Optional[Mapping[str, Optional[int]]] = None,
        default_capacity: int = 64,
        mode_schedules: Optional[ModeSchedule] = None,
        sink_start_times: Optional[Mapping[str, Rat]] = None,
        top: Optional[str] = None,
        scheduler: Optional[SchedulerPolicy] = None,
        platform: Optional["Platform"] = None,
        dispatcher: str = "ready-set",
        trace_level: str = "full",
        time_base: Union[str, TimeBase] = "auto",
        fast_forward: Union[bool, str] = "auto",
        trace_retention: Optional[int] = None,
    ) -> None:
        self.result = result
        self.registry = registry
        if platform is not None:
            if scheduler is not None:
                raise OilRuntimeError("pass either scheduler= or platform=, not both")
            scheduler = platform.policy()
        #: the platform the run executes on (direct, or carried by a platform
        #: policy), or None under legacy boolean policies; its speed factors
        #: extend the tick-base duration set
        self.platform = platform if platform is not None else getattr(scheduler, "platform", None)
        self.queue = EventQueue()
        self.trace = TraceRecorder(level=trace_level, retention=trace_retention)
        self.engine = ExecutionEngine(self.queue, self.trace, policy=scheduler, mode=dispatcher)
        self.engine.on_complete = self._after_firing
        self.fast_forward = fast_forward
        #: fast-forward refusals recorded for this simulation (see the
        #: ``warnings`` property for the merged view)
        self._warnings: List[str] = []
        #: cached auto-mode qualification: (qualified, function specs);
        #: computed once at the first install so warnings appear once
        self._auto_setup: Optional[Tuple[bool, Dict[str, FunctionSpec]]] = None
        self.default_capacity = default_capacity
        self.mode_schedules = dict(mode_schedules or {})
        self.sink_start_times = {k: as_rational(v) for k, v in (sink_start_times or {}).items()}
        self._signals = dict(source_signals or {})

        provided = capacities if capacities is not None else result.buffer_capacities()
        self.capacities: Dict[str, int] = {
            name: value for name, value in provided.items() if value is not None
        }

        self.buffers: Dict[str, CircularBuffer] = {}
        self.sources: Dict[str, SourceDriver] = {}
        self.sinks: Dict[str, SinkDriver] = {}
        self.instances: List[SequentialInstance] = []
        #: O(1) task -> owning instance lookup (replaces the seed's linear
        #: scan over all instances on every firing completion)
        self._instance_of: Dict[RuntimeTask, SequentialInstance] = {}
        self._wired = False

        top_name = top or self._default_top()
        top_module = result.program.module(top_name)
        if isinstance(top_module, ast.SequentialModule):
            raise OilRuntimeError(
                "the simulation entry point must be a parallel module with sources and sinks"
            )
        self._instantiate_parallel(top_module, bindings={}, path=top_name)

        for instance in self.instances:
            instance.apply_activation()

        #: the integer-tick base the queue runs on, or ``None`` in fraction
        #: mode; chosen once the full duration set of the instantiated
        #: program is known and before any event is scheduled
        self.time_base: Optional[TimeBase] = self._select_time_base(time_base)

    # -------------------------------------------------------------- time base
    def _duration_set(self) -> List[Rat]:
        """Every duration the simulation can ever schedule with: driver
        periods (and the half periods delayed-start sinks phase in with),
        start offsets and task response times.  Event times are sums of these
        values, so a tick base covering this set covers all timestamps."""
        durations: List[Rat] = []
        for source in self.sources.values():
            durations.append(source.period)
            durations.append(source.start_offset)
        for sink in self.sinks.values():
            durations.append(sink.period)
            if sink.start_time is not None:
                durations.append(sink.start_time)
            else:
                durations.append(sink.period / 2)
        wcets = [task.wcet for task in self.engine.tasks]
        durations.extend(wcets)
        if self.platform is not None:
            # A platform policy schedules wcet / speed (and re-posts exact
            # remainders of those); the grid must cover the scaled set too.
            durations.extend(self.platform.scaled_durations(wcets))
        return durations

    def _select_time_base(self, requested: Union[str, TimeBase]) -> Optional[TimeBase]:
        """Resolve the ``time_base`` parameter against the instantiated
        program (see the class docstring for the selection/fallback rule)."""
        if requested == "fraction":
            return None
        if requested == "auto" and getattr(
            self.engine.policy, "migrates_across_speeds", False
        ):
            # Cross-speed resume remainders (remaining * s1 / s2) are not
            # closed under any finite tick grid; "auto" must stay with the
            # always-exact fraction representation for such policies.  An
            # explicit "ticks"/TimeBase request is honoured below and may
            # raise at the migrating resume.
            return None
        durations = self._duration_set()
        if isinstance(requested, TimeBase):
            timebase: Optional[TimeBase] = requested
        elif requested in ("auto", "ticks"):
            timebase = TimeBase.for_durations(durations)
        else:
            raise OilRuntimeError(
                f"unknown time base {requested!r}: expected 'auto', 'ticks', "
                f"'fraction' or a TimeBase instance"
            )
        if timebase is not None and any(timebase.try_ticks(d) is None for d in durations):
            # a duration does not divide the resolution: the tick grid would
            # be inexact, so this program keeps exact fractions
            timebase = None
        if timebase is None and (requested == "ticks" or isinstance(requested, TimeBase)):
            raise OilRuntimeError(
                "the program's periods/response times/offsets do not fit an "
                "integer tick base; use time_base='auto' or 'fraction'"
            )
        if timebase is not None:
            self.queue.set_timebase(timebase)
        return timebase

    # ------------------------------------------------------------------ build
    def _default_top(self) -> str:
        metadata = self.result.root.component.metadata
        name = metadata.get("module")
        if isinstance(name, str):
            return name
        if self.result.program.main is not None:
            return self.result.program.main.name
        raise OilRuntimeError("cannot determine the top-level module of the simulation")

    def _capacity_for(self, *keys: str, minimum: int = 1) -> int:
        """Combine the analysis capacities of the buffers chained between two
        modules into the capacity of the single runtime buffer implementing
        them (a series of buffers of sizes a and b behaves like one buffer of
        size a+b for the purposes of back pressure)."""
        total = 0
        matched = False
        for key in keys:
            if key in self.capacities:
                total += self.capacities[key]
                matched = True
        if not matched:
            total = self.default_capacity
        return max(total, minimum)

    def _access_capacity_keys(self, module_name: str, param: str) -> List[str]:
        """The analysis buffer names of all distribution/combination buffers
        that sit between *param* of *module_name* and the tasks that finally
        access it.

        For a sequential module these are its own ``<param>.access*`` buffers;
        for a parallel module the stream is forwarded to inner module calls,
        so the walk recurses into every call that receives the parameter.
        Black boxes contribute nothing (they access the FIFO directly).
        """
        boxes = self.result.analysis.black_boxes
        if module_name in boxes:
            return []
        try:
            definition = self.result.program.module(module_name)
        except KeyError:
            return []
        if isinstance(definition, ast.SequentialModule):
            prefix = f"{module_name}/"
            needle = f"/{param}.access"
            return [
                name for name in self.capacities if name.startswith(prefix) and needle in name
            ]
        keys: List[str] = []
        for call in definition.calls:
            target = boxes.get(call.module)
            if target is not None:
                params = [p.name for p in target.ports]
            else:
                params = [p.name for p in self.result.program.module(call.module).params]
            for inner_param, argument in zip(params, call.arguments):
                if argument.name == param:
                    keys.extend(self._access_capacity_keys(call.module, inner_param))
        return keys

    def _transfer_floor(self, module_name: str, param: str) -> int:
        """The largest number of values transferred in one access of *param*
        by *module_name* (a lower bound for any runtime buffer capacity)."""
        boxes = self.result.analysis.black_boxes
        if module_name in boxes:
            counts = [p.count for p in boxes[module_name].ports if p.name == param]
            return max(counts, default=1)
        try:
            definition = self.result.program.module(module_name)
        except KeyError:
            return 1
        if isinstance(definition, ast.SequentialModule):
            graph = self.result.task_graphs.get(module_name)
            if graph and param in graph.streams:
                counts = list(graph.streams[param].per_loop_counts.values())
                buffer_spec = graph.buffers.get(param)
                if buffer_spec is not None:
                    counts.extend(count for _, count in buffer_spec.producers)
                    counts.extend(count for _, count in buffer_spec.consumers)
                return max(counts, default=1)
            return 1
        floor = 1
        for call in definition.calls:
            target = boxes.get(call.module)
            if target is not None:
                params = [p.name for p in target.ports]
            else:
                params = [p.name for p in self.result.program.module(call.module).params]
            for inner_param, argument in zip(params, call.arguments):
                if argument.name == param:
                    floor = max(floor, self._transfer_floor(call.module, inner_param))
        return floor

    def _instantiate_parallel(
        self,
        module: ast.ParallelModule,
        bindings: Mapping[str, CircularBuffer],
        path: str,
    ) -> None:
        local: Dict[str, CircularBuffer] = dict(bindings)

        # Who uses each locally declared stream? (for capacity aggregation)
        users: Dict[str, List[Tuple[str, str]]] = {}
        for call in module.calls:
            target = self.result.analysis.black_boxes.get(call.module)
            params: List[Tuple[str, bool]]
            if target is not None:
                params = [(p.name, p.is_output) for p in target.ports]
            else:
                definition = self.result.program.module(call.module)
                params = [(p.name, p.is_output) for p in definition.params]
            for (param_name, _), argument in zip(params, call.arguments):
                users.setdefault(argument.name, []).append((call.module, param_name))

        def stream_capacity(par_key: str, stream: str) -> int:
            keys = [f"{par_key}/{stream}"]
            floor = 1
            for user_module, user_param in users.get(stream, []):
                keys.extend(self._access_capacity_keys(user_module, user_param))
                floor = max(floor, self._transfer_floor(user_module, user_param))
            return self._capacity_for(*keys, minimum=floor)

        # FIFOs declared here.
        for fifo in module.fifos:
            capacity = stream_capacity(module.name, fifo.name)
            buffer = CircularBuffer(f"{path}/{fifo.name}", capacity)
            self.buffers[buffer.name] = buffer
            local[fifo.name] = buffer

        # Sources and sinks declared here.
        for source in module.sources:
            capacity = stream_capacity(module.name, source.name)
            buffer = CircularBuffer(f"{path}/{source.name}", capacity)
            self.buffers[buffer.name] = buffer
            local[source.name] = buffer
            # SourceDriver normalises any legacy signal spelling (None,
            # list, factory, bare iterator) into a Stimulus; see
            # repro.runtime.sources.as_stimulus.
            driver = SourceDriver(
                name=source.name,
                buffer=buffer,
                period=Fraction(1) / Fraction(source.frequency_hz),
                values=self._signals.get(source.name),
                trace=self.trace,
                queue=self.queue,
                on_change=self._schedule_dispatch,
            )
            self.sources[source.name] = driver

        for sink in module.sinks:
            capacity = stream_capacity(module.name, sink.name)
            buffer = CircularBuffer(f"{path}/{sink.name}", capacity)
            self.buffers[buffer.name] = buffer
            local[sink.name] = buffer
            driver = SinkDriver(
                name=sink.name,
                buffer=buffer,
                period=Fraction(1) / Fraction(sink.frequency_hz),
                trace=self.trace,
                queue=self.queue,
                start_time=self.sink_start_times.get(sink.name),
                on_change=self._schedule_dispatch,
            )
            self.sinks[sink.name] = driver

        # Instantiate the called modules.
        for index, call in enumerate(module.calls):
            child_path = f"{path}/{call.module}" if path else call.module
            if call.module in self.result.analysis.black_boxes:
                box = self.result.analysis.black_boxes[call.module]
                child_bindings = {
                    port.name: local[argument.name]
                    for port, argument in zip(box.ports, call.arguments)
                }
                self._instantiate_black_box(box, child_bindings, child_path)
                continue
            definition = self.result.program.module(call.module)
            child_bindings = {
                param.name: local[argument.name]
                for param, argument in zip(definition.params, call.arguments)
            }
            if isinstance(definition, ast.ParallelModule):
                self._instantiate_parallel(definition, child_bindings, child_path)
            else:
                self._instantiate_sequential(definition, child_bindings, child_path)

    def _instantiate_sequential(
        self,
        module: ast.SequentialModule,
        bindings: Mapping[str, CircularBuffer],
        path: str,
    ) -> None:
        graph = self.result.task_graphs[module.name]
        instance = SequentialInstance(path=path, graph=graph)

        # Local variable buffers.
        buffers: Dict[str, CircularBuffer] = dict(bindings)
        for buffer_spec in graph.buffers.values():
            if buffer_spec.kind != "variable":
                continue
            capacity = self._capacity_for(f"{module.name}/{buffer_spec.name}", minimum=2)
            buffer = CircularBuffer(f"{path}/{buffer_spec.name}", capacity)
            self.buffers[buffer.name] = buffer
            buffers[buffer_spec.name] = buffer

        # Runtime tasks.
        for task in sorted(graph.tasks.values(), key=lambda t: t.order):
            runtime_task = RuntimeTask(
                name=task.name,
                task=task,
                instance=path,
                registry=self.registry,
                buffers=buffers,
                wcet=task.firing_duration,
                one_shot=task.loop is None,
            )
            key = runtime_task.producer_key()
            for access in task.reads:
                buffers[access.buffer].register_consumer(key)
            for access in task.writes:
                buffers[access.buffer].register_producer(key)
            instance.tasks.append(runtime_task)
            self._register_task(runtime_task, instance)

        # Mode schedule (multiple top-level loops).
        top_loops = graph.top_level_loops()
        schedule = self.mode_schedules.get(path) or self.mode_schedules.get(module.name)
        if schedule:
            instance.phases = [(loop, int(quota)) for loop, quota in schedule]
        elif len(top_loops) > 1:
            # Default: round-robin with one iteration per loop.
            instance.phases = [(loop.identifier, 1) for loop in top_loops]
        self.instances.append(instance)

    def _instantiate_black_box(
        self,
        box: BlackBoxModule,
        bindings: Mapping[str, CircularBuffer],
        path: str,
    ) -> None:
        task = Task(name=box.name, kind="call", function=box.name, firing_duration=box.firing_duration)
        task.reads = [Access(port.name, port.count) for port in box.ports if not port.is_output]
        task.writes = [Access(port.name, port.count) for port in box.ports if port.is_output]
        runtime_task = RuntimeTask(
            name=f"{box.name}",
            task=task,
            instance=path,
            registry=self.registry,
            buffers=dict(bindings),
            wcet=box.firing_duration,
        )
        key = runtime_task.producer_key()
        for access in task.reads:
            bindings[access.buffer].register_consumer(key)
        for access in task.writes:
            bindings[access.buffer].register_producer(key)
        instance = SequentialInstance(path=path, graph=TaskGraph(box.name))
        instance.tasks.append(runtime_task)
        self.instances.append(instance)
        self._register_task(runtime_task, instance)

    # -------------------------------------------------------------- scheduling
    @property
    def tasks(self) -> List[RuntimeTask]:
        """The task fleet, in registration (static priority) order.  The
        engine owns the list; this is a read-only view."""
        return self.engine.tasks

    def _register_task(self, task: RuntimeTask, instance: SequentialInstance) -> None:
        self._instance_of[task] = instance
        self.engine.register_task(task)

    def _schedule_dispatch(self) -> None:
        """Driver change callback: ask the engine for a dispatch round."""
        self.engine.schedule_dispatch()

    def _after_firing(self, task: RuntimeTask) -> None:
        """Engine completion hook: advance mode schedules and wake sinks.

        A phase switch (de)activates whole loops; besides the buffer-floor
        notifications that already woke dependents, every task of the
        instance is re-queued because activation alone can change
        eligibility without moving any floor.
        """
        instance = self._instance_of.get(task)
        if instance is not None and instance.maybe_advance_phase():
            self.engine.wake_tasks(instance.tasks)
        self._notify_sinks()

    def _notify_sinks(self) -> None:
        for driver in self.sinks.values():
            driver.notify_data_available()

    # ---------------------------------------------------------- fast-forward
    @property
    def warnings(self) -> List[str]:
        """Fast-forward refusals and give-ups recorded so far (the same
        strings a :class:`~repro.api.sweep.SweepReport` collects)."""
        steady = self.engine.steady_state
        extra = list(steady.warnings) if steady is not None else []
        return self._warnings + extra

    def _mode_state(self) -> tuple:
        """Mode-schedule progress, folded into the fast-forward state key.

        The engine's detector deliberately excludes ``task.phase_firings``
        (it grows without bound on unphased tasks); under a mode schedule the
        counter is bounded -- reset at every quota boundary and deactivation
        -- and, together with the cyclic phase index, it *is* the schedule's
        progress, so phased instances contribute exactly that here.
        """
        items = []
        for instance in self.instances:
            if not instance.phases:
                continue
            items.append(
                (
                    instance.path,
                    instance.phase_index % len(instance.phases),
                    tuple(
                        task.phase_firings
                        for task in instance.tasks
                        if not task.one_shot
                    ),
                )
            )
        return tuple(items)

    def _value_exact_qualification(self) -> Tuple[bool, Dict[str, FunctionSpec]]:
        """Qualify the program for value-exact fast-forward.

        Qualified means: every source stimulus is declared value-periodic
        and every function the fleet can invoke declares jump-exact
        behaviour.  The two *undeclared* situations -- a deprecated bare
        iterator that had to be auto-wrapped, and a function with no
        declaration at all -- record structured warnings; declared-but-
        aperiodic stimuli (ramps, generator factories, finite lists) and
        unregistered fallback names disqualify silently (the user declared
        exactly what the stream is; auto simply cannot jump it).
        """
        qualified = True
        undeclared_sources: List[str] = []
        for name, driver in sorted(self.sources.items()):
            stimulus = driver.values
            if getattr(stimulus, "auto_wrapped", False):
                qualified = False
                undeclared_sources.append(name)
            elif not stimulus.value_periodic:
                qualified = False
        functions_qualified, specs, function_warning = qualify_functions(self.engine.tasks)
        qualified = qualified and functions_qualified
        if undeclared_sources:
            self._warnings.append(
                RunWarning(
                    "fast-forward (auto) fell back to naive execution: "
                    f"source(s) {', '.join(undeclared_sources)} wrap a bare "
                    "iterator that cannot be advanced through a jump; pass a "
                    "Stimulus (or a zero-argument factory) instead",
                    "undeclared-source",
                )
            )
        if function_warning is not None:
            self._warnings.append(function_warning)
        return qualified, specs

    def _install_fast_forward(self, horizon: Rat) -> None:
        if self.fast_forward == "auto":
            if self._auto_setup is None:
                self._auto_setup = self._value_exact_qualification()
            qualified, specs = self._auto_setup
            if not qualified:
                return
            # Engine-level refusals are silent under auto ("auto" never
            # promised a jump); the value-exact detector gets a larger state
            # budget because value periods are multiples of timing periods.
            self.engine.enable_fast_forward(
                horizon,
                extra_state=self._mode_state,
                sources=list(self.sources.values()),
                sinks=list(self.sinks.values()),
                max_states=16_384,
                value_exact=True,
                functions=specs,
            )
            return
        refusal = self.engine.enable_fast_forward(
            horizon,
            extra_state=self._mode_state,
            sources=list(self.sources.values()),
            sinks=list(self.sinks.values()),
        )
        if refusal is not None and refusal not in self._warnings:
            self._warnings.append(refusal)

    # ------------------------------------------------------------------- run
    def _start_drivers(self) -> None:
        """Launch sources and sinks (idempotently) and queue the task fleet.

        Driver windows must exist before the engine's buffer index is wired,
        so wiring happens on the first call -- after which buffer-floor
        notifications drive all dispatching.  Calling a run method again
        neither re-registers windows nor duplicates the periodic tick chains
        (the drivers' ``start`` is idempotent); it only re-queues the fleet.
        """
        for driver in self.sources.values():
            driver.start()
        for driver in self.sinks.values():
            driver.start()
        if not self._wired:
            self._wired = True
            self.engine.wire_buffers()
        self.engine.wake_all()
        self.engine.schedule_dispatch()

    def run(self, duration: Rat) -> TraceRecorder:
        """Run the simulation until the absolute simulated time *duration*.

        *duration* is an end time measured from simulation start (t = 0),
        not an increment: a repeated call resumes where the previous one
        stopped and runs up to the new end time, so ``run(1); run(2)``
        simulates two seconds in total and a second ``run(1)`` is a no-op.
        """
        duration = as_rational(duration)
        self._start_drivers()
        if self.fast_forward:
            self._install_fast_forward(duration)
        self.queue.run_until(duration)
        return self.trace

    def run_until_sink_count(
        self, sink: str, count: int, *, max_time: Rat = Fraction(10)
    ) -> TraceRecorder:
        """Run until *sink* consumed *count* values (or *max_time* elapsed).

        Value-exact programs (``fast_forward="auto"``, qualified) may
        fast-forward here too: jumps are capped strictly short of the
        requested count (the final consumptions run naively), so the run
        halts at the exact instant -- with the exact sink values -- a naive
        run would.  A *timing-exact* detector (``fast_forward=True``) could
        overshoot with stale values, so it is parked by zeroing its horizon
        for the duration of this call; the next :meth:`run` re-arms it.
        """
        max_time = as_rational(max_time)
        self._start_drivers()
        if self.fast_forward == "auto":
            self._install_fast_forward(max_time)
        steady = self.engine.steady_state
        value_exact = steady is not None and steady.value_exact
        if steady is not None:
            if value_exact:
                steady.sink_target = (list(self.sinks).index(sink), count)
            else:
                steady.horizon = 0
        target = self.sinks[sink]
        queue = self.queue
        # Step in the queue's native units: on a tick base the step is at
        # least one tick, so the loop always makes progress even when the
        # fractional step would floor to the current instant.
        end: Any
        if queue.timebase is not None:
            end = queue.timebase.ticks_floor(max_time)
            step = max(1, end // 64)
        else:
            end = max_time
            step = max_time / 64
        try:
            while queue.now < end and target.consumed_count < count:
                # Chunk boundaries are absolute multiples of the step, not
                # ``now + step``: a fast-forward jump lands between grid
                # points, and anchoring at ``now`` would shift every later
                # boundary -- the run would halt at a different instant (and
                # with a different overshoot) than a naive run.  On the
                # absolute grid both runs stop at the same boundary.
                boundary = (queue.now // step + 1) * step
                queue.run_until(min(boundary, end))
                if queue.empty():
                    break
        finally:
            if value_exact:
                steady.sink_target = None
        return self.trace
