"""Event-driven ready-set dispatch of runtime tasks.

The seed simulator validated the paper's claims with an O(all-tasks) polling
dispatcher: every buffer change scheduled a dispatch event that re-scanned the
whole task fleet (repeatedly, until a fixpoint).  That is fine for the paper's
small figures and fatal for large programs.  The :class:`ExecutionEngine`
replaces it with dependency-indexed dispatch:

* every :class:`~repro.graph.circular_buffer.CircularBuffer` carries a reverse
  index of the tasks reading and writing it (wired by :meth:`wire_buffers`);
  when the buffer's produced floor moves its *readers* are pushed onto the
  ready set, when its consumed floor moves its *writers* are -- nothing else
  is ever re-examined,
* the ready set (:class:`ReadySet`) is *pass-structured*: it hands out tasks
  in static (registration) order and defers tasks woken at-or-before the
  cursor to the next pass, which reproduces the exact fixpoint iteration
  order of the polling dispatcher -- self-timed traces are bit-identical to
  the seed implementation,
* a pluggable :class:`~repro.engine.policies.SchedulerPolicy` gates starts,
  so the same dispatch core executes unbounded self-timed, bounded-processor
  and static-order schedules,
* a *platform* policy (:mod:`repro.platform.policies`, detected by the
  presence of ``decide_start``) upgrades the boolean gate to full
  ``(task, processor, start | preempt | resume)`` decisions: the engine then
  tracks in-flight firings (:class:`ActiveFiring`), cancels and re-posts
  completion events on preemption with the exact remaining work, scales
  durations by processor speed, and accounts busy time per processor.

The polling dispatcher survives as ``mode="polling"`` -- the brute-force
reference the equivalence tests and the dispatch microbenchmark compare
against.  Platform policies require ready-set mode (the polling reference
predates processors as first-class objects).

Starting a task only *consumes* tokens (outputs are released at completion),
and consuming can only enable other tasks -- a producer gains space, no
consumer loses tokens (windows are private).  Eligibility is therefore
monotone within a dispatch, which is what makes the ready-set fixpoint equal
to the polling fixpoint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.policies import SchedulerPolicy, SelfTimedUnbounded
from repro.graph.circular_buffer import CircularBuffer
from repro.util.rational import Rat, TimeBase, TimeBaseError, as_rational
from repro.util.validation import check_in

if TYPE_CHECKING:  # imports only for annotations: runtime.simulator imports us
    from repro.engine.steady_state import SteadyState
    from repro.platform.model import Platform, Processor
    from repro.runtime.events import Event, EventQueue
    from repro.runtime.sources import SinkDriver, SourceDriver
    from repro.runtime.tasks import RuntimeTask
    from repro.runtime.trace import TraceRecorder

class ReadySet:
    """An ordered ready set that replays the polling dispatcher's pass order.

    The polling reference repeatedly scans all tasks in registration order
    until a whole pass starts nothing.  Its ordering rule, restated per task:
    a task woken at an index *greater* than the scan cursor is reached later
    in the same pass; a task woken at-or-before the cursor has to wait for
    the next pass.  :meth:`push`/:meth:`pop` implement exactly that rule over
    only the woken tasks, so the dispatch order (and with it the trace) is
    identical while the work per dispatch shrinks from O(all tasks) to
    O(woken tasks).
    """

    def __init__(self) -> None:
        self._current: List[int] = []  # min-heap of indices > cursor (this pass)
        self._deferred: List[int] = []  # indices <= cursor (next pass)
        self._queued: set[int] = set()
        self._cursor = -1

    def __len__(self) -> int:
        return len(self._queued)

    def push(self, index: int) -> None:
        if index in self._queued:
            return
        self._queued.add(index)
        if index > self._cursor:
            heapq.heappush(self._current, index)
        else:
            self._deferred.append(index)

    def pop(self) -> Optional[int]:
        """Next index in pass order; ``None`` (and cursor reset) when empty."""
        if not self._current:
            if not self._deferred:
                self._cursor = -1
                return None
            self._current = self._deferred
            heapq.heapify(self._current)
            self._deferred = []
            self._cursor = -1
        index = heapq.heappop(self._current)
        self._queued.discard(index)
        self._cursor = index
        return index


@dataclass
class ActiveFiring:
    """One in-flight (or suspended) firing under a platform policy.

    ``remaining`` is ``None`` while the firing runs; a preemption records the
    native-unit time still owed (``completion event time - now``, exact in
    both tick and fraction modes) and the speed it was accrued at, so a
    resume -- possibly on a different-speed processor -- re-posts the
    completion with exactly the outstanding work.
    """

    task: "RuntimeTask"
    values: dict
    start: Union[int, Fraction]
    processor: "Processor"
    #: start of the current uninterrupted execution segment (busy accounting)
    segment_start: Union[int, Fraction]
    event: Optional["Event"] = None
    #: native-unit time still owed after a preemption (None while running)
    remaining: Optional[Union[int, Fraction]] = None
    #: speed factor ``remaining`` was accrued at (for migrating resumes)
    suspended_speed: Optional[Fraction] = None


class ExecutionEngine:
    """Dispatches runtime tasks over an event queue under a scheduling policy.

    The engine owns the hot path of a simulation: deciding which task starts
    when.  It is independent of the OIL module hierarchy --
    :class:`~repro.runtime.simulator.Simulation` instantiates that hierarchy
    and registers the resulting tasks here; benchmarks and scheduler tests
    drive the engine directly on synthetic task sets
    (:mod:`repro.engine.synthetic`).

    Parameters
    ----------
    queue, trace:
        The discrete-event queue and trace recorder shared with the drivers.
    policy:
        A :class:`~repro.engine.policies.SchedulerPolicy`; default
        :class:`~repro.engine.policies.SelfTimedUnbounded`.
    mode:
        ``"ready-set"`` (indexed dispatch, the default) or ``"polling"``
        (the brute-force whole-fleet reference).

    Every dispatch loop starts firings through the same task path (windows
    bound once, floors read from the buffers' caches) and ends them in one
    completion tail (:meth:`_complete`).
    """

    MODES = ("ready-set", "polling")

    def __init__(
        self,
        queue: EventQueue,
        trace: TraceRecorder,
        *,
        policy: Optional[SchedulerPolicy] = None,
        mode: str = "ready-set",
    ) -> None:
        check_in(mode, self.MODES, "mode")
        self.queue = queue
        self.trace = trace
        self.policy: SchedulerPolicy = policy if policy is not None else SelfTimedUnbounded()
        self.mode = mode
        #: True when the policy speaks the rich platform protocol
        #: (``decide_start``); detected by duck-typing so this module never
        #: imports :mod:`repro.platform`
        self.platform_mode = callable(getattr(self.policy, "decide_start", None))
        if self.platform_mode and mode == "polling":
            raise ValueError(
                "platform policies require the ready-set dispatcher; the "
                "polling reference predates processors as first-class objects"
            )
        self.tasks: List[RuntimeTask] = []
        self._index: Dict[RuntimeTask, int] = {}
        self._ready = ReadySet()
        self._dispatch_pending = False
        self._in_dispatch = False
        self.started_firings = 0
        self.completed_firings = 0
        #: platform-mode state: in-flight firings, suspended firings and the
        #: per-processor busy-time accumulators (native units)
        self._active: Dict[RuntimeTask, ActiveFiring] = {}
        self._suspended: Dict[RuntimeTask, ActiveFiring] = {}
        self._busy_internal: Dict[str, Union[int, Fraction]] = {}
        self._duration_cache: Dict[tuple, Union[int, Fraction]] = {}
        self.preemptions = 0
        self.resumes = 0
        #: completion time of the last finished firing in the queue's native
        #: units; maintained independently of the trace so makespans survive
        #: ``trace_level="off"``.  Read via :attr:`last_completion_time`.
        self._last_completion: Union[int, Fraction] = 0
        #: steady-state fast-forward detector (enable_fast_forward)
        self._steady: Optional["SteadyState"] = None
        # A fresh engine is a fresh execution: drop any processor accounting
        # a previous (possibly mid-flight-stopped) run left in the policy.
        reset = getattr(self.policy, "reset", None)
        if reset is not None:
            reset()
        #: optional hook run at the end of every completion (the simulator
        #: advances mode-schedule phases and notifies waiting sinks here)
        self.on_complete: Optional[Callable[[RuntimeTask], None]] = None

    @property
    def last_completion_time(self) -> Rat:
        """Completion time of the last finished firing as exact rational
        seconds (correct at every trace level and in both time
        representations)."""
        return self.queue.to_time(self._last_completion)

    @property
    def processor_busy_time(self) -> Dict[str, Rat]:
        """Accumulated busy time per processor as exact rational seconds
        (platform mode only; empty under legacy boolean policies).  Busy
        time of a suspended firing stops at the preemption instant and
        continues at the resume, and a still-running firing counts its
        executed segment up to the current instant -- so the sum over
        processors equals the sum of actually executed segments even when a
        run horizon cuts firings mid-flight."""
        busy = dict(self._busy_internal)
        now = self.queue.now
        for firing in self._active.values():
            name = firing.processor.name
            busy[name] = busy.get(name, 0) + now - firing.segment_start
        return {name: self.queue.to_time(value) for name, value in sorted(busy.items())}

    @property
    def suspended_tasks(self) -> List["RuntimeTask"]:
        """Tasks whose current firing is preempted (awaiting resume)."""
        return list(self._suspended)

    @property
    def steady_state(self) -> Optional["SteadyState"]:
        """The installed fast-forward detector (None when disabled/refused)."""
        return self._steady

    def enable_fast_forward(
        self,
        horizon,
        *,
        extra_state=None,
        sources: Sequence["SourceDriver"] = (),
        sinks: Sequence["SinkDriver"] = (),
        firing_target: Optional[int] = None,
        max_states: int = 10_000,
        value_exact: bool = False,
        functions=None,
    ) -> Optional[str]:
        """Install the steady-state detector for a run up to *horizon*.

        *horizon* is in native units or rational seconds (floored to the
        tick grid like :meth:`~repro.runtime.events.EventQueue.run_until`).
        Returns a refusal message (and leaves the engine naive) when the
        configuration cannot fast-forward -- see
        :func:`repro.engine.steady_state.fast_forward_refusal`; callers
        record it like a ``SweepReport`` warning.  Calling again (a second
        ``run`` on the same simulation) refreshes the horizon and firing
        target but keeps the learned state table.

        ``value_exact=True`` folds buffer contents, stimulus state and the
        state of the *functions* mapping (name -> ``FunctionSpec`` with
        ``get_state``) into the periodicity key, making jumps exact for
        data values too; callers must have qualified the configuration
        first (every stimulus declared periodic, every function
        ``jump_exact``).  Installing the value-exact detector arms
        incremental per-slot value digests on every reachable buffer
        (:meth:`~repro.graph.circular_buffer.CircularBuffer.enable_value_digests`),
        so subsequent writes carry a small constant digest cost and the
        per-anchor-completion sampling does O(changed-since-last-sample)
        work instead of re-walking every buffer.
        """
        from repro.engine.steady_state import SteadyState, fast_forward_refusal

        refusal = fast_forward_refusal(self.policy, self.queue.timebase)
        if refusal is not None:
            self._steady = None
            return refusal
        if not isinstance(horizon, int):
            horizon = self.queue.timebase.ticks_floor(as_rational(horizon))
        if self._steady is not None:
            self._steady.horizon = horizon
            self._steady.firing_target = firing_target
            return None
        self._steady = SteadyState(
            self,
            horizon=horizon,
            extra_state=extra_state,
            sources=sources,
            sinks=sinks,
            firing_target=firing_target,
            max_states=max_states,
            value_exact=value_exact,
            functions=functions,
        )
        return None

    # ------------------------------------------------------------------ build
    def register_task(self, task: RuntimeTask) -> None:
        """Add *task* to the fleet; registration order is the static priority
        order (it matches the extraction order the seed dispatcher scanned)."""
        self._index[task] = len(self.tasks)
        self.tasks.append(task)

    def wire_buffers(self) -> None:
        """Build the reverse dependency index: subscribe one waker per buffer
        so that a moved produced floor wakes the buffer's readers and a moved
        consumed floor wakes its writers.  Call once, after all tasks are
        registered and the queue's time base (if any) is set -- response
        times are pre-converted to the queue's native units here so the
        firing hot path only adds them.  The index itself is skipped in
        polling mode, which re-scans everything."""
        queue = self.queue
        for task in self.tasks:
            task.wcet_internal = queue.to_internal(task.wcet)
        if self.platform_mode:
            bind = getattr(self.policy, "bind", None)
            if bind is not None:
                bind(self.tasks)
            # Seed the busy accumulators so idle processors report 0 busy
            # time instead of being absent from the accounting.
            for processor in getattr(self.policy, "processors", ()):
                self._busy_internal.setdefault(processor.name, 0)
            # Partitioned policies pin every task to one processor; warming
            # the scaled-duration cache here keeps the firing hot path free
            # of Fraction division even on heterogeneous platforms.
            processor_of = getattr(self.policy, "processor_of", None)
            if callable(processor_of):
                for task in self.tasks:
                    self._duration_on(task, processor_of(task))
        if self.mode == "polling":
            return
        readers: Dict[CircularBuffer, List[RuntimeTask]] = {}
        writers: Dict[CircularBuffer, List[RuntimeTask]] = {}
        for task in self.tasks:
            for access in task.task.reads:
                dependents = readers.setdefault(task.buffers[access.buffer], [])
                if task not in dependents:
                    dependents.append(task)
            for access in task.task.writes:
                dependents = writers.setdefault(task.buffers[access.buffer], [])
                if task not in dependents:
                    dependents.append(task)
        for buffer, dependents in readers.items():
            buffer.watch_tokens(self._waker(dependents))
        for buffer, dependents in writers.items():
            buffer.watch_space(self._waker(dependents))

    def _waker(self, dependents: Sequence[RuntimeTask]) -> Callable[[], None]:
        """A buffer watcher pushing *dependents* onto the ready set; their
        indices are resolved once here, not per wake."""
        pairs = [(task, self._index[task]) for task in dependents]
        ready = self._ready

        def wake() -> None:
            woke = False
            for task, index in pairs:
                if task.busy or (task.one_shot and task.fired_once):
                    continue
                ready.push(index)
                woke = True
            if woke and not self._in_dispatch:
                self.schedule_dispatch()

        return wake

    # ------------------------------------------------------------------ wakes
    def wake_task(self, task: RuntimeTask) -> None:
        """Mark *task* for (re-)examination at the next dispatch."""
        if task.busy or (task.one_shot and task.fired_once):
            return
        if self.mode == "ready-set":
            self._ready.push(self._index[task])
        if not self._in_dispatch:
            self.schedule_dispatch()

    def wake_tasks(self, tasks: Iterable[RuntimeTask]) -> None:
        for task in tasks:
            self.wake_task(task)

    def wake_all(self) -> None:
        """Queue the whole fleet (start-up, or after an external change)."""
        self.wake_tasks(self.tasks)

    # -------------------------------------------------------------- dispatch
    def schedule_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.queue.schedule(self.queue.now, self._dispatch, label="dispatch")

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        self._in_dispatch = True
        try:
            if self.mode == "polling":
                self._dispatch_polling()
            elif self.platform_mode:
                self._dispatch_platform()
            else:
                self._dispatch_ready_set()
        finally:
            self._in_dispatch = False

    def _dispatch_polling(self) -> None:
        """The seed's dispatcher: rescan the whole fleet until a fixpoint."""
        progress = True
        while progress:
            progress = False
            for task in self.tasks:
                if task.can_fire() and self.policy.allow_start(task):
                    self._start_task(task)
                    progress = True

    def _dispatch_ready_set(self) -> None:
        """Examine only woken tasks, in the polling dispatcher's pass order.

        Tasks that are eligible but denied by the policy (all processors
        busy, not next in the static order) are kept queued for the next
        dispatch, which the policy's releasing completion always schedules.
        """
        ready, tasks, policy = self._ready, self.tasks, self.policy
        stalled: List[int] = []
        while True:
            index = ready.pop()
            if index is None:
                break
            task = tasks[index]
            if not task.can_fire():
                continue  # re-queued by the next relevant buffer change
            if not policy.allow_start(task):
                stalled.append(index)
                continue
            self._start_task(task)
        for index in stalled:
            ready.push(index)

    def _dispatch_platform(self) -> None:
        """Ready-set dispatch under the rich platform protocol.

        The loop mirrors :meth:`_dispatch_ready_set` exactly -- same pop
        order, same can-fire check, same stalled re-queueing -- so a
        degenerate platform policy (no preemption, unit speeds) schedules
        the very same events in the very same order as its legacy boolean
        counterpart: traces are bit-identical.  On top of that, a popped
        task may be a *suspended* firing (queued by a freed processor), in
        which case the policy decides a resume instead of a start, and any
        decision may name a lower-priority victim to preempt.
        """
        policy = self.policy
        stalled: List[int] = []
        while True:
            index = self._ready.pop()
            if index is None:
                break
            task = self.tasks[index]
            if task in self._suspended:
                decision = policy.decide_resume(task)
                if decision is None:
                    stalled.append(index)
                    continue
                if decision.preempt is not None:
                    self._preempt(decision.preempt)
                self._resume_firing(task, decision.processor)
                continue
            if not task.can_fire():
                continue  # re-queued by the next relevant buffer change
            decision = policy.decide_start(task)
            if decision is None:
                stalled.append(index)
                continue
            if decision.preempt is not None:
                self._preempt(decision.preempt)
            self._start_platform(task, decision.processor)
        for index in stalled:
            self._ready.push(index)

    # -------------------------------------------------------------- execution
    def _start_task(self, task: RuntimeTask) -> None:
        queue = self.queue
        values = task.start_firing()
        self.policy.on_start(task)
        self.started_firings += 1
        queue.schedule(
            queue.now + task.wcet_internal,
            partial(self._complete, task, values),
            label=task._complete_label,
        )

    def _complete(
        self,
        task: RuntimeTask,
        values: dict,
        processor: Optional["Processor"] = None,
        start: Union[int, Fraction, None] = None,
    ) -> None:
        """The completion tail of every firing: release the outputs, record
        the firing, notify the policy (with the *processor* under a platform
        policy) and the simulator hook, wake the task, suspended firings and
        the dispatcher, and sample the steady-state anchor.

        Without a *start*, the firing's start is recomputed from the
        completion instant rather than remembered: a steady-state jump
        translates the pending completion event, and ``now - wcet``
        translates with it.
        """
        executed = task.finish_firing(values)
        self.completed_firings += 1
        queue = self.queue
        now = queue.now
        self._last_completion = now
        trace = self.trace
        if trace.firings_enabled:
            if start is None:
                start = now - task.wcet_internal
            trace.record_firing(task._key, queue.to_time(start), queue.to_time(now), executed)
        if trace.occupancy_enabled:
            for _, _, buffer in task._writes:
                trace.record_occupancy(buffer.name, buffer.occupancy())
        if processor is None:
            self.policy.on_complete(task)
        else:
            self.policy.on_complete(task, processor)
        if self.on_complete is not None:
            self.on_complete(task)
        self.wake_task(task)
        if self._suspended:
            self._wake_suspended()
        self.schedule_dispatch()
        steady = self._steady
        if steady is not None and task is steady.anchor:
            steady.on_anchor_completion()

    # ------------------------------------------------- platform-mode execution
    def _duration_on(self, task: RuntimeTask, processor: "Processor") -> Union[int, Fraction]:
        """Native-unit occupancy of one firing of *task* on *processor*
        (``wcet / speed``, cached per pair; exact -- raises
        :class:`~repro.util.rational.TimeBaseError` when a scaled duration
        falls off an integer tick grid)."""
        if processor.speed == 1:
            return task.wcet_internal
        key = (task, processor.name)
        duration = self._duration_cache.get(key)
        if duration is None:
            duration = self.queue.to_internal(task.wcet / processor.speed)
            self._duration_cache[key] = duration
        return duration

    def _start_platform(self, task: RuntimeTask, processor: "Processor") -> None:
        start = self.queue.now
        values = task.start_firing()
        self.policy.on_start(task, processor)
        self.started_firings += 1
        firing = ActiveFiring(
            task=task, values=values, start=start, processor=processor, segment_start=start
        )
        self._active[task] = firing
        firing.event = self.queue.schedule(
            start + self._duration_on(task, processor),
            lambda: self._complete_platform(firing),
            label=task._complete_label,
        )

    def _complete_platform(self, firing: ActiveFiring) -> None:
        task = firing.task
        del self._active[task]
        name = firing.processor.name
        self._busy_internal[name] = (
            self._busy_internal.get(name, 0) + self.queue.now - firing.segment_start
        )
        self._complete(task, firing.values, firing.processor, firing.start)

    def _preempt(self, victim: RuntimeTask) -> None:
        """Suspend the in-flight firing of *victim*: cancel its completion
        event and record the exact native-unit time still owed."""
        firing = self._active.pop(victim)
        queue = self.queue
        queue.cancel(firing.event)
        firing.remaining = firing.event.time - queue.now
        firing.suspended_speed = firing.processor.speed
        name = firing.processor.name
        self._busy_internal[name] = (
            self._busy_internal.get(name, 0) + queue.now - firing.segment_start
        )
        victim.suspended = True
        victim.preemptions += 1
        self._suspended[victim] = firing
        self.preemptions += 1
        self.policy.on_preempt(victim, firing.processor)

    def _resume_firing(self, task: RuntimeTask, processor: "Processor") -> None:
        """Continue a suspended firing on *processor*, re-posting the
        completion with exactly the remaining work (rescaled by the speed
        ratio when the firing migrates across speeds)."""
        firing = self._suspended.pop(task)
        task.suspended = False
        queue = self.queue
        remaining = firing.remaining
        if processor.speed != firing.suspended_speed:
            # remaining work = remaining time x old speed; exact rescale
            work = queue.to_time(remaining) * firing.suspended_speed
            remaining = queue.to_internal(work / processor.speed)
        firing.processor = processor
        firing.segment_start = queue.now
        firing.remaining = None
        firing.suspended_speed = None
        self._active[task] = firing
        firing.event = queue.schedule(
            queue.now + remaining,
            lambda: self._complete_platform(firing),
            label=task._complete_label,
        )
        self.resumes += 1
        self.policy.on_resume(task, processor)

    def _wake_suspended(self) -> None:
        """Queue every suspended firing for a resume decision.  Suspended
        tasks are ``busy`` (their inputs are consumed), so :meth:`wake_task`
        would skip them; they are pushed directly."""
        for task in self._suspended:
            self._ready.push(self._index[task])


@dataclass
class EngineRun:
    """Outcome of a standalone engine execution (no module hierarchy)."""

    engine: ExecutionEngine
    queue: EventQueue
    trace: TraceRecorder
    #: fast-forward refusals and give-ups (empty when disabled or clean)
    warnings: List[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.warnings is None:
            self.warnings = []

    @property
    def fast_forwarded(self) -> bool:
        """True when at least one steady-state jump skipped simulated work."""
        steady = self.engine.steady_state
        return steady is not None and steady.jumps > 0

    @property
    def makespan(self):
        """Completion time of the last finished firing (engine-tracked, so
        it is correct at every trace level, including ``"off"``)."""
        return self.engine.last_completion_time

    def firing_sequence(self) -> List[str]:
        """Task names in completion order (with one-processor policies this
        equals the start order, i.e. the executed schedule).  Requires the
        default ``"full"`` trace level -- the sequence is read off the
        recorded firings."""
        return [firing.task.rsplit(":", 1)[-1] for firing in self.trace.firings]


def run_tasks(
    tasks: Sequence[RuntimeTask],
    *,
    policy: Optional[SchedulerPolicy] = None,
    platform: Optional["Platform"] = None,
    mode: str = "ready-set",
    stop_after_firings: Optional[int] = None,
    horizon=Fraction(10**9),
    trace: Optional[TraceRecorder] = None,
    time_base: Union[str, TimeBase, None] = "auto",
    fast_forward: Union[bool, str] = "auto",
) -> EngineRun:
    """Execute *tasks* data-driven on a fresh event queue.

    Runs until the queue drains, *horizon* is reached, or (when
    *stop_after_firings* is given) at least that many firings completed --
    whichever comes first.  This is the entry point for scheduler experiments
    and benchmarks that need the execution layer without compiling an OIL
    program.

    ``platform`` is a :class:`~repro.platform.model.Platform` shorthand for
    ``policy=platform.policy()`` (its natural default policy); pass a
    platform policy via ``policy=`` directly for preemptive / partitioned
    variants.  Mutually exclusive with ``policy``.

    ``time_base`` selects the queue's time representation: ``"auto"`` (the
    default) derives an integer-tick base from the tasks' response times --
    including their speed-scaled variants on every platform processor -- and
    falls back to exact fractions when none exists, ``"ticks"`` requires one
    (raising :class:`~repro.util.rational.TimeBaseError` otherwise),
    ``"fraction"`` (or ``None``) keeps the legacy fraction-based queue, and a
    ready :class:`~repro.util.rational.TimeBase` is used as given.  Traces
    are bit-identical across all choices.

    ``fast_forward`` selects the steady-state detector
    (:mod:`repro.engine.steady_state`):

    * ``"auto"`` (the default) installs a *value-exact* detector when every
      function the fleet invokes declares jump-exact behaviour
      (``stateless``, ``jump_invariant`` or ``get_state`` -- see
      :class:`~repro.runtime.functions.FunctionSpec`); the run is then
      bit-identical to naive execution, data values included.  Fleets with
      undeclared functions run naively, recording an
      ``undeclared-function`` :class:`~repro.util.runwarnings.RunWarning`;
      engine-level refusals fall back silently (auto never promised a
      jump).
    * ``True`` installs the legacy *timing-exact* detector: once the
      execution state repeats, the remaining horizon is skipped in O(1)
      per period with exactly the aggregate counters and trace a naive run
      would produce, but replayed data values are periodic-stale.
      Refusals (speed-migrating preemptive policies, fraction-mode queues)
      are recorded in ``EngineRun.warnings``.
    * ``False`` runs naively.
    """
    from repro.runtime.events import EventQueue
    from repro.runtime.trace import TraceRecorder

    if platform is not None:
        if policy is not None:
            raise ValueError("pass either policy= or platform=, not both")
        policy = platform.policy()

    timebase: Optional[TimeBase]
    if time_base is None or time_base == "fraction":
        timebase = None
    elif isinstance(time_base, TimeBase):
        timebase = time_base
    elif time_base in ("auto", "ticks"):
        if time_base == "auto" and getattr(policy, "migrates_across_speeds", False):
            # A firing preempted at one speed and resumed at another owes a
            # rescaled remainder that no finite tick grid is closed under;
            # "auto" keeps the always-exact fractions (an explicit "ticks"
            # request is honoured below and may raise at the migration).
            timebase = None
        else:
            durations = [task.wcet for task in tasks]
            # A platform policy schedules wcet / speed; the tick grid must
            # cover those scaled durations too, or exact ticks are
            # impossible.
            policy_platform = getattr(policy, "platform", None)
            if policy_platform is not None:
                durations.extend(policy_platform.scaled_durations(durations))
            timebase = TimeBase.for_durations(durations)
        if timebase is None and time_base == "ticks":
            raise TimeBaseError("no positive response time to derive a tick resolution from")
    else:
        raise ValueError(f"unknown time base {time_base!r}")
    queue = EventQueue(timebase)
    trace = trace if trace is not None else TraceRecorder()
    engine = ExecutionEngine(queue, trace, policy=policy, mode=mode)
    for task in tasks:
        engine.register_task(task)
    engine.wire_buffers()
    engine.wake_all()
    engine.schedule_dispatch()
    warnings: List[str] = []
    if fast_forward == "auto":
        from repro.runtime.functions import qualify_functions

        qualified, specs, warning = qualify_functions(tasks)
        if warning is not None:
            warnings.append(warning)
        if qualified:
            # Value periods are multiples of the timing period, so the
            # value-exact detector gets a larger state budget; refusals are
            # silent -- "auto" never promised a jump.
            engine.enable_fast_forward(
                horizon,
                firing_target=stop_after_firings,
                max_states=16_384,
                value_exact=True,
                functions=specs,
            )
    elif fast_forward:
        refusal = engine.enable_fast_forward(horizon, firing_target=stop_after_firings)
        if refusal is not None:
            warnings.append(refusal)
    if stop_after_firings is None:
        queue.run_until(horizon)
    else:
        target = stop_after_firings
        queue.run_until(horizon, stop=lambda: engine.completed_firings >= target)
    if engine.steady_state is not None:
        warnings.extend(engine.steady_state.warnings)
    return EngineRun(engine=engine, queue=queue, trace=trace, warnings=warnings)
