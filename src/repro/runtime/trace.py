"""Execution traces and measurements of the runtime simulator.

The trace recorder collects:

* task firings (task, start time, completion time, whether the guarded body
  actually executed),
* source productions and sink consumptions with their timestamps,
* deadline violations (a periodic source finding its buffer full, a periodic
  sink finding its buffer empty),
* buffer occupancy high-water marks.

From these it derives the measured quantities the experiments compare against
the analysis: sustained throughput per source/sink, end-to-end latency, and
maximal observed buffer occupancy (which must never exceed the capacities the
CTA buffer-sizing algorithm computed).

Recording granularity is configurable via ``level`` so throughput benchmarks
do not pay for bookkeeping they never read:

* ``"full"`` (default) -- everything: firings, endpoint events, violations
  and buffer occupancy high-water marks,
* ``"endpoints"`` -- only endpoint events and deadline violations (the
  signals the real-time claims are judged by); the high-volume per-firing
  records are skipped,
* ``"off"`` -- record nothing.

The ``*_enabled`` properties let hot paths skip computing a measurement (for
example a buffer occupancy) before handing it to a recorder that would drop
it anyway.

Long horizons need bounded memory: ``retention`` caps how many of each stored
record kind are kept (oldest dropped first) while *streaming* counters --
per-endpoint and per-task counts with first/last timestamps -- keep the
derived measurements (:meth:`measured_rate`, :meth:`task_throughput`,
:meth:`deadline_miss_count`, :meth:`summary`) exact over the whole run even
after the stored lists were trimmed.  The steady-state fast-forward engine
drives the same counters through :meth:`extrapolate_periodic` /
:meth:`replay_periodic` so skipped periods stay accounted for.

Each stored record kind is a :class:`RecordLog`: a read-only
``Sequence`` (``firings``, ``endpoint_events`` and ``violations`` are typed
``Sequence[...]``, not ``List[...]``) made of frozen segments plus a plain
``list`` tail that new records are appended to.  A steady-state jump does not
copy the skipped periods' records: :meth:`replay_periodic` freezes the tail
and pushes one repeat segment pointing at the canonical period, so a jump's
trace cost is independent of the horizon.  A record in a repeated period is
generated on access -- the canonical record shifted by whole periods, equal
by value to what a naive run stores -- as a fresh object each time, so
mutating one does not persist.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import eq, index as operator_index
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.util.rational import Rat
from repro.util.validation import check_in

#: Recognised trace levels, coarsest first.
TRACE_LEVELS = ("off", "endpoints", "full")


@dataclass
class Firing:
    task: str
    start: Rat
    end: Rat
    executed_body: bool

    def shifted(self, offset: Rat) -> "Firing":
        return Firing(self.task, self.start + offset, self.end + offset, self.executed_body)


@dataclass
class EndpointEvent:
    name: str
    kind: str  # "source" | "sink"
    time: Rat
    value: object

    def shifted(self, offset: Rat) -> "EndpointEvent":
        return EndpointEvent(self.name, self.kind, self.time + offset, self.value)


@dataclass
class DeadlineViolation:
    name: str
    kind: str  # "source-overflow" | "sink-underflow"
    time: Rat
    detail: str = ""

    def shifted(self, offset: Rat) -> "DeadlineViolation":
        return DeadlineViolation(self.name, self.kind, self.time + offset, self.detail)


def _segment_at(segments: Sequence, starts: Sequence[int], index: int):
    """Record ``index`` (global) of back-to-back ``segments`` starting at
    ``starts``; ``index`` must fall inside them."""
    k = bisect_right(starts, index) - 1
    return segments[k][index - starts[k]]


class _Repeat:
    """``copies`` repetitions of ``base``; copy ``c`` (counted from 0) is
    every base record shifted by ``period * (c + 1)``, built on access."""

    __slots__ = ("base", "copies", "period", "_width")

    def __init__(self, base: Sequence, copies: int, period: Rat):
        self.base = base
        self.copies = copies
        self.period = period
        self._width = len(base)

    def __len__(self) -> int:
        return self.copies * self._width

    def __getitem__(self, index: int):
        copy, offset = divmod(index, self._width)
        return self.base[offset].shifted(self.period * (copy + 1))

    def __iter__(self) -> Iterator:
        base = list(self.base)
        period = self.period
        for copy in range(1, self.copies + 1):
            offset = period * copy
            for record in base:
                yield record.shifted(offset)


class _Suffix:
    """Read-only view of frozen ``segments`` (starting at global indices
    ``starts``) from global index ``lo`` to their end."""

    __slots__ = ("segments", "starts", "lo", "_len")

    def __init__(self, segments: Tuple, starts: Tuple[int, ...], lo: int):
        self.segments = segments
        self.starts = starts
        self.lo = lo
        self._len = starts[-1] + len(segments[-1]) - lo

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int):
        return _segment_at(self.segments, self.starts, self.lo + index)

    def __iter__(self) -> Iterator:
        first = self.segments[0]
        for index in range(self.lo - self.starts[0], len(first)):
            yield first[index]
        for segment in self.segments[1:]:
            yield from segment


class RecordLog(_SequenceABC):
    """Append-only store of one trace record kind.

    A read-only ``Sequence``: frozen segments (plain lists, or lazy repeats
    of an earlier span pushed by :meth:`repeat`) followed by a plain ``list``
    tail.  :attr:`append` is the tail's bound ``list.append``, so recording
    costs what appending to a list costs.  ``len`` is O(1); indexing,
    slicing (which returns a ``list``), iteration and ``==`` against any
    sequence behave as on the equivalent list.
    """

    __slots__ = ("append", "_segments", "_starts", "_frozen", "_tail")

    def __init__(self, records: Iterable = ()):
        self._segments: List = []
        #: global index of each segment's first record
        self._starts: List[int] = []
        self._frozen = 0
        self._tail: List = list(records)
        self.append = self._tail.append

    def __reduce__(self):
        return (RecordLog, (self._tail,), (self._segments, self._starts, self._frozen))

    def __setstate__(self, state) -> None:
        self._segments, self._starts, self._frozen = state

    def __len__(self) -> int:
        return self._frozen + len(self._tail)

    def __getitem__(self, index):
        if not self._segments:
            return self._tail[index]
        if isinstance(index, slice):
            return [self._at(i) for i in range(*index.indices(len(self)))]
        index = operator_index(index)
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("record log index out of range")
        return self._at(index)

    def _at(self, index: int):
        if index >= self._frozen:
            return self._tail[index - self._frozen]
        return _segment_at(self._segments, self._starts, index)

    def __iter__(self) -> Iterator:
        return chain(chain.from_iterable(self._segments), self._tail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SequenceABC) or isinstance(other, (str, bytes, bytearray)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))

    def _push(self, segment: Sequence) -> None:
        self._starts.append(self._frozen)
        self._segments.append(segment)
        self._frozen += len(segment)

    def repeat(self, start: int, copies: int, period: Rat) -> None:
        """Append ``copies`` repetitions of ``self[start:]``, copy ``c``
        (counted from 1) shifted by ``c * period``, without copying a record:
        the tail is frozen and one lazy repeat segment pushed.  ``start`` may
        lie in an earlier repeat; the base is then a view across segments."""
        if self._tail:
            self._push(self._tail)
            self._tail = []
            self.append = self._tail.append
        if start >= self._frozen:
            return
        k = bisect_right(self._starts, start) - 1
        base = _Suffix(tuple(self._segments[k:]), tuple(self._starts[k:]), start)
        self._push(_Repeat(base, copies, period))

    def trim(self, keep: int) -> None:
        """Drop all but the last ``keep`` records."""
        assert not self._segments, "retention trimming meets a replayed segment"
        tail = self._tail
        if len(tail) > keep:
            del tail[: len(tail) - keep]


class _Stat:
    """Streaming (count, first time, last time) triple for one name."""

    __slots__ = ("count", "first", "last")

    def __init__(self, count: int = 0, first: Optional[Rat] = None, last: Optional[Rat] = None):
        self.count = count
        self.first = first
        self.last = last

    def add(self, time: Rat) -> None:
        if self.first is None:
            self.first = time
        self.last = time
        self.count += 1

    def rate(self) -> Optional[Rat]:
        if self.count < 2 or self.first is None or self.last is None:
            return None
        span = self.last - self.first
        if span <= 0:
            return None
        return Fraction(self.count - 1) / span


class TraceRecorder:
    """Accumulates simulation events and derives measurements.

    ``retention=None`` (the default) stores every record, preserving the
    historic list semantics exactly; an integer caps each stored list to the
    most recent ``retention`` entries while the streaming counters continue
    to cover the full run.
    """

    def __init__(
        self,
        firings: Optional[Iterable[Firing]] = None,
        endpoint_events: Optional[Iterable[EndpointEvent]] = None,
        violations: Optional[Iterable[DeadlineViolation]] = None,
        buffer_high_water: Optional[Dict[str, int]] = None,
        level: str = "full",
        retention: Optional[int] = None,
    ):
        check_in(level, TRACE_LEVELS, "trace level")
        if retention is not None and retention < 0:
            raise ValueError(f"trace retention must be >= 0, got {retention}")
        self.level = level
        self.retention = retention
        self._firings = RecordLog(firings or ())
        self._endpoint_events = RecordLog(endpoint_events or ())
        self._violations = RecordLog(violations or ())
        self.buffer_high_water: Dict[str, int] = dict(buffer_high_water) if buffer_high_water else {}
        #: streaming per-endpoint / per-task statistics covering the full run
        self._endpoint_stats: Dict[str, _Stat] = {}
        self._task_stats: Dict[str, _Stat] = {}
        self._firing_total = len(self._firings)
        self._endpoint_total = len(self._endpoint_events)
        self._violation_total = len(self._violations)
        for firing in self._firings:
            self._task_stats.setdefault(firing.task, _Stat()).add(firing.start)
        for event in self._endpoint_events:
            self._endpoint_stats.setdefault(event.name, _Stat()).add(event.time)

    # ----------------------------------------------------------------- levels
    @property
    def firings_enabled(self) -> bool:
        return self.level == "full"

    @property
    def occupancy_enabled(self) -> bool:
        return self.level == "full"

    @property
    def endpoints_enabled(self) -> bool:
        return self.level != "off"

    @property
    def violations_enabled(self) -> bool:
        return self.level != "off"

    # -------------------------------------------------------------- retention
    # A capped trace never holds replayed segments (the steady-state engine
    # replays stored records only with unbounded retention), so trimming
    # only ever cuts a log's plain tail.
    def _trim(self, records: RecordLog) -> RecordLog:
        if self.retention is not None:
            records.trim(self.retention)
        return records

    def _appended(self, records: RecordLog) -> None:
        # Chunked trimming: deleting the head of a list is O(n), so let the
        # list grow to twice the cap before cutting it back to size.
        retention = self.retention
        if retention is not None and len(records) > 2 * retention:
            records.trim(retention)

    @property
    def firing_total(self) -> int:
        """Firings recorded over the whole run -- the streaming counter,
        unaffected by the retention cap and exact through fast-forward."""
        return self._firing_total

    @property
    def endpoint_total(self) -> int:
        """Endpoint events recorded over the whole run (streaming)."""
        return self._endpoint_total

    @property
    def firings(self) -> Sequence[Firing]:
        return self._trim(self._firings)

    @property
    def endpoint_events(self) -> Sequence[EndpointEvent]:
        return self._trim(self._endpoint_events)

    @property
    def violations(self) -> Sequence[DeadlineViolation]:
        return self._trim(self._violations)

    # ------------------------------------------------------------- recording
    def record_firing(self, task: str, start: Rat, end: Rat, executed_body: bool) -> None:
        if self.firings_enabled:
            self._firing_total += 1
            stat = self._task_stats.get(task)
            if stat is None:
                stat = self._task_stats[task] = _Stat()
            stat.add(start)
            self._firings.append(Firing(task, start, end, executed_body))
            self._appended(self._firings)

    def record_endpoint(self, name: str, kind: str, time: Rat, value: object) -> None:
        if self.endpoints_enabled:
            self._endpoint_total += 1
            stat = self._endpoint_stats.get(name)
            if stat is None:
                stat = self._endpoint_stats[name] = _Stat()
            stat.add(time)
            self._endpoint_events.append(EndpointEvent(name, kind, time, value))
            self._appended(self._endpoint_events)

    def record_violation(self, name: str, kind: str, time: Rat, detail: str = "") -> None:
        if self.violations_enabled:
            self._violation_total += 1
            self._violations.append(DeadlineViolation(name, kind, time, detail))
            self._appended(self._violations)

    def record_occupancy(self, buffer: str, occupancy: int) -> None:
        if not self.occupancy_enabled:
            return
        current = self.buffer_high_water.get(buffer, 0)
        if occupancy > current:
            self.buffer_high_water[buffer] = occupancy

    # ----------------------------------------------------- fast-forward hooks
    def stream_snapshot(self) -> Dict[str, object]:
        """Capture the streaming counters (used by the steady-state detector
        to compute exact per-period deltas)."""
        return {
            "endpoint": {n: (s.count, s.first, s.last) for n, s in self._endpoint_stats.items()},
            "task": {n: (s.count, s.first, s.last) for n, s in self._task_stats.items()},
            "totals": (self._firing_total, self._endpoint_total, self._violation_total),
            "lengths": (len(self._firings), len(self._endpoint_events), len(self._violations)),
        }

    def extrapolate_periodic(self, snapshot: Mapping[str, object], copies: int, shift: Rat) -> None:
        """Account ``copies`` extra repetitions of the period since
        ``snapshot`` into the streaming counters.

        ``shift`` is the total simulated-time advance (``copies`` periods) in
        seconds; last-seen timestamps of names that progressed during the
        period move forward by it, first-seen timestamps stay (they fell in
        the transient or the single simulated canonical period).
        """
        for name, stat in self._endpoint_stats.items():
            before = snapshot["endpoint"].get(name, (0, None, None))  # type: ignore[index]
            delta = stat.count - before[0]
            if delta > 0:
                stat.count += copies * delta
                stat.last = stat.last + shift  # type: ignore[operator]
        for name, stat in self._task_stats.items():
            before = snapshot["task"].get(name, (0, None, None))  # type: ignore[index]
            delta = stat.count - before[0]
            if delta > 0:
                stat.count += copies * delta
                stat.last = stat.last + shift  # type: ignore[operator]
        totals_before = snapshot["totals"]  # type: ignore[index]
        self._firing_total += copies * (self._firing_total - totals_before[0])
        self._endpoint_total += copies * (self._endpoint_total - totals_before[1])
        self._violation_total += copies * (self._violation_total - totals_before[2])

    def replay_periodic(
        self, lengths: Tuple[int, int, int], copies: int, period: Rat
    ) -> None:
        """Append ``copies`` time-shifted repetitions of the records stored
        since ``lengths`` (a :meth:`stream_snapshot` ``lengths`` triple).

        Only meaningful with unbounded retention: the stored logs then stay
        bit-identical to a naive simulation of the skipped periods (values
        repeat the canonical period -- timing is value-independent, data is
        periodic by construction of the detector's state key).  O(1) in
        ``copies``: each log pushes one lazy repeat segment
        (:meth:`RecordLog.repeat`).  The streaming counters are *not* touched
        here; :meth:`extrapolate_periodic` already accounted for the copies.
        """
        assert self.retention is None, "stored records are replayed only without retention"
        for records, start in zip(
            (self._firings, self._endpoint_events, self._violations), lengths
        ):
            records.repeat(start, copies, period)

    # ----------------------------------------------------------- measurements
    def firings_of(self, task: str) -> List[Firing]:
        return [f for f in self.firings if f.task == task]

    def events_of(self, name: str) -> List[EndpointEvent]:
        return [e for e in self.endpoint_events if e.name == name]

    def measured_rate(self, name: str) -> Optional[Rat]:
        """Average events per second of a source or sink over the simulation."""
        stat = self._endpoint_stats.get(name)
        return stat.rate() if stat is not None else None

    def task_throughput(self, task: str) -> Optional[Rat]:
        """Average firings per second of a task."""
        stat = self._task_stats.get(task)
        return stat.rate() if stat is not None else None

    def first_output_time(self, name: str) -> Optional[Rat]:
        stat = self._endpoint_stats.get(name)
        return stat.first if stat is not None else None

    def end_to_end_latency(self, source: str, sink: str) -> Optional[Rat]:
        """Time between the first source production and the first sink
        consumption -- the pipeline fill latency."""
        first_in = self.first_output_time(source)
        first_out = self.first_output_time(sink)
        if first_in is None or first_out is None:
            return None
        return first_out - first_in

    def deadline_miss_count(self) -> int:
        return self._violation_total

    def endpoint_count(self, name: str) -> int:
        """Total events of one endpoint over the whole run (streaming)."""
        stat = self._endpoint_stats.get(name)
        return stat.count if stat is not None else 0

    def task_firing_count(self, task: str) -> int:
        """Total recorded firings of one task over the whole run (streaming)."""
        stat = self._task_stats.get(task)
        return stat.count if stat is not None else 0

    def summary(self) -> str:
        lines = [
            f"trace: {self._firing_total} firings, {self._endpoint_total} endpoint events, "
            f"{self._violation_total} violations"
        ]
        for name in sorted(self._endpoint_stats):
            rate = self.measured_rate(name)
            rendered = "n/a" if rate is None else f"{float(rate):.6g} Hz"
            lines.append(
                f"  {name}: {self.endpoint_count(name)} events, measured rate {rendered}"
            )
        if self.buffer_high_water:
            lines.append("  buffer high-water marks:")
            for buffer, occupancy in sorted(self.buffer_high_water.items()):
                lines.append(f"    {buffer}: {occupancy}")
        return "\n".join(lines)
