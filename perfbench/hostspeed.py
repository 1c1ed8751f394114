"""The benchmark's clock: CPU time scaled to a reference host speed.

On a shared host the CPU time of fixed work is not fixed: neighbours that
share the core's caches and execution units slow it down, in phases that
last from seconds to minutes.  On a 2-vCPU Xeon VM a fixed Python loop
took 1.5x longer in some 30-second windows than in others, so plain CPU
time moved a run's median operation by up to 40% between runs of the same
code.

:class:`HostClock` measures the host's speed while the benchmark runs.  A
``SIGALRM`` timer fires every :data:`INTERVAL_S` and runs one *calibration
round*: fixed pure-Python work that uses none of the program under test,
so no change to the program changes it.  A round has two parts, timed
apart, because contention slows different work by different amounts:

* ``arith``: ``Fraction`` arithmetic, dict, list, str and heap operations
  on a few kilobytes, like the CTA analyses;
* ``memory``: reads and writes at pseudo-random places of an 8 MiB buffer,
  like a simulation whose trace and buffers outgrow the private caches.

The rounds' own CPU is kept out of :meth:`HostClock.now`, the clock every
operation is timed with.  An interval of that clock converts to *reference
seconds* by the ratio of the part's :data:`REFERENCE_S` to the mean time of
that part sampled during the interval (or next to it, for an interval
shorter than the timer's): the CPU seconds the same work takes on a host
where the part takes ``REFERENCE_S``.  :attr:`HostClock.kind` names the
part a workload is scaled by.

The timer counts wall time (``ITIMER_REAL``); the benchmark is CPU-bound,
so that is CPU time too.  A CPU-time timer (``ITIMER_PROF``) would be
closer, but while one is armed Linux reads the process CPU clock at
scheduler-tick granularity (4 ms), which is as long as a round.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, Tuple

#: seconds between two calibration rounds
INTERVAL_S = 0.05
#: iterations of each part of a round (~4 ms and ~2 ms of CPU on a 2.0 GHz Xeon)
ARITH_ITERATIONS = 500
MEMORY_ITERATIONS = 6000
#: the unit's scale: each part's CPU seconds on the reference host
REFERENCE_S = {"arith": 0.004, "memory": 0.002}

_MEMORY = bytearray(1 << 23)
_MEMORY_MASK = len(_MEMORY) - 1


def arith_part() -> int:
    """Rational arithmetic, small allocations, dict and heap operations."""
    acc = Fraction(0)
    table = {}
    heap: List[Tuple[int, int]] = []
    for i in range(ARITH_ITERATIONS):
        acc = acc * Fraction(i % 7 + 1, i % 5 + 2) % 97 + Fraction(1, i % 11 + 1)
        table[i % 97] = (acc.numerator % 1000, [i, str(i)])
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table) + len(heap)


def memory_part() -> int:
    """Reads and writes at pseudo-random places of an 8 MiB buffer."""
    buffer, mask = _MEMORY, _MEMORY_MASK
    total, place = 0, 12345
    for i in range(MEMORY_ITERATIONS):
        place = (place * 1103515245 + 12345) & mask
        total += buffer[place]
        buffer[place] = i & 255
    return total


class HostClock:
    """Program CPU time (calibration rounds excluded) and the host speed
    sampled along it."""

    def __init__(self) -> None:
        #: the round part intervals are scaled by
        self.kind = "arith"
        #: CPU seconds spent in calibration rounds so far
        self.spent = 0.0
        #: program clock when each round ran
        self.times: List[float] = []
        #: each part's CPU seconds in each round
        self.rounds: Dict[str, List[float]] = {kind: [] for kind in REFERENCE_S}
        self._busy = False

    def now(self) -> float:
        """Process CPU seconds minus those spent calibrating."""
        while True:
            spent = self.spent
            now = time.process_time()
            if spent == self.spent:  # no round ran in between
                return now - spent

    def sample(self, *_signal_args) -> None:
        """Run one calibration round and record its parts' CPU times."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.process_time()
            arith_part()
            middle = time.process_time()
            memory_part()
            end = time.process_time()
            self.times.append(start - self.spent)
            self.rounds["arith"].append(middle - start)
            self.rounds["memory"].append(end - middle)
            self.spent += time.process_time() - start
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No rounds while this process waits (for a child process)."""
        self.stop()
        try:
            yield
        finally:
            self.start()

    def round_s(self, start: float, end: float) -> float:
        """Mean time of the :attr:`kind` part of the rounds sampled within
        ``[start, end]`` of the program clock, or of the nearest round on
        each side when none ran there."""
        rounds = self.rounds[self.kind]
        low, high = bisect_left(self.times, start), bisect_right(self.times, end)
        chosen = rounds[low:high] or rounds[max(low - 1, 0) : high + 1]
        if not chosen:
            self.sample()
            chosen = rounds[-1:]
        return statistics.fmean(chosen)

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the program-clock interval ``[start, end]``."""
        return (end - start) * REFERENCE_S[self.kind] / self.round_s(start, end)


#: the one clock of a benchmark process
CLOCK = HostClock()
