"""Sweep executor scaling: serial vs processes.

The paper's headline result (Fig. 4) is speedup-vs-processors, and the
``Sweep`` subsystem is the tool that reproduces it -- so the sweep itself
must scale with real cores.  This benchmark records points/sec on the
PAL-decoder grid (the Fig. 4 scenario: ``BoundedProcessors(n)`` across a
processor-count axis) for the two backends:

* ``serial`` -- one compilation, points executed in-loop (the baseline),
* ``process`` at 2 and 4 workers -- the spec-shipping backend: each
  worker rebuilds and compiles the program once from its picklable
  ``ProgramSpec``, then executes its chunk of points on a real core.

Every backend must produce the identical report (aggregation is by point
index); the benchmark asserts it outright, so the scaling numbers can never
come from silently divergent work.

BENCH_SMOKE=1 (the gating CI job) shrinks the grid and enforces a relaxed
floor -- process workers at 4 must beat serial by >= 1.3x points/sec -- far
below the locally measured multi-core ratios, so only a genuine scaling
regression fails the job, not shared-runner jitter.  The floor is skipped on
machines without at least 4 CPUs (a single-core box cannot exhibit
multi-core scaling, relaxed or not).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

from _reporting import print_table

from repro.api import Sweep
from repro.engine import BoundedProcessors

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: simulated seconds per grid point (CPU-bound pure-Python simulation);
#: BENCH_SMOKE halves the per-point work
DURATION = Fraction(1, 4) if SMOKE else Fraction(1, 2)
#: processor-count axis: one grid point per BoundedProcessors(n);
#: BENCH_SMOKE also shrinks the grid itself
PROCESSOR_COUNTS = tuple(range(1, 9)) if SMOKE else tuple(range(1, 13))

#: Acceptance floor: 4 process workers must beat serial by this factor.
#: Measured multi-core ratios sit well above both values; the smoke floor
#: is relaxed so shared-runner jitter cannot redden the gating CI job,
#: and either floor only guards against the process backend silently
#: degenerating to serial cost.
REQUIRED_PROCESS_SPEEDUP = 1.3 if SMOKE else 1.5


def _pal_grid() -> Sweep:
    return Sweep("pal_decoder", duration=DURATION).add_axis(
        "scheduler", [BoundedProcessors(n) for n in PROCESSOR_COUNTS]
    )


def _points_per_second(executor: str, workers: int):
    """(points/sec, report) for one backend configuration, cold-compiled.

    A fresh Sweep per run so every configuration pays its own compilation --
    the comparison is end-to-end wall clock, exactly what a user of
    ``Sweep.run`` experiences.
    """
    sweep = _pal_grid()
    started = time.perf_counter()
    report = sweep.run(executor=executor, workers=workers, keep_runs=False)
    elapsed = time.perf_counter() - started
    assert report.ok, [failure.error for failure in report.failures]
    assert not report.warnings, report.warnings
    return len(report.results) / elapsed, report


def test_sweep_executor_scaling():
    configurations = [
        ("serial", 1),
        ("process", 2),
        ("process", 4),
    ]
    rates = {}
    reports = {}
    for executor, workers in configurations:
        rates[(executor, workers)], reports[(executor, workers)] = _points_per_second(
            executor, workers
        )

    serial_rate = rates[("serial", 1)]
    serial_rows = reports[("serial", 1)].rows()
    rows = []
    for executor, workers in configurations:
        rate = rates[(executor, workers)]
        rows.append((executor, workers, f"{rate:.2f}", f"{rate / serial_rate:.2f}x"))
        # The determinism contract behind every number above: all backends
        # aggregate by point index into the identical report.
        assert reports[(executor, workers)].rows() == serial_rows, (
            f"{executor} x{workers} diverged from the serial report"
        )
    print_table(
        f"sweep scaling, PAL-decoder grid ({len(PROCESSOR_COUNTS)} points, "
        f"duration {DURATION}, cpus={os.cpu_count()})",
        ("executor", "workers", "points/sec", "vs serial"),
        rows,
    )

    cpus = os.cpu_count() or 1
    process_speedup = rates[("process", 4)] / serial_rate
    if cpus >= 4:
        assert process_speedup >= REQUIRED_PROCESS_SPEEDUP, (
            f"process executor at 4 workers reached only "
            f"{process_speedup:.2f}x serial points/sec "
            f"(floor {REQUIRED_PROCESS_SPEEDUP}x on {cpus} cpus)"
        )
    else:
        print(
            f"(floor check skipped: {cpus} cpu(s) cannot exhibit "
            f"multi-core scaling)"
        )


if __name__ == "__main__":
    test_sweep_executor_scaling()
