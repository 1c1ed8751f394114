"""Regenerate ``references.json``, the outputs every operation is checked against.

Usage (from the root of a checkout; takes a few minutes)::

    python3 perfbench/make_references.py

For ``analyze``: per program and binding, the analysis verdict (consistency,
sink rates, capacities, latency checks, sorted rule ids of ``check()``).
For every ``fig4-sweep`` point and for ``pal-long``: ``RunResult.metrics()``
and a digest of every sink's consumed values, from ``fast_forward=False``
runs.  The paper's guarantees are asserted while generating: every verdict
is consistent, the self-timed runs miss no deadline, and no run exceeds its
analysed capacities.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.api import Program  # noqa: E402

import workloads  # noqa: E402


def _naive(analysis, duration, scheduler=None) -> dict:
    run = analysis.run(duration, scheduler=scheduler, fast_forward=False)
    if not run.occupancy_ok:
        raise AssertionError(f"occupancy exceeded: {run.occupancy_violations()}")
    return run, workloads.run_output(run)


def main() -> int:
    references = {"analyze": {}, "fig4-sweep": {}}
    for app, bindings in workloads.ANALYZE_PROGRAMS:
        for params in bindings:
            program = Program.from_app(app, **params)
            output = workloads.verdict(program, program.check())
            if not output["consistent"]:
                raise AssertionError(f"{app} {params} is not consistent")
            references["analyze"][workloads.binding_label(app, params)] = output

    analysis = Program.from_app("pal_decoder").analyze()
    for scheduler in workloads.fig4_schedulers():
        run, output = _naive(analysis, workloads.FIG4_SECONDS, scheduler)
        if isinstance(scheduler, workloads.SelfTimedUnbounded) and run.deadline_misses:
            raise AssertionError("self-timed PAL decoder misses deadlines")
        references["fig4-sweep"][repr(scheduler)] = output
    run, output = _naive(analysis, workloads.PAL_LONG_SECONDS)
    if run.deadline_misses:
        raise AssertionError("self-timed PAL decoder misses deadlines")
    references["pal-long"] = output

    with open(HERE / "references.json", "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
