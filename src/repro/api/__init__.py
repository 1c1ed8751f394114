"""repro.api -- the unified front door of the reproduction.

A layered facade over the full OIL pipeline (parse -> task graphs -> CTA
model -> analyses -> discrete-event execution) plus a batched sweep runner
for parameter-grid scenario studies:

* :class:`Program` -- build from OIL source (:meth:`Program.from_source`) or
  from a packaged application (:meth:`Program.from_app`),
* :class:`Analysis` -- ``program.analyze()``: consistency / achievable
  rates, buffer capacities, latency checks as one structured, lazy object,
* :class:`RunResult` -- ``analysis.run(duration, scheduler=...)``: trace
  summary, deadline misses, sink samples, measured rates and the
  occupancy-vs-capacity validation,
* :class:`Sweep` / :class:`SweepReport` -- parameter grids (frequency
  scales, processor counts, rates, mode schedules) with shared compilation,
  serial execution or multi-core ``executor="process"`` workers (via
  picklable :class:`ProgramSpec` shipping) and tabular/JSON aggregation.

The three-line happy path::

    from repro.api import Program
    analysis = Program.from_app("pal_decoder", scale=1000).analyze()
    print(analysis.run(2).summary())

and the scenario-sweep counterpart::

    from repro.api import Sweep
    from repro.engine import BoundedProcessors
    report = (Sweep("pal_decoder", duration=0.25)
              .add_axis("scheduler", [BoundedProcessors(n) for n in (1, 2, 3, 4)])
              .run(executor="process", workers=2))
    print(report.table())
"""

from repro.api.apps import AppSpec, app_spec, available_apps, build_app, register_app
from repro.api.program import Analysis, Program, RunResult
from repro.api.spec import ProgramSpec, SweepConfigError
from repro.api.sweep import EXECUTORS, RUN_AXES, Sweep, SweepReport, SweepResult

__all__ = [
    "Analysis",
    "AppSpec",
    "EXECUTORS",
    "Program",
    "ProgramSpec",
    "RunResult",
    "RUN_AXES",
    "Sweep",
    "SweepConfigError",
    "SweepReport",
    "SweepResult",
    "app_spec",
    "available_apps",
    "build_app",
    "register_app",
]
