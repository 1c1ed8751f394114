"""E3 / Fig. 4 -- Parallelization of a sequential modal module.

The module of Fig. 4a assigns ``y`` in either branch of an ``if`` and then
calls ``k(y, out x:2)``.  The extraction creates one task per statement; the
guarded statements become unconditionally executing tasks whose bodies stay
guarded, and the variable ``y`` becomes a circular buffer with two producers
and one consumer (Fig. 4b).

The second experiment quantifies what the parallelization is *for*: the
extracted parallelism executed on a bounded number of processors.  The
scheduler engine's ``BoundedProcessors(n)`` policy list-schedules a wide
fork/join workload on n processors; the processor-count grid runs through
the facade's sweep machinery (``repro.api.Sweep.from_callable``) and the
aggregated makespans yield the speedup-vs-cores curve of the Fig. 4
scenario axis.
"""

from _reporting import print_table

from repro.api import Sweep
from repro.engine import BoundedProcessors, fork_join_program, run_tasks
from repro.graph import extract_task_graph, task_graph_to_sdf, static_order_schedule
from repro.lang import parse_module

FIG4_SOURCE = """
mod seq M(out int x, int s){
  int y;
  loop{
    if (s > 0) { y = g(); } else { y = h(); }
    k(y, out x:2);
  } while(1);
}
"""


def test_fig4_task_graph_extraction(benchmark):
    module = parse_module(FIG4_SOURCE)
    graph = benchmark(extract_task_graph, module)

    rows = []
    for task in sorted(graph.tasks.values(), key=lambda t: t.order):
        rows.append(
            [
                task.name,
                "guarded" if task.guard is not None else "unconditional",
                ", ".join(f"{a.buffer}:{a.count}" for a in task.reads),
                ", ".join(f"{a.buffer}:{a.count}" for a in task.writes),
            ]
        )
    print_table("Fig. 4: tasks extracted from the modal module", ["task", "execution", "reads", "writes"], rows)

    buffer_rows = [
        [b.name, b.kind, len(b.producers), len(b.consumers)] for b in graph.buffers.values()
    ]
    print_table("Fig. 4: circular buffers", ["buffer", "kind", "producers", "consumers"], buffer_rows)

    assert len(graph.tasks) == 3
    assert sum(1 for t in graph.tasks.values() if t.guard is not None) == 2
    assert len(graph.buffers["y"].producers) == 2
    assert graph.streams["x"].per_loop_counts == {"loop0": 2}

    sdf = task_graph_to_sdf(graph)
    schedule = static_order_schedule(sdf)
    print(f"\nvalid static-order schedule of the extracted task graph: {schedule}")


def test_fig4_bounded_processor_speedup(benchmark):
    """Speedup of the extracted parallelism on n processors (n = 1, 2, 4, 8),
    swept over the processor grid through the facade's sweep machinery."""
    width = 8
    rounds = 25
    firings = rounds * (width + 2)  # split + workers + join per round

    def makespan(processors: int):
        run = run_tasks(
            fork_join_program(width),
            policy=BoundedProcessors(processors),
            stop_after_firings=firings,
        )
        assert run.engine.completed_firings == firings
        return run.makespan

    def point(processors: int):
        return {"makespan": float(makespan(processors))}

    report = (
        Sweep.from_callable(point, name="fig4 fork/join speedup")
        .add_axis("processors", [1, 2, 4, 8])
        .run()
    )
    benchmark(makespan, 8)

    speedup = {
        row["processors"]: row["speedup"] for row in report.speedup_table("makespan")
    }
    makespans = dict(zip(report.column("processors"), report.column("makespan")))
    rows = [
        [n, f"{makespans[n]:.3f} s", f"{speedup[n]:.2f}x"]
        for n in sorted(makespans)
    ]
    print_table(
        f"Fig. 4 scenario axis: {width}-wide fork/join, {rounds} rounds, list scheduling",
        ["processors", "makespan", "speedup"],
        rows,
    )

    # The speedup curve must be monotone and approach the width.
    assert report.ok
    assert makespans[1] >= makespans[2] >= makespans[4] >= makespans[8]
    assert speedup[8] > 4
