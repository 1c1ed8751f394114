"""Benchmark of OIL programs: analysis verdicts, the Fig. 4 sweep, long PAL runs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload`` is ``analyze``, ``fig4-sweep``, ``pal-long`` or ``all``.
Each workload builds its inputs (the set-up), then runs whole blocks of
operations for at most ``--seconds`` of wall time (at least one block).
Every operation is timed in CPU seconds, scaled to a reference host speed
by ``hostspeed.CLOCK`` (see hostspeed.py), and checked against
``references.json``.  With ``--trace 1`` the first half of the time runs
untraced and the second half with per-layer spans (see ``spans.py``); the
ratio of the two halves' throughput is the tracing overhead.

The command prints every metric by name with its unit and sample count,
then, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

from hostspeed import CLOCK

CLOCK.start()
_T0 = CLOCK.now()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("analyze", "fig4-sweep", "pal-long")
#: how many set-ups one run times (this process plus fresh interpreters)
SETUP_SAMPLES = 3


def _setup(name: str, seed: int, workdir: Path):
    """Load the references and build the workload's inputs."""
    import workloads

    CLOCK.kind = workloads.WORKLOADS[name].calibration

    with open(HERE / "references.json", encoding="utf-8") as handle:
        references = json.load(handle)
    return workloads.WORKLOADS[name](references, seed, workdir)


def _child_setup_seconds(name: str, seed: int) -> float:
    """Reference seconds of the set-up in a fresh interpreter (import included)."""
    with CLOCK.paused():
        output = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        ).stdout
    return json.loads(output.strip().splitlines()[-1])["setup_s"]


def _phase(workload, seconds: float, tracer=None) -> list:
    """Run whole blocks for at most *seconds* of wall time (at least one
    block): a block starts only if one more block of the last one's length
    still fits."""
    from workloads import NULL_TRACER

    ops = []
    start = last = time.perf_counter()
    block_s = 0.0
    while not ops or last - start + block_s <= seconds:
        block = workload.block(tracer or NULL_TRACER)
        for op in block:
            op.ref_s = CLOCK.reference_s(op.start, op.start + op.cpu_s)
        ops.extend(block)
        now = time.perf_counter()
        block_s, last = now - last, now
    return ops


def _entry(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(ops, setups) -> dict:
    times = [op.ref_s for op in ops]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    return {
        "setup_s": _entry(statistics.median(setups), "s", len(setups)),
        "op_cpu_s_p50": _entry(statistics.median(times), "s", len(times)),
        "op_cpu_s_p90": _entry(p90, "s", len(times)),
        "ops_per_cpu_s": _entry(len(ops) / sum(times), "1/s", len(times)),
        "peak_rss_mb": _entry(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:9s} n={entry['n']}")


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, setup_start: float) -> dict:
    """Set up, measure and check one workload; returns its result record.

    *setup_start* is the program clock the set-up is timed from: process start
    for the first workload of a process, which also imports the program.
    """
    workload = _setup(name, seed, workdir)
    setups = [CLOCK.reference_s(setup_start, CLOCK.now())]
    setups += [_child_setup_seconds(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    gc.collect()
    try:
        if not trace:
            ops = _phase(workload, seconds)
            metrics = end_to_end(ops, setups)
            _print_table(f"{name}: end-to-end", metrics)
        else:
            from spans import Tracer, layer_metrics

            plain = _phase(workload, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _phase(workload, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            plain_metrics = end_to_end(plain, setups)
            traced_rate = len(traced) / sum(op.ref_s for op in traced)
            metrics = layer_metrics(tracer, traced, plain_metrics["ops_per_cpu_s"]["value"] / traced_rate)
            _print_table(f"{name}: end-to-end (untraced half)", plain_metrics)
            _print_table(f"{name}: per-layer (traced half)", metrics)
            tracer.write(workdir.parent / f"spans-{name}.json")
            ops = plain + traced
    finally:
        workload.close()
    failed = [op for op in ops if op.error is not None]
    extra = {
        "failed_frac": _entry(len(failed) / len(ops), "fraction", len(ops)),
        "raw_op_cpu_s_p50": _entry(statistics.median(op.cpu_s for op in ops), "s", len(ops)),
        "host_round_s": _entry(statistics.median(CLOCK.rounds[CLOCK.kind]), "s", len(CLOCK.times)),
    }
    sim_s = sum(op.sim_s for op in ops)
    if sim_s:
        extra["sim_s_per_cpu_s"] = _entry(sim_s / sum(op.ref_s for op in ops), "s/s", len(ops))
    _print_table(f"{name}: not in BENCHMARK.json (see README.md)", extra)
    for op in failed:
        print(f"  FAILED {op.label}: {op.error}")
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": e["value"], "unit": e["unit"]} for key, e in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no OIL sources at {ROOT / 'src' / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports repro: part of the first set-up)

    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _setup(args.workload, args.seed, workdir).close()
            print(json.dumps({"setup_s": CLOCK.reference_s(_T0, CLOCK.now())}))
            return 0
        print(
            f"# nproc={os.cpu_count()} python={platform.python_version()} commit={_commit()} "
            f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        )
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        records = {}
        for name in names:
            start = _T0 if not records else CLOCK.now()
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir, start)
    finally:
        CLOCK.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(records) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": entry for name, r in records.items() for key, entry in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
