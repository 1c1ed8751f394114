"""``python -m repro sweep`` -- the sweep service's command-line surface.

Subcommands (all rooted at a spool directory, default ``./repro-spool``)::

    submit SPEC.json          enqueue a sweep, print its job id
    status [JOB_ID]           one job's state+progress, or the whole spool
    run JOB_ID                execute a queued job to completion
    resume JOB_ID             pick a killed/failed job up from its checkpoint
    shard SPEC.json -n N      write N self-contained shard files
    run-shard SHARD.pkl       execute one shard file (own checkpoint)
    merge SPEC.json CKPT...   recombine shard checkpoints into report JSON

Sweep specs are JSON (keeping the CLI scriptable from anything)::

    {"app": "pal_decoder",
     "duration": {"$fraction": [2, 1]},
     "axes": {"scheduler": [{"$bounded": 1}, {"$bounded": 2}, "$selftimed"]}}

Values that JSON cannot spell are tagged: ``{"$fraction": [num, den]}``
builds a :class:`fractions.Fraction`, ``{"$bounded": n}`` a
``BoundedProcessors(n)`` scheduler, ``"$selftimed"`` a
``SelfTimedUnbounded()``.  Richer axes (platforms, custom policies) belong
in the Python API -- submit those programmatically via
:class:`repro.service.jobs.JobQueue`.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.sweep import EXECUTORS, Sweep
from repro.service.jobs import JobQueue
from repro.service.shard import run_shard, shard


def _decode_value(value: Any) -> Any:
    """One spec value, with the documented ``$``-tags expanded."""
    if value == "$selftimed":
        from repro.engine.policies import SelfTimedUnbounded

        return SelfTimedUnbounded()
    if isinstance(value, dict):
        if "$fraction" in value:
            numerator, denominator = value["$fraction"]
            return Fraction(numerator, denominator)
        if "$bounded" in value:
            from repro.engine.policies import BoundedProcessors

            return BoundedProcessors(int(value["$bounded"]))
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def load_sweep_spec(path: Any) -> Sweep:
    """Build a :class:`Sweep` from a JSON spec file (see module docstring)."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if "app" not in data:
        raise SystemExit(f"{path}: sweep spec needs an \"app\" field")
    kwargs: Dict[str, Any] = {}
    if "duration" in data:
        raw = _decode_value(data["duration"])
        kwargs["duration"] = Fraction(raw) if isinstance(raw, str) else raw
    sweep = Sweep(
        data["app"], name=data.get("name"), base=_decode_value(data.get("base", {})), **kwargs
    )
    for axis, values in data.get("axes", {}).items():
        sweep.add_axis(axis, [_decode_value(value) for value in values])
    return sweep


def _print_status(state: Dict[str, Any]) -> None:
    progress = f"{state.get('completed', 0)}/{state['points']}"
    print(
        f"{state['id']}  {state['state']:<8}  {progress:>9}  "
        f"{state['executor']}x{state['workers']}  {state['name']}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="submit, execute, resume, shard and merge parameter sweeps",
    )
    parser.add_argument(
        "--root",
        default="repro-spool",
        help="spool directory (jobs + shared result store); default ./repro-spool",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", help="enqueue a sweep from a JSON spec")
    submit.add_argument("spec", help="sweep spec JSON file")
    submit.add_argument("--executor", default="serial", choices=EXECUTORS)
    submit.add_argument("--workers", type=int, default=1)

    status = commands.add_parser("status", help="show job state and progress")
    status.add_argument("job", nargs="?", help="job id; omit for all jobs")

    run = commands.add_parser("run", help="execute a queued job")
    run.add_argument("job")

    resume = commands.add_parser("resume", help="resume a killed/failed job")
    resume.add_argument("job")

    shard_cmd = commands.add_parser("shard", help="split a sweep into shard files")
    shard_cmd.add_argument("spec", help="sweep spec JSON file")
    shard_cmd.add_argument("-n", "--shards", type=int, required=True)
    shard_cmd.add_argument("--out", default=".", help="directory for shard files")

    run_shard_cmd = commands.add_parser("run-shard", help="execute one shard file")
    run_shard_cmd.add_argument("shard", help="shard file written by `shard`")
    run_shard_cmd.add_argument("--checkpoint", required=True, help="shard checkpoint path")
    run_shard_cmd.add_argument("--store", default=None, help="optional shared store dir")
    run_shard_cmd.add_argument("--executor", default="serial", choices=EXECUTORS)
    run_shard_cmd.add_argument("--workers", type=int, default=1)

    merge_cmd = commands.add_parser("merge", help="recombine shard checkpoints")
    merge_cmd.add_argument("spec", help="sweep spec JSON file")
    merge_cmd.add_argument("checkpoints", nargs="+", help="shard checkpoint files")
    merge_cmd.add_argument("--out", default=None, help="write report JSON here (default stdout)")

    options = parser.parse_args(argv)

    if options.command == "submit":
        queue = JobQueue(options.root)
        job_id = queue.submit(
            load_sweep_spec(options.spec),
            executor=options.executor,
            workers=options.workers,
        )
        print(job_id)
        return 0

    if options.command == "status":
        queue = JobQueue(options.root)
        states = [queue.status(options.job)] if options.job else queue.jobs()
        if not states:
            print(f"(no jobs in {options.root})")
        for state in states:
            _print_status(state)
        return 0

    if options.command in ("run", "resume"):
        queue = JobQueue(options.root)
        report = (
            queue.resume(options.job)
            if options.command == "resume"
            else queue.run(options.job)
        )
        stats = report.service_stats or {}
        print(
            f"{options.job}: {len(report)} points "
            f"(executed {stats.get('executed', '?')}, "
            f"store hits {stats.get('store_hits', '?')}, "
            f"resumed {stats.get('resumed', '?')})"
        )
        return 0 if report.ok else 1

    if options.command == "shard":
        sweep = load_sweep_spec(options.spec)
        out = Path(options.out)
        out.mkdir(parents=True, exist_ok=True)
        for spec in shard(sweep, options.shards):
            path = out / f"shard-{spec.shard:03d}-of-{spec.of:03d}.pkl"
            with open(path, "wb") as handle:
                pickle.dump(spec, handle)
            print(f"{path}  points [{spec.start}, {spec.stop})")
        return 0

    if options.command == "run-shard":
        with open(options.shard, "rb") as handle:
            spec = pickle.load(handle)
        report = run_shard(
            spec,
            checkpoint=options.checkpoint,
            store=options.store,
            executor=options.executor,
            workers=options.workers,
        )
        stats = report.service_stats or {}
        print(
            f"shard {spec.shard}/{spec.of}: {len(report)} points "
            f"(executed {stats.get('executed', '?')})"
        )
        return 0 if report.ok else 1

    if options.command == "merge":
        from repro.service.shard import merge

        report = merge(load_sweep_spec(options.spec), options.checkpoints)
        rendered = report.to_json()
        if options.out:
            with open(options.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"{options.out}: {len(report)} points merged")
        else:
            print(rendered)
        return 0

    parser.error(f"unknown command {options.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
