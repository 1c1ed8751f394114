"""Grid sharding: split a sweep into self-contained slices, merge the rows.

:func:`shard` cuts the expanded grid into N contiguous, balanced index
ranges and wraps each in a :class:`ShardSpec` -- a frozen, picklable value
that carries the *whole* sweep recipe (app name / program spec / runner
reference, defaults, base bindings, axes) plus its slice, so an
independent process or host needs nothing but the spec and a checkpoint
path to execute its share.  :func:`run_shard` executes one spec, journaling
into the shard's checkpoint (resumable like any service run), and
:func:`merge` recombines the shard checkpoints into one
:class:`~repro.api.sweep.SweepReport` that is bit-identical to a
single-shot serial run -- the report aggregates by grid index, so it
cannot tell which shard (or which attempt of which shard) produced a row.

Every shard checkpoint header carries the digest of the *full* grid
(:func:`repro.service.store.grid_digest`), which is how ``merge`` refuses
checkpoints from a different sweep, a different code version, or a
different grid -- mixing those would produce a plausible-looking but
meaningless report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.spec import ProgramSpec
from repro.api.sweep import Sweep, SweepReport, SweepResult, check_executor
from repro.service.checkpoint import CheckpointMismatchError, read_checkpoint
from repro.service.runner import run_service_sweep
from repro.service.store import grid_digest


@dataclass(frozen=True)
class ShardSpec:
    """One self-contained slice of a sweep grid.

    ``start``/``stop`` delimit the slice in full-grid index space (the
    balanced partition ``k*N//n .. (k+1)*N//n``), and ``grid`` is the full
    grid's digest -- executing the spec re-derives the grid locally and
    refuses to run if it no longer matches (the code changed under the
    spec).  Exactly one of ``app`` / ``program`` / ``runner`` is set.
    """

    shard: int
    of: int
    start: int
    stop: int
    grid: str
    name: str
    duration: Fraction
    app: Optional[str] = None
    program: Optional[ProgramSpec] = None
    runner: Any = None
    base: Tuple[Tuple[str, Any], ...] = ()
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def sweep(self) -> Sweep:
        """Rebuild the sweep this spec slices (fresh, locally compiled)."""
        base = dict(self.base)
        grid = {name: list(values) for name, values in self.axes}
        if self.runner is not None:
            return Sweep.from_callable(
                self.runner, base=base, grid=grid, name=self.name
            )
        if self.program is not None:
            rebuilt = Sweep(
                program=self.program.build(),
                duration=self.duration,
                base=base,
                name=self.name,
            )
        else:
            rebuilt = Sweep(
                self.app, duration=self.duration, base=base, name=self.name
            )
        for name, values in grid.items():
            rebuilt.add_axis(name, values)
        return rebuilt


def shard(sweep: Sweep, shards: int) -> List[ShardSpec]:
    """Split *sweep* into *shards* contiguous, balanced shard specs.

    Slice sizes differ by at most one point; every grid index lands in
    exactly one spec, so the merged coverage is total by construction.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    points = sweep.points()
    total = len(points)
    digest = grid_digest(sweep, points)
    program = sweep._program.spec() if sweep._program is not None else None
    specs = []
    for k in range(shards):
        specs.append(
            ShardSpec(
                shard=k,
                of=shards,
                start=k * total // shards,
                stop=(k + 1) * total // shards,
                grid=digest,
                name=sweep.name,
                duration=sweep.duration,
                app=sweep._app,
                program=program,
                runner=sweep._runner,
                base=tuple(sweep.base.items()),
                axes=tuple(
                    (name, tuple(values)) for name, values in sweep.axes.items()
                ),
            )
        )
    return specs


def run_shard(
    spec: ShardSpec,
    *,
    checkpoint: Any,
    store: Any = None,
    executor: str = "serial",
    workers: int = 1,
    strict: bool = False,
) -> SweepReport:
    """Execute one shard, journaling into *checkpoint* (resumable).

    The returned report holds only this shard's rows; the full report comes
    from :func:`merge` over all shard checkpoints.
    """
    check_executor(executor, workers)
    sweep = spec.sweep()
    points = sweep.points()
    if grid_digest(sweep, points) != spec.grid:
        raise CheckpointMismatchError(
            f"shard {spec.shard}/{spec.of} of {spec.name!r}: the locally "
            f"rebuilt grid does not match the spec's grid digest (the sweep "
            f"definition or code version changed since sharding)"
        )
    return run_service_sweep(
        sweep,
        points,
        store=store,
        checkpoint=checkpoint,
        executor=executor,
        workers=workers,
        keep_runs=False,
        strict=strict,
        subset=range(spec.start, spec.stop),
        shard={
            "shard": spec.shard,
            "of": spec.of,
            "start": spec.start,
            "stop": spec.stop,
        },
    )


def merge(sweep: Sweep, checkpoints: Sequence[Any]) -> SweepReport:
    """Recombine shard checkpoints into the full-grid report.

    Validates every checkpoint against *sweep*'s grid digest, requires the
    union of their rows to cover every grid index exactly, and aggregates
    in index order -- bit-identical (in every rendering) to a single-shot
    serial run of the same sweep.
    """
    points = sweep.points()
    digest = grid_digest(sweep, points)
    rows: Dict[int, Dict[str, Any]] = {}
    for path in checkpoints:
        header, completed = read_checkpoint(Path(path))
        if header.get("grid") != digest:
            raise CheckpointMismatchError(
                f"{path}: checkpoint belongs to a different sweep/grid than "
                f"{sweep.name!r} (digest mismatch)"
            )
        for index, payload in completed.items():
            rows.setdefault(index, payload)
    missing = [index for index in range(len(points)) if index not in rows]
    if missing:
        preview = ", ".join(map(str, missing[:8]))
        raise CheckpointMismatchError(
            f"merge of {sweep.name!r} is incomplete: {len(missing)} of "
            f"{len(points)} points missing (first: {preview}) -- run or "
            f"resume the shards covering them first"
        )
    results = [
        SweepResult.from_payload(rows[index]) for index in range(len(points))
    ]
    # The constructor re-hoists per-point run warnings out of the metric
    # rows, exactly as a live run's constructor did -- which is what makes
    # the merged report's warnings (and to_json) match the serial run.
    return SweepReport(results, name=sweep.name)
