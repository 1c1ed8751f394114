"""A local job spool: submit / status / run / result over a directory.

This is the thin service facade the ROADMAP's "millions of users" shape
attaches to: a :class:`JobQueue` rooted at a spool directory, where every
submitted sweep becomes a job directory and all jobs share one
content-addressed result store -- so the traffic pattern the paper's
experiments generate (heavily overlapping parameter grids) mostly resolves
to cache hits, and the remainder executes with checkpoint protection.

Spool layout::

    <root>/
      store/                      # shared ResultStore (all jobs)
      jobs/job-000001/
        job.json                  # state machine: queued|running|done|failed
        sweep.pkl                 # the pickled Sweep (the work itself)
        checkpoint.jsonl          # appears while running; resume reads it
        report.json               # appears when done (SweepReport.to_json)

The state file is tiny and rewritten atomically; the expensive artefacts
(checkpoint rows, store segments) are append-only.  A job whose process was
killed simply stays ``running`` with a partial checkpoint -- ``resume``
picks it up from there; ``result`` of a done job is served straight from
``report.json`` (via :meth:`SweepReport.from_json`) without touching the
compiler.  Everything here is deliberately filesystem-only: a real queue or
HTTP frontend replaces :class:`JobQueue`'s directory walk, not the
store/checkpoint machinery underneath.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.sweep import Sweep, SweepReport, check_executor

JOB_STATES = ("queued", "running", "done", "failed")


class JobError(RuntimeError):
    """A job operation that cannot proceed (unknown id, wrong state)."""


class JobQueue:
    """The directory-backed job facade (see the module docstring)."""

    def __init__(self, root: Any) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.store_root = self.root / "store"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- helpers
    def _job_dir(self, job_id: str) -> Path:
        path = self.jobs_dir / job_id
        if not (path / "job.json").exists():
            raise JobError(f"unknown job {job_id!r} in spool {self.root}")
        return path

    def _read_state(self, path: Path) -> Dict[str, Any]:
        with open(path / "job.json", encoding="utf-8") as handle:
            return json.load(handle)

    def _write_state(self, path: Path, state: Dict[str, Any]) -> None:
        temporary = path / "job.json.tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2)
        os.replace(temporary, path / "job.json")

    def _fresh_id(self) -> str:
        highest = 0
        for path in self.jobs_dir.glob("job-*"):
            try:
                highest = max(highest, int(path.name.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return f"job-{highest + 1:06d}"

    # ----------------------------------------------------------------- api
    def submit(
        self,
        sweep: Sweep,
        *,
        executor: str = "serial",
        workers: int = 1,
    ) -> str:
        """Enqueue *sweep*; returns the job id (the work runs via :meth:`run`).

        The backend is validated here, so a misconfigured job is refused
        before it is spooled instead of failing only when it runs.
        """
        check_executor(executor, workers)
        job_id = self._fresh_id()
        path = self.jobs_dir / job_id
        path.mkdir()
        with open(path / "sweep.pkl", "wb") as handle:
            pickle.dump(sweep, handle)
        self._write_state(
            path,
            {
                "id": job_id,
                "name": sweep.name,
                "state": "queued",
                "points": len(sweep.points()),
                "executor": executor,
                "workers": workers,
                "submitted": time.time(),
                "error": None,
            },
        )
        return job_id

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's state plus live progress from its checkpoint."""
        path = self._job_dir(job_id)
        state = self._read_state(path)
        checkpoint = path / "checkpoint.jsonl"
        completed = 0
        if checkpoint.exists():
            from repro.service.checkpoint import read_checkpoint

            try:
                _, rows = read_checkpoint(checkpoint)
                completed = len(rows)
            except Exception:
                completed = 0
        state["completed"] = completed
        return state

    def jobs(self) -> List[Dict[str, Any]]:
        """Status of every job in the spool, oldest first."""
        return [
            self.status(path.name)
            for path in sorted(self.jobs_dir.glob("job-*"))
            if (path / "job.json").exists()
        ]

    def run(self, job_id: str, *, resume: bool = False) -> SweepReport:
        """Execute (or resume) a job to completion and persist its report.

        Every job runs through the shared store and its own checkpoint, so
        overlapping jobs pay only for points no job has computed before,
        and a killed job's ``resume`` restarts from its journal.  A plain
        ``run`` refuses non-queued jobs (double execution is almost always
        a mistake); ``resume=True`` accepts ``running`` (killed mid-flight)
        and ``failed`` jobs too.
        """
        path = self._job_dir(job_id)
        state = self._read_state(path)
        acceptable = ("queued", "running", "failed") if resume else ("queued",)
        if state["state"] not in acceptable:
            raise JobError(
                f"job {job_id} is {state['state']!r}; "
                + ("resume" if resume else "run")
                + f" accepts only {acceptable}"
            )
        with open(path / "sweep.pkl", "rb") as handle:
            sweep = pickle.load(handle)
        state.update(state="running", error=None)
        self._write_state(path, state)
        try:
            report = sweep.run(
                executor=state["executor"],
                workers=state["workers"],
                keep_runs=False,
                store=self.store_root,  # path form: the runner opens+closes it
                checkpoint=path / "checkpoint.jsonl",
            )
        except Exception as error:
            state.update(state="failed", error=f"{type(error).__name__}: {error}")
            self._write_state(path, state)
            raise
        with open(path / "report.json", "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        state.update(state="done", service=report.service_stats)
        self._write_state(path, state)
        return report

    def resume(self, job_id: str) -> SweepReport:
        """Resume a killed or failed job from its checkpoint."""
        return self.run(job_id, resume=True)

    def result(self, job_id: str) -> SweepReport:
        """The finished job's report, restored from disk (no recompute)."""
        path = self._job_dir(job_id)
        report_path = path / "report.json"
        if not report_path.exists():
            state = self._read_state(path)
            raise JobError(
                f"job {job_id} has no report yet (state: {state['state']!r})"
            )
        with open(report_path, encoding="utf-8") as handle:
            return SweepReport.from_json(handle.read())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobQueue({str(self.root)!r})"
