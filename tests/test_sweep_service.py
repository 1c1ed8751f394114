"""Tests for the sweep service (repro.service): stable content digests, the
content-addressed result store, incremental checkpoints and resume, grid
sharding + merge, the job spool and the ``python -m repro sweep`` CLI.

The load-bearing invariant throughout: a report produced *any* service way
-- resumed after a kill, recombined from shards, served from the cache --
renders bit-identically (``to_json``, ``rows``) to a plain single-shot
serial run of the same sweep.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import Sweep, SweepConfigError
from repro.api.spec import ProgramSpec, stable_digest
from repro.api.sweep import SweepReport
from repro.engine import BoundedProcessors, SelfTimedUnbounded
from repro.service import (
    CheckpointMismatchError,
    JobError,
    JobQueue,
    ResultStore,
    SweepCheckpoint,
    grid_digest,
    merge,
    point_key,
    point_keys,
    run_shard,
    run_service_sweep,
    shard,
)


def _square_point(n):
    """Module-level runner: stable identity for content addressing."""
    return {"value": n * n}


def _quick_sweep(**kwargs):
    return (
        Sweep("producer_consumer", duration=Fraction(2), **kwargs)
        .add_axis("scheduler", [BoundedProcessors(1), BoundedProcessors(2), None])
    )


# ---------------------------------------------------------------------------
# stable digests
# ---------------------------------------------------------------------------


class TestStableDigest:
    def test_equal_values_digest_equal(self):
        assert stable_digest({"a": 1, "b": [2, 3]}) == stable_digest(
            {"b": [2, 3], "a": 1}
        )
        assert stable_digest((1, 2)) == stable_digest([1, 2])

    def test_distinct_values_digest_distinct(self):
        samples = [
            None, True, False, 0, 1, "1", 1.0, Fraction(1, 3),
            {"a": 1}, {"a": 2}, [1], {1}, b"\x01",
            BoundedProcessors(2), BoundedProcessors(3), SelfTimedUnbounded(),
        ]
        digests = [stable_digest(value) for value in samples]
        assert len(set(digests)) == len(samples)

    def test_set_digest_ignores_insertion_and_hash_order(self):
        assert stable_digest({"x", "y", "zz", "q"}) == stable_digest(
            {"q", "zz", "y", "x"}
        )

    def test_digest_stable_across_hash_seeds(self):
        # The very property pickle bytes lack: the digest of a set-bearing
        # value must not depend on PYTHONHASHSEED.  Compute it under two
        # explicitly different seeds in fresh interpreters.
        script = textwrap.dedent(
            """
            from fractions import Fraction
            from repro.api.spec import stable_digest
            from repro.engine import BoundedProcessors
            value = {
                "axes": {"s", "set", "ordering", "probe"},
                "sched": BoundedProcessors(3),
                "d": Fraction(1, 7),
            }
            print(stable_digest(value))
            """
        )
        digests = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                cwd=str(Path(__file__).resolve().parent.parent),
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1

    def test_program_spec_digest_without_pickle(self):
        spec = ProgramSpec.from_app("quickstart", utilisation=0.3)
        same = ProgramSpec.from_app("quickstart", utilisation=0.3)
        other = ProgramSpec.from_app("quickstart", utilisation=0.5)
        assert spec.digest() == same.digest() != other.digest()


class TestPointKeys:
    def test_overlapping_grids_share_keys(self):
        a = Sweep("quickstart").add_axis("scheduler", [BoundedProcessors(1), None])
        b = Sweep("quickstart").add_axis(
            "scheduler", [None, BoundedProcessors(1), BoundedProcessors(4)]
        )
        keys_a = point_keys(a, a.points())
        keys_b = point_keys(b, b.points())
        assert keys_a[0] == keys_b[1]  # BoundedProcessors(1)
        assert keys_a[1] == keys_b[0]  # None
        assert len(set(keys_a + keys_b)) == 3

    def test_duration_is_part_of_the_key(self):
        a = Sweep("quickstart", duration=Fraction(1))
        b = Sweep("quickstart", duration=Fraction(2))
        assert point_key(a, a.points()[0]) != point_key(b, b.points()[0])

    def test_local_runner_has_no_stable_identity(self):
        sweep = Sweep.from_callable(lambda n: {"v": n}).add_axis("n", [1])
        with pytest.raises(SweepConfigError, match="stable identity"):
            point_keys(sweep, sweep.points())

    def test_module_level_runner_is_addressable(self):
        sweep = Sweep.from_callable(_square_point).add_axis("n", [1, 2])
        assert len(set(point_keys(sweep, sweep.points()))) == 2


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_and_counters(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.get("k1") is None
            assert store.put("k1", {"metrics": {"x": 1}})
            assert not store.put("k1", {"metrics": {"x": 999}})  # first wins
            assert store.get("k1") == {"metrics": {"x": 1}}
            assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_reopen_reads_back_through_the_index(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            for i in range(20):
                store.put(f"key-{i}", {"metrics": {"i": i}})
        reopened = ResultStore(root)
        assert len(reopened) == 20
        assert reopened.get("key-7") == {"metrics": {"i": 7}}
        # the returned payload is a copy: mutating it cannot poison the cache
        payload = reopened.get("key-7")
        payload["metrics"]["i"] = -1
        assert reopened.get("key-7") == {"metrics": {"i": 7}}

    def test_missing_index_rebuilds_from_segments(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put("a", {"metrics": {"v": 1}})
        (root / "index.json").unlink()
        assert ResultStore(root).get("a") == {"metrics": {"v": 1}}

    def test_torn_segment_tail_is_skipped(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put("a", {"metrics": {"v": 1}})
            segment = store.segments_dir / store._segment_name
        (root / "index.json").unlink()
        with open(segment, "ab") as handle:
            handle.write(b'{"schema": 1, "key": "b", "payload"')  # SIGKILL here
        reopened = ResultStore(root)
        assert reopened.get("a") == {"metrics": {"v": 1}}
        assert reopened.get("b") is None

    def test_writers_get_distinct_segments(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as first:
            first.put("a", {"metrics": {}})
        with ResultStore(root) as second:
            second.put("b", {"metrics": {}})
        assert len(list((root / "segments").glob("segment-*.jsonl"))) == 2
        third = ResultStore(root)
        assert "a" in third and "b" in third


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_fresh_then_resume_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            journal.record({"point": 1, "ok": True, "error": None,
                            "params": {}, "metrics": {"v": 1}})
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert set(journal.completed) == {1}
            journal.record({"point": 1, "ok": True, "error": None,
                            "params": {}, "metrics": {"v": 999}})  # no-op
            journal.record({"point": 0, "ok": False, "error": "boom",
                            "params": {}, "metrics": {}})
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert journal.completed[1]["metrics"] == {"v": 1}
            assert journal.completed[0]["error"] == "boom"

    def test_grid_mismatch_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        SweepCheckpoint(path, name="s", grid="g1", points=3).close()
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            SweepCheckpoint(path, name="s", grid="g2", points=3)
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            SweepCheckpoint(path, name="s", grid="g1", points=4)

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            journal.record({"point": 2, "ok": True, "error": None,
                            "params": {}, "metrics": {}})
        with open(path, "ab") as handle:
            handle.write(b'{"point": 0, "ok": tr')  # killed mid-append
        with SweepCheckpoint(path, name="s", grid="g", points=3) as journal:
            assert set(journal.completed) == {2}

    def test_non_checkpoint_file_refused(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(CheckpointMismatchError, match="header"):
            SweepCheckpoint(path, name="s", grid="g", points=1)


# ---------------------------------------------------------------------------
# the service runner: cache hits, resume, bit-identity
# ---------------------------------------------------------------------------


class TestServiceSweep:
    def test_warm_store_executes_and_compiles_nothing(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        cold = _quick_sweep().run(store=store)
        assert cold.service_stats == {
            "points": 3, "executed": 3, "store_hits": 0, "resumed": 0,
        }

        import repro.api.sweep as sweep_module

        compiles = []
        original = sweep_module.Program.from_app.__func__

        def counting(cls, app, **params):
            compiles.append(app)
            return original(cls, app, **params)

        monkeypatch.setattr(sweep_module.Program, "from_app", classmethod(counting))
        warm = _quick_sweep().run(store=store)
        assert warm.service_stats == {
            "points": 3, "executed": 0, "store_hits": 3, "resumed": 0,
        }
        assert compiles == []  # cache hits never touch the compiler
        assert warm.to_json() == cold.to_json()

    def test_overlapping_grid_pays_only_for_new_points(self, tmp_path):
        store = tmp_path / "store"
        _quick_sweep().run(store=store)
        widened = (
            Sweep("producer_consumer", duration=Fraction(2))
            .add_axis(
                "scheduler",
                [BoundedProcessors(1), BoundedProcessors(4), BoundedProcessors(2)],
            )
            .run(store=store)
        )
        assert widened.service_stats["store_hits"] == 2
        assert widened.service_stats["executed"] == 1

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        clean = _quick_sweep().run(executor="serial").to_json()
        path = tmp_path / "ckpt.jsonl"
        # journal only a prefix of the grid, as an interrupted run would have
        partial = _quick_sweep()
        run_service_sweep(partial, partial.points(), checkpoint=path, subset=[0, 1])
        resumed = _quick_sweep().run(checkpoint=path)
        assert resumed.service_stats == {
            "points": 3, "executed": 1, "store_hits": 0, "resumed": 2,
        }
        assert resumed.to_json() == clean

    def test_failed_points_checkpoint_but_never_store(self, tmp_path):
        def build():
            # an int on the scheduler axis fails that point only
            return (
                Sweep("quickstart", duration=Fraction(1, 100))
                .add_axis("scheduler", [None, 42])
            )

        store = tmp_path / "store"
        path = tmp_path / "ckpt.jsonl"
        first = build().run(store=store, checkpoint=path)
        assert [result.ok for result in first.results] == [True, False]
        again = build().run(store=store, checkpoint=path)
        # the ok point came back from the journal; the failure was journaled
        # too (resume must not flip the report), but the store kept only ok
        assert again.service_stats["resumed"] == 2
        assert len(ResultStore(store)) == 1
        assert again.to_json() == first.to_json()
        # a fresh run against the store alone retries the failed point
        retry = build().run(store=tmp_path / "store")
        assert retry.service_stats == {
            "points": 2, "executed": 1, "store_hits": 1, "resumed": 0,
        }

    def test_store_and_checkpoint_compose(self, tmp_path):
        clean = _quick_sweep().run(executor="serial").to_json()
        report = _quick_sweep().run(
            store=tmp_path / "store", checkpoint=tmp_path / "ckpt.jsonl"
        )
        assert report.to_json() == clean
        # a different checkpoint, same store: all hits, journaled afresh
        second = _quick_sweep().run(
            store=tmp_path / "store", checkpoint=tmp_path / "ckpt2.jsonl"
        )
        assert second.service_stats["store_hits"] == 3
        assert second.to_json() == clean

    def test_process_backend_checkpoints_from_the_parent(self, tmp_path):
        sweep = Sweep.from_callable(_square_point).add_axis("n", [1, 2, 3, 4])
        clean = (
            Sweep.from_callable(_square_point).add_axis("n", [1, 2, 3, 4]).run()
        ).to_json()
        report = sweep.run(
            executor="process", workers=2, checkpoint=tmp_path / "ckpt.jsonl"
        )
        assert report.to_json() == clean
        resumed = (
            Sweep.from_callable(_square_point)
            .add_axis("n", [1, 2, 3, 4])
            .run(checkpoint=tmp_path / "ckpt.jsonl")
        )
        assert resumed.service_stats["resumed"] == 4
        assert resumed.to_json() == clean


class TestKillAndResume:
    """A sweep SIGKILLed mid-run resumes bit-identically from its journal."""

    SCRIPT = textwrap.dedent(
        """
        import json, os, signal, sys
        from repro.api.sweep import Sweep

        def point(n):
            if n == 3 and os.environ.get("REPRO_TEST_KILL") == "1":
                os.kill(os.getpid(), signal.SIGKILL)
            return {"value": n * n, "shifted": n + 7}

        sweep = Sweep.from_callable(point, name="killable").add_axis(
            "n", [1, 2, 3, 4, 5]
        )
        mode = sys.argv[1]
        if mode == "clean":
            print(sweep.run(executor="serial").to_json(indent=None))
        else:
            report = sweep.run(executor="serial", checkpoint=sys.argv[2])
            print(json.dumps(report.service_stats))
            print(report.to_json(indent=None))
        """
    )

    def _run(self, *argv, kill=False, cwd):
        env = {**os.environ, "PYTHONPATH": "src"}
        env.pop("REPRO_TEST_KILL", None)
        if kill:
            env["REPRO_TEST_KILL"] = "1"
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *map(str, argv)],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_sigkill_resume_byte_equal(self, tmp_path):
        repo = str(Path(__file__).resolve().parent.parent)
        checkpoint = tmp_path / "ckpt.jsonl"

        clean = self._run("clean", cwd=repo)
        assert clean.returncode == 0, clean.stderr

        killed = self._run("checkpoint", checkpoint, kill=True, cwd=repo)
        assert killed.returncode == -9  # died by SIGKILL mid-grid
        journaled = checkpoint.read_text().count('"point"')
        assert 0 < journaled < 5  # some rows survived, not all

        resumed = self._run("checkpoint", checkpoint, cwd=repo)
        assert resumed.returncode == 0, resumed.stderr
        stats_line, report_line = resumed.stdout.strip().splitlines()
        stats = json.loads(stats_line)
        assert stats["resumed"] == journaled
        assert stats["executed"] == 5 - journaled
        assert report_line == clean.stdout.strip()


# ---------------------------------------------------------------------------
# sharding + merge
# ---------------------------------------------------------------------------


class TestShardMerge:
    def test_slices_are_balanced_and_total(self):
        sweep = Sweep.from_callable(_square_point).add_axis("n", list(range(10)))
        specs = shard(sweep, 3)
        assert [(s.start, s.stop) for s in specs] == [(0, 3), (3, 6), (6, 10)]
        assert all(spec.grid == specs[0].grid for spec in specs)

    def test_shard_specs_pickle_and_rebuild(self, tmp_path):
        sweep = _quick_sweep()
        spec = pickle.loads(pickle.dumps(shard(sweep, 2)[1]))
        rebuilt = spec.sweep()
        # policies compare by identity, so point equality is meaningless --
        # content-equality of the rebuilt grid is exactly what the digest says
        assert grid_digest(rebuilt, rebuilt.points()) == spec.grid
        assert point_keys(rebuilt, rebuilt.points()) == point_keys(
            sweep, sweep.points()
        )

    def test_shard_run_and_merge_bit_identical(self, tmp_path):
        clean = _quick_sweep().run(executor="serial").to_json()
        paths = []
        for spec in shard(_quick_sweep(), 2):
            path = tmp_path / f"shard-{spec.shard}.jsonl"
            partial = run_shard(spec, checkpoint=path)
            assert len(partial) == spec.stop - spec.start
            paths.append(path)
        merged = merge(_quick_sweep(), paths)
        assert merged.to_json() == clean
        # merge is order-insensitive: checkpoints index by grid position
        assert merge(_quick_sweep(), list(reversed(paths))).to_json() == clean

    def test_shard_rejects_a_backend_it_cannot_use(self, tmp_path):
        spec = shard(_quick_sweep(), 2)[0]
        checkpoint = tmp_path / "shard.jsonl"
        with pytest.raises(ValueError, match="executor='process'"):
            run_shard(spec, checkpoint=checkpoint, workers=2)
        with pytest.raises(ValueError, match="unknown executor"):
            run_shard(spec, checkpoint=checkpoint, executor="thread")
        assert not checkpoint.exists()

    def test_shards_share_a_store(self, tmp_path):
        store = tmp_path / "store"
        _quick_sweep().run(store=store)  # pre-warm with the full grid
        for spec in shard(_quick_sweep(), 2):
            report = run_shard(
                spec, checkpoint=tmp_path / f"s{spec.shard}.jsonl", store=store
            )
            assert report.service_stats["executed"] == 0

    def test_incomplete_merge_names_the_gap(self, tmp_path):
        specs = shard(_quick_sweep(), 3)
        path = tmp_path / "only-shard-0.jsonl"
        run_shard(specs[0], checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="incomplete"):
            merge(_quick_sweep(), [path])

    def test_foreign_checkpoint_refused(self, tmp_path):
        other = Sweep("quickstart", duration=Fraction(1, 100))
        path = tmp_path / "other.jsonl"
        other.run(checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            merge(_quick_sweep(), [path])

    def test_stale_shard_spec_refused(self):
        spec = shard(_quick_sweep(), 2)[0]
        stale = pickle.loads(pickle.dumps(spec))
        object.__setattr__(stale, "grid", "0" * 64)
        with pytest.raises(CheckpointMismatchError, match="digest"):
            run_shard(stale, checkpoint="unused.jsonl")


# ---------------------------------------------------------------------------
# the PAL grid: the paper's experiment, end to end through every service path
# ---------------------------------------------------------------------------


class TestPalGridIdentity:
    """Acceptance: resumed, sharded+merged and cache-served PAL reports are
    bit-identical to a single-shot serial run, and full-cache re-runs
    execute zero points."""

    @staticmethod
    def _pal():
        return Sweep("pal_decoder", duration=Fraction(1, 2)).add_axis(
            "scheduler", [BoundedProcessors(1), BoundedProcessors(2)]
        )

    def test_every_service_path_matches_serial(self, tmp_path):
        clean = self._pal().run(executor="serial", keep_runs=False).to_json()

        # cache-served
        store = tmp_path / "store"
        cold = self._pal().run(store=store, keep_runs=False)
        warm = self._pal().run(store=store, keep_runs=False)
        assert cold.to_json() == clean
        assert warm.to_json() == clean
        assert warm.service_stats["executed"] == 0

        # resumed (prefix journaled, rest executed on resume)
        checkpoint = tmp_path / "ckpt.jsonl"
        prefix = self._pal()
        run_service_sweep(prefix, prefix.points(), checkpoint=checkpoint, subset=[0])
        resumed = self._pal().run(checkpoint=checkpoint, keep_runs=False)
        assert resumed.service_stats["resumed"] == 1
        assert resumed.to_json() == clean

        # sharded + merged (shards also ride the warm store: zero execution)
        paths = []
        for spec in shard(self._pal(), 2):
            path = tmp_path / f"pal-shard-{spec.shard}.jsonl"
            report = run_shard(spec, checkpoint=path, store=store)
            assert report.service_stats["executed"] == 0
            paths.append(path)
        assert merge(self._pal(), paths).to_json() == clean


# ---------------------------------------------------------------------------
# job spool + CLI
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_submit_run_result_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path / "spool")
        job = queue.submit(_quick_sweep())
        assert queue.status(job)["state"] == "queued"
        report = queue.run(job)
        status = queue.status(job)
        assert status["state"] == "done"
        assert status["completed"] == 3
        assert queue.result(job).to_json() == report.to_json()

    def test_jobs_share_the_store(self, tmp_path):
        queue = JobQueue(tmp_path / "spool")
        queue.run(queue.submit(_quick_sweep()))
        second = queue.run(queue.submit(_quick_sweep()))
        assert second.service_stats["executed"] == 0
        assert second.service_stats["store_hits"] == 3

    def test_done_job_refuses_rerun_but_unknown_and_early_result_raise(self, tmp_path):
        queue = JobQueue(tmp_path / "spool")
        job = queue.submit(_quick_sweep())
        with pytest.raises(JobError, match="no report yet"):
            queue.result(job)
        queue.run(job)
        with pytest.raises(JobError, match="accepts only"):
            queue.run(job)
        with pytest.raises(JobError, match="unknown job"):
            queue.status("job-999999")

    def test_failed_job_records_error_and_resumes(self, tmp_path):
        queue = JobQueue(tmp_path / "spool")
        # a sweep that cannot even start: scheduler and platform together
        bad = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("scheduler", [None])
            .add_axis("platform", [None])
        )
        job = queue.submit(bad)
        with pytest.raises(SweepConfigError):
            queue.run(job)
        status = queue.status(job)
        assert status["state"] == "failed"
        assert "cannot combine" in status["error"]
        with pytest.raises(JobError, match="accepts only"):
            queue.run(job)  # plain run refuses failed jobs; resume accepts

    @pytest.mark.parametrize(
        "executor,workers,message",
        [
            ("thread", 1, "unknown executor"),
            ("procss", 2, "unknown executor"),
            ("serial", 2, "executor='process'"),
            ("process", 0, "workers"),
        ],
    )
    def test_rejected_submit_spools_nothing(self, tmp_path, executor, workers, message):
        queue = JobQueue(tmp_path / "spool")
        with pytest.raises(ValueError, match=message):
            queue.submit(_quick_sweep(), executor=executor, workers=workers)
        assert list(queue.jobs_dir.glob("job-*")) == []
        assert queue.jobs() == []


class TestCli:
    SPEC = {
        "app": "producer_consumer",
        "duration": {"$fraction": [2, 1]},
        "axes": {"scheduler": [{"$bounded": 1}, {"$bounded": 2}, "$selftimed"]},
    }

    @staticmethod
    def _main(*argv):
        from repro.service.cli import main

        return main(list(map(str, argv)))

    def test_executor_choices_follow_the_api(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        with pytest.raises(SystemExit):
            self._main("--root", tmp_path / "spool", "submit", spec, "--executor", "thread")
        assert "invalid choice: 'thread'" in capsys.readouterr().err
        assert not (tmp_path / "spool").exists()

    def test_submit_run_status_flow(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        root = tmp_path / "spool"
        assert self._main("--root", root, "submit", spec) == 0
        job = capsys.readouterr().out.strip()
        assert self._main("--root", root, "run", job) == 0
        assert "executed 3" in capsys.readouterr().out
        assert self._main("--root", root, "status") == 0
        assert "done" in capsys.readouterr().out

    def test_shard_run_merge_flow_matches_api(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / "shards"
        assert self._main("--root", tmp_path, "shard", spec, "-n", 2, "--out", out) == 0
        capsys.readouterr()
        checkpoints = []
        for shard_file in sorted(out.glob("shard-*.pkl")):
            ckpt = tmp_path / f"{shard_file.stem}.jsonl"
            assert (
                self._main(
                    "--root", tmp_path, "run-shard", shard_file, "--checkpoint", ckpt
                )
                == 0
            )
            checkpoints.append(ckpt)
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert (
            self._main("--root", tmp_path, "merge", spec, *checkpoints, "--out", merged)
            == 0
        )
        # the CLI-built sweep matches the API-built one bit-for-bit
        clean = (
            Sweep("producer_consumer", duration=Fraction(2))
            .add_axis(
                "scheduler",
                [BoundedProcessors(1), BoundedProcessors(2), SelfTimedUnbounded()],
            )
            .run(executor="serial")
        )
        restored = SweepReport.from_json(merged.read_text())
        assert restored.rows() == clean.rows()
        assert merged.read_text() == clean.to_json()
