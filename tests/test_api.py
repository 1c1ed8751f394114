"""Tests for the repro.api facade: Program -> Analysis -> RunResult, the app
catalogue and the Sweep subsystem (serial and process backends, ProgramSpec
shipping, the in-parent fallbacks)."""

import os
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.api import (
    Analysis,
    Program,
    ProgramSpec,
    Sweep,
    SweepConfigError,
    available_apps,
    build_app,
)
from repro.api.sweep import EXECUTORS, RUN_AXES, SweepReport, SweepResult
from repro.apps.producer_consumer import (
    QUICKSTART_OIL_SOURCE,
    quickstart_registry,
    quickstart_wcets,
)
from repro.core.compiler import compile_program
from repro.engine import BoundedProcessors, SelfTimedUnbounded


def quickstart_facade(**params):
    return Program.from_app("quickstart", **params)


def _square_point(n):
    """Module-level sweep runner: picklable by reference for process tests."""
    return {"value": n * n}


def _crash_in_worker(n):
    """Dies hard in a worker process, succeeds when re-run in the parent.

    ``multiprocessing.parent_process()`` is None exactly in the main
    process, under both the fork and spawn start methods -- a pid sentinel
    captured at import time would misidentify spawn workers, which re-import
    this module.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return {"value": n}


class TestProgramFacade:
    def test_catalogue_lists_all_apps(self):
        names = [spec.name for spec in available_apps()]
        assert names == [
            "quickstart",
            "pal_decoder",
            "rate_converter",
            "modal_mute",
            "modal_two_mode",
        ]

    def test_unknown_app_and_unknown_param(self):
        with pytest.raises(KeyError, match="unknown app"):
            Program.from_app("no_such_app")
        with pytest.raises(TypeError, match="does not accept"):
            Program.from_app("quickstart", bogus=1)

    def test_aliases_resolve(self):
        assert build_app("producer_consumer").name == "quickstart"
        assert build_app("fig2").name == "rate_converter"

    def test_compile_and_analysis_are_cached(self):
        program = quickstart_facade()
        assert program.compile() is program.compile()
        assert program.analyze() is program.analyze()

    def test_from_source_equals_from_app(self):
        source = Program.from_source(
            QUICKSTART_OIL_SOURCE,
            function_wcets=quickstart_wcets(),
            registry=quickstart_registry,
            signals=lambda: {"samples": [float(i) for i in range(2000)]},
        )
        by_app = quickstart_facade()
        assert source.analyze().capacities == by_app.analyze().capacities

    @pytest.mark.parametrize(
        "app,params,duration",
        [
            ("quickstart", {}, Fraction(1, 10)),
            ("pal_decoder", {"scale": 1000}, Fraction(1, 50)),
            ("rate_converter", {}, Fraction(1, 100)),
            ("modal_mute", {}, Fraction(1, 20)),
            ("modal_two_mode", {}, Fraction(1, 50)),
        ],
    )
    def test_every_app_analyzes_and_runs(self, app, params, duration):
        analysis = Program.from_app(app, **params).analyze()
        assert analysis.consistent
        assert analysis.latency_ok
        assert all(value >= 1 for value in analysis.capacities.values())
        run = analysis.run(duration)
        assert run.completed_firings > 0
        assert run.occupancy_ok
        assert run.deadline_misses == 0


class TestAnalysisParity:
    """The facade must reproduce the pre-facade helper numbers identically."""

    def test_quickstart_parity_with_direct_pipeline(self):
        direct = compile_program(QUICKSTART_OIL_SOURCE, function_wcets=quickstart_wcets())
        direct_consistency = direct.check_consistency(assume_infinite_unsized=True)
        direct_sizing = direct.size_buffers()
        direct_checks = direct.verify_latency(direct_sizing.consistency)

        analysis = quickstart_facade().analyze()
        assert analysis.consistent == direct_consistency.consistent
        assert analysis.capacities == direct_sizing.capacities
        assert analysis.total_capacity == direct_sizing.total_capacity
        assert [c.satisfied for c in analysis.latency] == [
            c.satisfied for c in direct_checks
        ]
        assert analysis.source_rates == {"samples": Fraction(2000)}
        assert analysis.sink_rates == {"averages": Fraction(1000)}

    def test_pal_parity_with_session_fixture(self, pal_sized):
        result, sizing = pal_sized
        analysis = Program.from_app("pal_decoder", scale=1000).analyze()
        assert analysis.capacities == sizing.capacities
        assert analysis.consistent
        assert analysis.latency_ok

    def test_quickstart_run_reproduces_simulation_numbers(self):
        run = quickstart_facade().analyze().run(Fraction(1, 5))
        assert run.deadline_misses == 0
        assert run.sink("averages")[:4] == [0.5, 2.5, 4.5, 6.5]
        assert run.measured_rates["averages"] == 1000
        assert run.measured_rates["samples"] == 2000
        assert run.occupancy_ok
        metrics = run.metrics()
        assert metrics["deadline_misses"] == 0
        assert metrics["sink_count[averages]"] == len(run.sink("averages"))
        assert "deadline violations: 0" in run.summary()

    def test_analysis_report_mentions_everything(self):
        report = quickstart_facade().analyze().report()
        assert "consistency" in report
        assert "source samples: 2000 Hz" in report
        assert "buffer sizing" in report
        assert "latency" in report

    def test_facade_has_no_dispatcher_knob(self):
        # The polling dispatcher is the engine-level test oracle
        # (Simulation(dispatcher=), run_tasks(mode=)); the facade and the
        # sweep run axes expose only the ready-set loop.
        analysis = quickstart_facade().analyze()
        with pytest.raises(TypeError, match="dispatcher"):
            analysis.run(Fraction(1, 100), dispatcher="polling")
        with pytest.raises(TypeError, match="dispatcher"):
            analysis.simulation(dispatcher="polling")
        assert "dispatcher" not in RUN_AXES


class TestProgramSpec:
    """The picklable rebuild recipes behind the process sweep backend."""

    APPS = ["quickstart", "pal_decoder", "rate_converter", "modal_mute", "modal_two_mode"]
    DURATIONS = {
        "quickstart": Fraction(1, 100),
        "pal_decoder": Fraction(1, 50),
        "rate_converter": Fraction(1, 100),
        "modal_mute": Fraction(1, 50),
        "modal_two_mode": Fraction(1, 50),
    }

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("time_base", ["ticks", "fraction"])
    def test_app_spec_round_trips_through_pickle(self, app, time_base):
        spec = ProgramSpec.from_app(app, time_base=time_base)
        revived = pickle.loads(pickle.dumps(spec))
        assert revived == spec
        program = revived.build()
        assert program.app == app
        duration = self.DURATIONS[app]
        run = program.analyze().run(duration)
        assert run.time_base == time_base
        original = Program.from_app(app)
        original.time_base = time_base
        assert run.metrics() == original.analyze().run(duration).metrics()

    def test_from_program_replays_exact_builder_kwargs(self):
        # ``program.params`` echoes derived parameters and may omit builder
        # kwargs (pal_decoder does not echo ``signal``); the spec must
        # replay the *invocation*, not the echo.
        program = Program.from_app("pal_decoder", scale=1000, utilisation=0.3)
        assert program.app == "pal_decoder"
        assert program.app_params == {"scale": 1000, "utilisation": 0.3}
        spec = program.spec()
        assert dict(spec.params) == {"scale": 1000, "utilisation": 0.3}
        rebuilt = pickle.loads(spec.ensure_picklable()).build()
        assert rebuilt.analyze().capacities == program.analyze().capacities

    def test_source_program_spec_round_trips(self):
        program = Program.from_source(
            QUICKSTART_OIL_SOURCE,
            name="inline-quickstart",
            function_wcets=quickstart_wcets(),
            registry=quickstart_registry,  # module-level: picklable by reference
            signals={"samples": [float(i) for i in range(200)]},
        )
        revived = pickle.loads(program.spec().ensure_picklable())
        rebuilt = revived.build()
        assert rebuilt.name == "inline-quickstart"
        assert rebuilt.analyze().capacities == program.analyze().capacities
        duration = Fraction(1, 100)
        assert (
            rebuilt.analyze().run(duration).metrics()
            == program.analyze().run(duration).metrics()
        )

    def test_unknown_app_or_param_fails_in_parent(self):
        with pytest.raises(KeyError, match="unknown app"):
            ProgramSpec.from_app("no_such_app")
        with pytest.raises(TypeError, match="does not accept"):
            ProgramSpec.from_app("quickstart", bogus=1)

    def test_precompiled_program_has_no_spec(self, quickstart_sized):
        result, sizing = quickstart_sized
        analysis = Analysis.from_parts(result, sizing)
        with pytest.raises(SweepConfigError, match="pre-computed"):
            analysis.program.spec()

    def test_unpicklable_spec_names_itself(self):
        program = Program.from_source(
            QUICKSTART_OIL_SOURCE,
            name="closure-signals",
            function_wcets=quickstart_wcets(),
            registry=quickstart_registry,
            signals=lambda: {"samples": [0.0] * 100},  # closure: unpicklable
        )
        spec = program.spec()
        with pytest.raises(SweepConfigError, match="closure-signals"):
            spec.ensure_picklable()


class TestProcessSweep:
    """executor="process": multi-core fan-out with serial-identical reports."""

    def build_quickstart_grid(self):
        return (
            Sweep("quickstart", duration=Fraction(1, 50))
            .add_axis("utilisation", [0.3, 0.5])
            .add_axis(
                "scheduler",
                [None, SelfTimedUnbounded(), BoundedProcessors(1), BoundedProcessors(2)],
            )
        )

    def test_process_vs_thread_vs_serial_reports_identical(self):
        # The thread backend is gone (GIL-bound, never faster than serial);
        # serial and process are the two backends and must agree exactly.
        serial = self.build_quickstart_grid().run(workers=1)
        process = self.build_quickstart_grid().run(executor="process", workers=2)
        assert serial.ok and process.ok, [failure.error for failure in process.failures]
        assert not process.warnings
        assert serial.rows() == process.rows()
        assert serial.speedup_table() == process.speedup_table()
        assert serial.to_json() == process.to_json()
        # simulations stay in the workers: process results carry no RunResult
        assert all(result.run is None for result in process.results)

    def test_unknown_executor_rejected(self):
        assert EXECUTORS == ("serial", "process")
        for executor in ("rocket", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                Sweep("quickstart").run(executor=executor)

    def test_workers_require_process_executor(self):
        with pytest.raises(ValueError, match="executor='process'"):
            Sweep("quickstart").run(workers=2)
        with pytest.raises(ValueError, match="executor='process'"):
            Sweep("quickstart").run(executor="serial", workers=2)

    def test_unpicklable_program_axis_falls_back_to_threads(self):
        sweep = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("signal", [(float(i) for i in range(100))])
            .add_axis("scheduler", [None, BoundedProcessors(1)])
        )
        report = sweep.run(executor="process", workers=2)
        assert report.ok, [failure.error for failure in report.failures]
        assert len(report) == 2
        # the whole sweep re-ran in the parent, like any process-backend
        # point: metric rows only
        assert any(
            "'signal'" in warning and "running every point in-process" in warning
            for warning in report.warnings
        )
        assert all(result.run is None for result in report.results)

    def test_strict_mode_raises_naming_the_axis(self):
        sweep = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("signal", [(float(i) for i in range(100))])
            .add_axis("scheduler", [None, BoundedProcessors(1)])
        )
        with pytest.raises(SweepConfigError, match="'signal'"):
            sweep.run(executor="process", workers=2, strict=True)

    def test_strict_applies_to_serial_and_thread_backends_too(self):
        # strict forbids the repr-based dedup-key fallback everywhere, not
        # just on the process backend -- it must never be a silent no-op.
        def build():
            return Sweep("quickstart", duration=Fraction(1, 100)).add_axis(
                "signal", [(float(i) for i in range(100))]
            )

        with pytest.raises(SweepConfigError, match="'signal'"):
            build().run(strict=True)

    def test_unpicklable_run_param_degrades_that_point_only(self):
        class LocalPolicy(SelfTimedUnbounded):
            """Test-local class: unpicklable (not importable), deepcopy-able,
            behaviourally identical to the default policy."""

        sweep = (
            Sweep("quickstart", duration=Fraction(1, 50))
            .add_axis("scheduler", [LocalPolicy(), BoundedProcessors(1), BoundedProcessors(2)])
        )
        report = sweep.run(executor="process", workers=2)
        assert report.ok, [failure.error for failure in report.failures]
        assert any("running the point in-process" in w for w in report.warnings)
        serial = (
            Sweep("quickstart", duration=Fraction(1, 50))
            .add_axis(
                "scheduler",
                [SelfTimedUnbounded(), BoundedProcessors(1), BoundedProcessors(2)],
            )
            .run()
        )
        # identical metrics row-for-row (params render differently: the
        # degraded point's policy repr differs, so compare the metric columns)
        for key in ("completed_firings", "makespan", "deadline_misses"):
            assert report.column(key) == serial.column(key)

    def test_from_callable_runs_in_processes(self):
        report = (
            Sweep.from_callable(_square_point)
            .add_axis("n", [1, 2, 3, 4, 5])
            .run(executor="process", workers=2)
        )
        assert report.ok and not report.warnings
        assert report.column("value") == [1, 4, 9, 16, 25]

    def test_unpicklable_runner_falls_back_to_threads(self):
        report = (
            Sweep.from_callable(lambda n: {"value": n})
            .add_axis("n", [1, 2, 3])
            .run(executor="process", workers=2)
        )
        assert report.ok
        assert any(
            "not picklable" in warning and "running every point in-process" in warning
            for warning in report.warnings
        )
        assert report.column("value") == [1, 2, 3]

    def test_worker_crash_reruns_points_in_parent(self):
        report = (
            Sweep.from_callable(_crash_in_worker)
            .add_axis("n", [1, 2, 3, 4])
            .run(executor="process", workers=2)
        )
        assert report.ok, [failure.error for failure in report.failures]
        assert any("re-running" in warning for warning in report.warnings)
        assert report.column("value") == [1, 2, 3, 4]

    def test_failing_points_report_identically_across_backends(self):
        def build():
            return (
                Sweep("quickstart", duration=Fraction(1, 100))
                # scheduler axis values must implement the policy protocol;
                # an int produces a per-point failure, not a sweep failure
                .add_axis("scheduler", [None, 42, BoundedProcessors(1)])
            )

        serial = build().run(workers=1)
        process = build().run(executor="process", workers=2)
        assert [result.ok for result in process.results] == [True, False, True]
        assert process.rows() == serial.rows()
        assert process.results[1].error == serial.results[1].error


class TestSweep:
    def test_grid_expansion_order(self):
        sweep = Sweep("quickstart").add_axis("a", [1, 2]).add_axis("b", ["x", "y"])
        assert sweep.points() == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_distinct_programs_compiled_once(self, monkeypatch):
        import repro.api.sweep as sweep_module

        calls = []
        original = sweep_module.Program.from_app.__func__

        def counting(cls, app, **params):
            calls.append((app, tuple(sorted(params.items()))))
            return original(cls, app, **params)

        monkeypatch.setattr(
            sweep_module.Program, "from_app", classmethod(counting)
        )
        report = (
            Sweep("quickstart", duration=Fraction(1, 50))
            .add_axis("utilisation", [0.3, 0.5])
            .add_axis("scheduler", [None, BoundedProcessors(2)])
            .run()
        )
        assert report.ok
        assert len(report) == 4
        assert len(calls) == 2  # one compilation per distinct program point

    def test_serial_and_parallel_reports_identical(self):
        def build():
            return (
                Sweep("quickstart", duration=Fraction(1, 20))
                .add_axis("utilisation", [0.3, 0.5])
                .add_axis(
                    "scheduler", [None, BoundedProcessors(1), BoundedProcessors(2)]
                )
            )

        serial = build().run(workers=1)
        parallel = build().run(executor="process", workers=2)
        assert serial.ok and parallel.ok
        assert serial.rows() == parallel.rows()
        assert serial.speedup_table() == parallel.speedup_table()
        assert serial.to_json() == parallel.to_json()

    def test_bounded_processor_sweep_shape(self):
        report = (
            Sweep("quickstart", duration=Fraction(1, 10))
            .add_axis("scheduler", [BoundedProcessors(1), BoundedProcessors(2)])
            .run()
        )
        table = report.table()
        assert "BoundedProcessors(1)" in table and "BoundedProcessors(2)" in table
        speedups = [row["speedup"] for row in report.speedup_table()]
        assert speedups[0] == 1.0
        assert all(value is not None for value in speedups)

    def test_run_axis_duration_override(self):
        report = (
            Sweep("quickstart", duration=Fraction(1))
            .add_axis("duration", [Fraction(1, 100), Fraction(1, 50)])
            .run()
        )
        short, longer = report.results
        assert short.metrics["completed_firings"] < longer.metrics["completed_firings"]

    def test_program_axis_dedup_is_value_based(self):
        # Distinct parameter values whose reprs collide (numpy truncates
        # reprs past 1000 elements) must NOT collapse into one program.
        numpy = pytest.importorskip("numpy")
        a = numpy.zeros(2000)
        b = numpy.zeros(2000)
        b[10] = 7.5
        assert repr(a) == repr(b)
        report = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("signal", [list(a), list(b)])
            .run()
        )
        assert report.ok
        first, second = (result.run.sink("averages") for result in report.results)
        assert first != second  # each point ran its own stimulus

    def test_unpicklable_program_axis_falls_back_to_repr_keys(self):
        # Unpicklable axis values (generators, lambdas, open handles) must
        # not crash the sweep: the dedup key falls back to a repr-based key.
        # Default object reprs embed the id, so such points may compile the
        # same program redundantly -- never crash, never share wrongly.
        from repro.api.sweep import _program_key

        values = [(float(i) for i in range(100)), (float(i) for i in range(100))]
        with pytest.raises(Exception):
            import pickle

            pickle.dumps(values[0])  # the premise: generators are unpicklable
        keys = [_program_key({"signal": value}) for value in values]
        assert keys[0] != keys[1]  # distinct instances -> distinct (repr) keys

        report = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("signal", values)
            .run()
        )
        assert report.ok, [f.error for f in report.failures]
        assert len(report) == 2

    def test_speedup_table_direction(self):
        report = (
            Sweep.from_callable(lambda n: {"latency": float(n)})
            .add_axis("n", [1, 2])
            .run()
        )
        faster_is_higher = report.speedup_table("latency")
        assert faster_is_higher[1]["speedup"] == 2.0  # default: higher = better
        lower = report.speedup_table("latency", lower_is_better=True)
        assert lower[1]["speedup"] == 0.5  # doubled latency = 0.5x speedup
        makespan = (
            Sweep.from_callable(lambda n: {"makespan": float(n)})
            .add_axis("n", [2, 1])
            .run()
            .speedup_table("makespan")
        )
        assert makespan[1]["speedup"] == 2.0  # makespan infers lower-is-better

    def test_keep_runs_false_drops_simulations(self):
        report = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("scheduler", [None, BoundedProcessors(1)])
            .run(keep_runs=False)
        )
        assert report.ok
        assert all(result.run is None for result in report.results)
        assert all(result.metrics["completed_firings"] > 0 for result in report.results)

    def test_from_callable_and_failure_isolation(self):
        def point(n):
            if n == 2:
                raise ValueError("boom")
            return {"value": n * n}

        report = Sweep.from_callable(point).add_axis("n", [1, 2, 3]).run()
        assert not report.ok
        assert [r.ok for r in report.results] == [True, False, True]
        assert report.results[1].error == "ValueError: boom"
        assert report.column("value") == [1, None, 9]

    def test_scheduler_instances_not_shared_between_points(self):
        policy = BoundedProcessors(1)
        report = (
            Sweep("quickstart", duration=Fraction(1, 50))
            .add_axis("scheduler", [policy, policy])
            .run()
        )
        assert report.ok
        assert policy.busy == 0  # the caller's instance was never mutated
        rows = report.rows()
        assert rows[0]["completed_firings"] == rows[1]["completed_firings"]


class TestSweepReportJson:
    """SweepReport.from_json is the exact inverse of to_json."""

    def test_roundtrip_with_failures_and_warnings(self):
        def point(n):
            if n == 2:
                raise ValueError("boom")
            return {"value": n * n, "warnings": ["synthetic degradation"]}

        report = Sweep.from_callable(point, name="rt").add_axis("n", [1, 2, 3]).run()
        restored = SweepReport.from_json(report.to_json())
        assert restored.name == report.name
        assert restored.warnings == report.warnings  # incl. hoisted per-point
        assert restored.rows() == report.rows()
        assert [r.ok for r in restored.results] == [True, False, True]
        assert restored.results[1].error == "ValueError: boom"
        # idempotent: the restored report re-serialises byte-identically,
        # and a second round trip is a fixed point
        assert restored.to_json() == report.to_json()
        assert SweepReport.from_json(restored.to_json()).to_json() == report.to_json()

    def test_real_sweep_roundtrip_every_rendering(self):
        report = (
            Sweep("quickstart", duration=Fraction(1, 50))
            .add_axis("scheduler", [None, BoundedProcessors(1)])
            .run()
        )
        restored = SweepReport.from_json(report.to_json())
        assert restored.to_json() == report.to_json()
        assert restored.rows() == report.rows()
        assert restored.table() == report.table()
        assert restored.speedup_table() == report.speedup_table()

    _json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=20) | st.floats(allow_nan=False, allow_infinity=False)
    _values = st.recursive(
        _json_scalars,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=8,
    )
    _keys = st.text(max_size=12).filter(lambda k: k != "warnings")

    @given(
        points=st.lists(
            st.tuples(
                st.booleans(),
                st.dictionaries(_keys, _values, max_size=4),
                st.dictionaries(_keys, _values, max_size=4),
            ),
            max_size=6,
        ),
        warnings=st.lists(st.text(max_size=30), max_size=3),
        name=st.text(max_size=20),
    )
    def test_roundtrip_property(self, points, warnings, name):
        results = [
            SweepResult(
                index=i,
                params=params,
                ok=ok,
                error=None if ok else "Error: synthetic",
                metrics=metrics if ok else {},
            )
            for i, (ok, params, metrics) in enumerate(points)
        ]
        report = SweepReport(results, name=name, warnings=warnings)
        restored = SweepReport.from_json(report.to_json())
        assert restored.to_json() == report.to_json()
        assert restored.rows() == report.rows()
        assert restored.warnings == report.warnings
        assert [r.ok for r in restored.results] == [r.ok for r in report.results]


class TestWarningsPropagation:
    """Per-point run warnings must survive every process-backend degradation
    path, alongside the degradation's own warning (the happy path is covered
    elsewhere; these pin the fallback paths)."""

    @staticmethod
    def _fraction_ff_axes(sweep):
        # fast_forward on a fraction time base is refused with a per-point
        # "integer-tick" warning on every point -- a deterministic marker
        return sweep.add_axis("fast_forward", [True]).add_axis(
            "time_base", ["fraction"]
        )

    def test_thread_fallback_keeps_point_warnings(self):
        sweep = self._fraction_ff_axes(
            Sweep("quickstart", duration=Fraction(1, 100)).add_axis(
                "signal", [(float(i) for i in range(100))]  # unpicklable axis
            )
        )
        report = sweep.run(executor="process", workers=2)
        assert report.ok, [failure.error for failure in report.failures]
        assert any("running every point in-process" in w for w in report.warnings)
        assert all(result.run is None for result in report.results)
        assert any("integer-tick" in w for w in report.warnings)
        # the run warning also stays inside the point's metric row
        assert any(
            "integer-tick" in w for w in report.results[0].metrics["warnings"]
        )

    def test_in_parent_rerun_keeps_point_warnings(self):
        class LocalPolicy(SelfTimedUnbounded):
            """Unpicklable run-axis value: forces the in-parent re-run."""

        sweep = self._fraction_ff_axes(
            Sweep("quickstart", duration=Fraction(1, 100)).add_axis(
                "scheduler", [LocalPolicy(), BoundedProcessors(1)]
            )
        )
        report = sweep.run(executor="process", workers=2)
        assert report.ok, [failure.error for failure in report.failures]
        assert any("running the point in-process" in w for w in report.warnings)
        # both the degraded point and the worker-run point kept their
        # fast-forward refusal warning
        point_warnings = [
            w for w in report.warnings if w.startswith("point ") and "integer-tick" in w
        ]
        assert len(point_warnings) == 2

    def test_worker_crash_rerun_keeps_report_order(self):
        report = (
            Sweep.from_callable(_crash_in_worker)
            .add_axis("n", [1, 2, 3, 4])
            .run(executor="process", workers=2)
        )
        restored = SweepReport.from_json(report.to_json())
        assert any("re-running" in w for w in restored.warnings)
        assert restored.column("value") == [1, 2, 3, 4]


class TestDeprecatedAliases:
    """What is left of the pre-facade entry points: wrapping precompiled
    lower-level results (the per-app ``simulate_*`` aliases are gone)."""

    def test_analysis_from_parts_wraps_precompiled_results(self, quickstart_sized):
        result, sizing = quickstart_sized
        analysis = Analysis.from_parts(result, sizing)
        assert analysis.capacities == sizing.capacities
        assert analysis.program.name == "precompiled"
