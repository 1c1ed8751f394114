"""Steady-state fast-forward.

The contract under test (see :mod:`repro.engine.steady_state`) comes in two
strengths.  With ``fast_forward=True`` (timing-exact mode) every
timing-derived quantity -- trace records, completion counters, makespan,
deadline misses, measured rates, busy accounting -- is *exactly* equal to a
naive run, while whole periods of the steady-state regime are skipped in
O(1); data values are replayed from the canonical period, so full value
equality additionally requires constant stimuli and stateless actor
functions.  With ``fast_forward="auto"`` (the default, value-exact mode) a
program whose stimuli are declared value-periodic and whose functions
declare jump-exact behaviour produces *bit-identical sink values* through a
jump -- the detector folds every value state into its periodicity key --
and everything else silently falls back to naive stepping.
"""

import itertools
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.api import Program
from repro.api.sweep import Sweep
from repro.apps.producer_consumer import QUICKSTART_OIL_SOURCE, quickstart_wcets
from repro.apps.rate_converter import fig2_task_graph
from repro.dataflow import repetition_vector, self_timed_statespace
from repro.engine.dispatcher import run_tasks
from repro.engine.policies import BoundedProcessors, SelfTimedUnbounded, StaticOrder
from repro.engine.synthetic import fork_join_program, ring_program, tasks_from_sdf
from repro.platform.model import Platform
from repro.platform.policies import FixedPriorityPreemptive, ListScheduledPlatform
from repro.runtime.functions import FunctionRegistry, qualify_functions
from repro.runtime.sources import ConstantStimulus, PeriodicStimulus
from repro.runtime.trace import TraceRecorder
from repro.util.runwarnings import warning_code


def assert_traces_identical(a, b):
    assert a.firings == b.firings
    assert a.endpoint_events == b.endpoint_events
    assert a.violations == b.violations
    assert a.buffer_high_water == b.buffer_high_water


def assert_timing_identical(a, b):
    """Bit-identical timing: everything except the replayed data values."""
    assert a.firings == b.firings
    assert a.violations == b.violations
    assert [replace(e, value=None) for e in a.endpoint_events] == [
        replace(e, value=None) for e in b.endpoint_events
    ]
    assert a.buffer_high_water == b.buffer_high_water


APPS = ["quickstart", "pal_decoder", "rate_converter", "modal_mute", "modal_two_mode"]
#: apps whose actor functions are stateless, so under legacy timing-exact
#: mode even the *values* survive a jump with constant stimuli (pal_decoder /
#: modal_two_mode carry oscillator and filter state outside the execution
#: state -- legacy replay leaves their values periodic-stale)
STATELESS_APPS = ["quickstart", "rate_converter", "modal_mute"]
#: apps the value-exact detector can jump with bit-identical sink values:
#: every stimulus declared value-periodic, every stateful function exposing
#: get_state/set_state.  rate_converter is absent because its ``f`` emits an
#: ever-growing value stream -- no value period exists, so ``"auto"`` falls
#: back to naive stepping (silently; see TestValueExactAuto).
VALUE_EXACT_APPS = ["quickstart", "pal_decoder", "modal_mute", "modal_two_mode"]


def _constant_signals(app):
    names = list(Program.from_app(app).analyze().compilation.source_ports)
    return {name: ConstantStimulus(1.0) for name in names}


def assert_sink_values_identical(naive, ff):
    for name in naive.simulation.sinks:
        assert naive.simulation.sinks[name].consumed == ff.simulation.sinks[name].consumed, name


# ---------------------------------------------------------------------------
# Engine-level fast-forward (run_tasks)
# ---------------------------------------------------------------------------

class TestEngineFastForward:
    def test_ring_long_horizon_exact(self):
        horizon = Fraction(100)
        naive = run_tasks(ring_program(20, tokens=3, stagger=3), horizon=horizon)
        ff = run_tasks(
            ring_program(20, tokens=3, stagger=3), horizon=horizon, fast_forward=True
        )
        steady = ff.engine.steady_state
        assert ff.fast_forwarded and steady.jumps >= 1
        assert steady.skipped_events > 0
        assert ff.engine.completed_firings == naive.engine.completed_firings
        assert ff.makespan == naive.makespan
        # processed is replayed through jumps, so it matches naive exactly;
        # the actually executed events are the difference
        assert ff.queue.processed == naive.queue.processed
        assert steady.skipped_events < naive.queue.processed
        assert_traces_identical(naive.trace, ff.trace)

    def test_short_horizon_is_bit_identical_without_jumps(self):
        # A horizon inside the transient: the detector is armed but never
        # jumps, and the run is trivially bit-identical.
        naive = run_tasks(ring_program(20, tokens=3), horizon=Fraction(1, 500))
        ff = run_tasks(
            ring_program(20, tokens=3), horizon=Fraction(1, 500), fast_forward=True
        )
        assert not ff.fast_forwarded
        assert_traces_identical(naive.trace, ff.trace)

    def test_stop_after_firings_halts_at_naive_instant(self):
        naive = run_tasks(ring_program(20, tokens=3), stop_after_firings=5000)
        ff = run_tasks(
            ring_program(20, tokens=3), stop_after_firings=5000, fast_forward=True
        )
        assert ff.fast_forwarded
        assert ff.engine.completed_firings == naive.engine.completed_firings
        assert ff.makespan == naive.makespan
        assert_traces_identical(naive.trace, ff.trace)

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: BoundedProcessors(2),
            lambda: StaticOrder([f"t{i}" for i in range(10)]),
        ],
        ids=["bounded", "static-order"],
    )
    def test_policies_fast_forward_exactly(self, policy_factory):
        horizon = Fraction(50)
        naive = run_tasks(
            ring_program(10, tokens=2), policy=policy_factory(), horizon=horizon
        )
        ff = run_tasks(
            ring_program(10, tokens=2),
            policy=policy_factory(),
            horizon=horizon,
            fast_forward=True,
        )
        assert ff.fast_forwarded
        assert ff.engine.completed_firings == naive.engine.completed_firings
        assert ff.makespan == naive.makespan
        assert_traces_identical(naive.trace, ff.trace)

    def test_platform_policy_fast_forwards_with_busy_accounting(self):
        platform = Platform.homogeneous(2)
        horizon = Fraction(50)
        naive = run_tasks(
            fork_join_program(4), policy=ListScheduledPlatform(platform), horizon=horizon
        )
        ff = run_tasks(
            fork_join_program(4),
            policy=ListScheduledPlatform(Platform.homogeneous(2)),
            horizon=horizon,
            fast_forward=True,
        )
        assert ff.fast_forwarded
        assert ff.engine.completed_firings == naive.engine.completed_firings
        assert ff.engine.processor_busy_time == naive.engine.processor_busy_time
        assert_traces_identical(naive.trace, ff.trace)

    def test_trace_retention_keeps_streaming_counters_exact(self):
        horizon = Fraction(200)
        naive = run_tasks(ring_program(12, tokens=2), horizon=horizon)
        capped = TraceRecorder(level="full", retention=50)
        ff = run_tasks(
            ring_program(12, tokens=2), horizon=horizon, fast_forward=True, trace=capped
        )
        assert ff.fast_forwarded
        assert ff.engine.completed_firings == naive.engine.completed_firings
        # stored records are capped, the totals and per-task counters are not
        assert len(capped.firings) <= 50
        assert capped.firing_total == len(naive.trace.firings)
        for i in range(12):
            key = f"ring:t{i}"
            assert capped.task_firing_count(key) == naive.trace.task_firing_count(key)
            assert capped.task_throughput(key) == naive.trace.task_throughput(key)

    def test_multiple_jumps_across_repeated_horizon_extensions(self):
        # Two run() calls on one simulation: the second call extends the
        # horizon and jumps again, and its canonical period is matched
        # against a state sampled before the first jump -- so the second
        # replay's canonical span crosses the first replayed segment.
        analysis = Program.from_app("modal_two_mode").analyze()
        naive = analysis.simulation(fast_forward=False)
        ff = analysis.simulation()
        for end in (Fraction(1), Fraction(3)):
            naive.run(end)
            ff.run(end)
        assert ff.engine.steady_state.jumps >= 2
        assert ff.engine.completed_firings == naive.engine.completed_firings
        assert_traces_identical(naive.trace, ff.trace)
        for name in naive.sinks:
            assert naive.sinks[name].consumed == ff.sinks[name].consumed, name
        # The later repeat's base is a lazy view over segments that include
        # the earlier repeat, not a materialised copy of its records.
        repeats = [s for s in ff.trace.firings._segments if not isinstance(s, list)]
        assert len(repeats) >= 2
        assert any(
            any(segment is repeats[0] for segment in later.base.segments)
            for later in repeats[1:]
        )


# ---------------------------------------------------------------------------
# Lazy trace replay: a jump stores repeat segments, not copied records
# ---------------------------------------------------------------------------

def _stored_records(log):
    """Records a trace log holds as concrete objects (its plain segments)."""
    return sum(len(s) for s in log._segments if isinstance(s, list)) + len(log._tail)


def _two_mode_runs(end):
    analysis = Program.from_app("modal_two_mode").analyze()
    return (
        analysis.run(end, fast_forward=False).trace,
        analysis.run(end).trace,
    )


class TestLazyTraceReplay:
    def test_jumped_trace_behaves_as_the_naive_list(self):
        naive, ff = _two_mode_runs(Fraction(1))
        assert ff.firings._segments, "no jump replayed stored records"
        for n_log, f_log, total in (
            (naive.firings, ff.firings, ff.firing_total),
            (naive.endpoint_events, ff.endpoint_events, ff.endpoint_total),
        ):
            assert len(f_log) == total == len(n_log)
            size = len(n_log)
            for index in (0, 1, size // 2, size - 1, -1, -2, -size // 3, -size):
                assert f_log[index] == n_log[index], index
            for cut in (
                slice(None), slice(-5, None), slice(3, 40), slice(None, None, 7),
                slice(size - 3, 10, -4), slice(-size - 10, size + 10),
            ):
                assert isinstance(f_log[cut], list)
                assert f_log[cut] == n_log[cut], cut
            with pytest.raises(IndexError):
                f_log[size]
            with pytest.raises(IndexError):
                f_log[-size - 1]
            assert list(f_log) == n_log
            assert f_log == n_log and n_log == f_log
            assert not (f_log != n_log) and not (n_log != f_log)
            assert f_log != n_log[:-1] and n_log[:-1] != f_log
            assert f_log == tuple(n_log)
        for task in {f.task for f in naive.firings}:
            assert ff.firings_of(task) == naive.firings_of(task)
        for name in {e.name for e in naive.endpoint_events}:
            assert ff.events_of(name) == naive.events_of(name)

    def test_records_appended_after_a_jump_are_iterated(self):
        naive, ff = _two_mode_runs(Fraction(1))
        assert ff.firings._segments
        end = ff.firings[-1].end
        for trace in (naive, ff):
            trace.record_firing("late", end, end + 1, True)
        assert ff.firings[-1].task == "late"
        assert list(ff.firings)[-1] == ff.firings[-1]
        assert ff.firings == naive.firings

    def test_replayed_records_are_fresh_objects(self):
        naive, ff = _two_mode_runs(Fraction(1))
        index = len(ff.firings) // 2  # inside the replayed periods
        record = ff.firings[index]
        record.task = "mutated"
        assert ff.firings[index] == naive.firings[index]

    def test_jumped_trace_pickles(self):
        naive, ff = _two_mode_runs(Fraction(1))
        restored = pickle.loads(pickle.dumps(ff))
        assert restored.firings._segments
        assert_traces_identical(naive, restored)
        assert restored.firing_total == ff.firing_total
        end = restored.firings[-1].end
        restored.record_firing("late", end, end + 1, True)
        assert restored.firings[-1].task == "late"
        assert len(restored.firings) == len(ff.firings) + 1

    def test_stored_records_are_independent_of_the_horizon(self):
        horizon = Fraction(1)
        _, short = _two_mode_runs(horizon)
        _, long = _two_mode_runs(10 * horizon)
        for kind in ("firings", "endpoint_events"):
            short_log, long_log = getattr(short, kind), getattr(long, kind)
            assert _stored_records(long_log) == _stored_records(short_log), kind
            assert 9 * len(short_log) <= len(long_log) <= 11 * len(short_log), kind
        assert long.firing_total == len(long.firings)


# ---------------------------------------------------------------------------
# Refusals: configurations that must fall back to naive execution
# ---------------------------------------------------------------------------

class TestRefusals:
    def test_speed_migrating_preemptive_policy_refuses(self):
        run = run_tasks(
            ring_program(10, tokens=2),
            policy=FixedPriorityPreemptive(Platform.heterogeneous([1, 2])),
            stop_after_firings=100,
            fast_forward=True,
        )
        assert run.engine.steady_state is None
        assert not run.fast_forwarded
        assert any("refused" in w and "speeds" in w for w in run.warnings)
        assert run.engine.completed_firings == 100

    def test_fraction_time_base_refuses(self):
        run = run_tasks(
            ring_program(10, tokens=2),
            time_base="fraction",
            stop_after_firings=100,
            fast_forward=True,
        )
        assert run.engine.steady_state is None
        assert any("integer-tick" in w for w in run.warnings)

    def test_policy_without_steady_state_key_refuses(self):
        class OpaquePolicy:
            def allow_start(self, task):
                return True

            def on_start(self, task):
                pass

            def on_complete(self, task):
                pass

            def reset(self):
                pass

        run = run_tasks(
            ring_program(10, tokens=2),
            policy=OpaquePolicy(),
            stop_after_firings=100,
            fast_forward=True,
        )
        assert run.engine.steady_state is None
        assert any("steady_state_key" in w for w in run.warnings)

    def test_refused_run_matches_naive(self):
        naive = run_tasks(ring_program(10, tokens=2), time_base="fraction",
                          stop_after_firings=200)
        refused = run_tasks(ring_program(10, tokens=2), time_base="fraction",
                            stop_after_firings=200, fast_forward=True)
        assert_traces_identical(naive.trace, refused.trace)


# ---------------------------------------------------------------------------
# API layer: Simulation / Analysis.run / Sweep
# ---------------------------------------------------------------------------

class TestApiFastForward:
    @pytest.mark.parametrize("app", APPS)
    def test_timing_and_metrics_exact_for_all_apps(self, app):
        duration = Fraction(1, 2)
        naive = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app), fast_forward=False
        )
        ff = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app), fast_forward=True
        )
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.jumps >= 1
        assert_timing_identical(naive.trace, ff.trace)
        metrics_naive, metrics_ff = naive.metrics(), ff.metrics()
        assert metrics_naive.pop("fast_forwarded") is False
        assert metrics_ff.pop("fast_forwarded") is True
        assert metrics_naive == metrics_ff
        assert ff.warnings == []

    @pytest.mark.parametrize("app", STATELESS_APPS)
    def test_stateless_apps_reproduce_values_too(self, app):
        duration = Fraction(1, 2)
        naive = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app), fast_forward=False
        )
        ff = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app), fast_forward=True
        )
        assert ff.fast_forwarded
        assert_traces_identical(naive.trace, ff.trace)
        for sink in naive.simulation.sinks:
            assert naive.sink(sink) == ff.sink(sink)

    @pytest.mark.parametrize("app", APPS)
    def test_default_signal_metrics_exact(self, app):
        # Counting stimuli make values periodic-stale after a jump, but every
        # timing-derived metric must still be exactly the naive one.
        duration = Fraction(1, 2)
        naive = Program.from_app(app).analyze().run(duration, fast_forward=False)
        ff = Program.from_app(app).analyze().run(duration, fast_forward=True)
        metrics_naive, metrics_ff = naive.metrics(), ff.metrics()
        metrics_naive.pop("fast_forwarded")
        metrics_ff.pop("fast_forwarded")
        assert metrics_naive == metrics_ff

    def test_short_horizon_traces_bit_identical_with_default_signals(self):
        # Inside the transient no jump fires, so even counting stimuli give
        # bit-identical traces with fast-forward enabled.
        duration = Fraction(1, 400)
        naive = Program.from_app("quickstart").analyze().run(duration)
        ff = Program.from_app("quickstart").analyze().run(duration, fast_forward=True)
        assert not ff.fast_forwarded
        assert_traces_identical(naive.trace, ff.trace)
        for sink in naive.simulation.sinks:
            assert naive.sink(sink) == ff.sink(sink)

    def test_horizon_keyword_implies_fast_forward(self):
        run = Program.from_app("quickstart").run(horizon=Fraction(20))
        assert run.fast_forwarded
        assert run.duration == Fraction(20)
        explicit = Program.from_app("quickstart").run(
            horizon=Fraction(1, 10), fast_forward=False
        )
        assert explicit.simulation.engine.steady_state is None

    def test_duration_and_horizon_are_exclusive(self):
        analysis = Program.from_app("quickstart").analyze()
        with pytest.raises(TypeError):
            analysis.run(Fraction(1), horizon=Fraction(1))
        with pytest.raises(TypeError):
            analysis.run()

    def test_trace_retention_through_api(self):
        run = Program.from_app("quickstart").analyze().run(
            Fraction(2), fast_forward=True, trace_retention=100
        )
        assert run.fast_forwarded
        assert len(run.trace.firings) <= 100
        naive = Program.from_app("quickstart").analyze().run(Fraction(2))
        assert run.completed_firings == naive.completed_firings
        assert run.sink_counts == naive.sink_counts
        assert run.deadline_misses == naive.deadline_misses

    def test_run_until_sink_count_uses_streaming_counter(self):
        simulation = Program.from_app("quickstart").analyze().simulation(
            fast_forward=True
        )
        simulation.run(Fraction(1, 10))  # arms (and uses) the detector
        simulation.run_until_sink_count("averages", 150, max_time=Fraction(1))
        assert simulation.sinks["averages"].consumed_count >= 150

    def test_refusal_surfaces_in_run_result_and_sweep(self):
        run = Program.from_app("quickstart").analyze().run(
            Fraction(1, 10), fast_forward=True, time_base="fraction"
        )
        assert not run.fast_forwarded
        assert any("refused" in w for w in run.warnings)
        report = (
            Sweep("quickstart", duration=Fraction(1, 10))
            .add_axis("fast_forward", [True])
            .add_axis("time_base", ["fraction"])
            .run()
        )
        assert report.ok
        assert any("refused" in w for w in report.warnings)

    def test_sweep_fast_forward_axis_matches_naive_rows(self):
        report = (
            Sweep("rate_converter", duration=Fraction(1, 2))
            .add_axis("fast_forward", [False, True])
            .run()
        )
        assert report.ok
        rows = report.rows()
        assert rows[0]["fast_forwarded"] is False
        assert rows[1]["fast_forwarded"] is True
        for key, value in rows[0].items():
            if key in ("point", "fast_forward", "fast_forwarded"):
                continue
            assert rows[1][key] == value, key

    def test_sweep_horizon_axis(self):
        report = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("horizon", [Fraction(10)])
            .add_axis("trace", ["endpoints"])
            .add_axis("trace_retention", [50])
            .run()
        )
        assert report.ok
        assert report.rows()[0]["fast_forwarded"] is True


# ---------------------------------------------------------------------------
# Value-exact fast-forward (fast_forward="auto", the default)
# ---------------------------------------------------------------------------

class TestValueExactAuto:
    @pytest.mark.parametrize("app", VALUE_EXACT_APPS)
    def test_auto_jump_is_value_exact_with_constant_stimuli(self, app):
        duration = Fraction(1, 2)
        naive = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app), fast_forward=False
        )
        ff = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app)  # "auto" is the default
        )
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.value_exact and steady.jumps >= 1
        assert ff.warnings == []
        assert_traces_identical(naive.trace, ff.trace)
        assert_sink_values_identical(naive, ff)

    def test_pal_decoder_million_events_bit_identical(self):
        # Acceptance horizon: >= 1e6 queue events through a value-exact jump.
        # The declared RF stimulus is one exact period of the composite
        # signal (repro.dsp.pal.periodic_composite_stimulus) and every
        # filter/mixer/resampler exposes get_state, so the sink samples of
        # the jumped run are bit-identical to naive.
        duration = Fraction(21)
        analysis = Program.from_app("pal_decoder").analyze()
        ff = analysis.run(duration, trace="off")
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.value_exact and steady.jumps >= 1
        assert ff.warnings == []
        assert ff.simulation.engine.queue.processed >= 1_000_000
        naive = analysis.run(duration, trace="off", fast_forward=False)
        assert ff.simulation.engine.queue.processed == naive.simulation.engine.queue.processed
        assert_sink_values_identical(naive, ff)

    def test_modal_two_mode_million_events_bit_identical(self):
        # Same acceptance horizon for the mode-switching app: the jump must
        # preserve the mode-schedule position and the ring-buffer rotation
        # of values resident across it.
        duration = Fraction(63)
        analysis = Program.from_app("modal_two_mode").analyze()
        ff = analysis.run(duration, trace="off")
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.value_exact and steady.jumps >= 1
        assert ff.warnings == []
        assert ff.simulation.engine.queue.processed >= 1_000_000
        naive = analysis.run(duration, trace="off", fast_forward=False)
        assert ff.simulation.engine.queue.processed == naive.simulation.engine.queue.processed
        assert_sink_values_identical(naive, ff)

    def test_aperiodic_declared_stimulus_falls_back_silently(self):
        # The quickstart default signal is a declared ramp: aperiodic, so
        # auto cannot prove a value period -- it steps naively, with *no*
        # warning (the user declared exactly what the stream is).
        duration = Fraction(1, 2)
        naive = Program.from_app("quickstart").analyze().run(
            duration, fast_forward=False
        )
        auto = Program.from_app("quickstart").analyze().run(duration)
        assert not auto.fast_forwarded
        assert auto.warnings == []
        assert_traces_identical(naive.trace, auto.trace)
        assert_sink_values_identical(naive, auto)

    def test_rate_converter_auto_matches_naive_without_value_period(self):
        # rate_converter's ``f`` emits an ever-growing value stream: the
        # detector arms (all declarations are in place) but never observes a
        # repeat, and the run remains naive-identical.
        duration = Fraction(1, 2)
        naive = Program.from_app("rate_converter").analyze().run(
            duration, signals=_constant_signals("rate_converter"), fast_forward=False
        )
        auto = Program.from_app("rate_converter").analyze().run(
            duration, signals=_constant_signals("rate_converter")
        )
        steady = auto.simulation.engine.steady_state
        assert steady is not None and steady.value_exact
        assert not auto.fast_forwarded and auto.warnings == []
        assert_traces_identical(naive.trace, auto.trace)
        assert_sink_values_identical(naive, auto)


class TestRunUntilSinkCountValueExact:
    def test_sink_values_and_halt_instant_match_naive(self):
        count = 30_000
        ff_sim = Program.from_app("modal_two_mode").analyze().simulation(trace="off")
        ff_sim.run_until_sink_count("dac", count, max_time=Fraction(60))
        steady = ff_sim.engine.steady_state
        assert steady is not None and steady.value_exact and steady.jumps >= 1
        naive_sim = Program.from_app("modal_two_mode").analyze().simulation(
            trace="off", fast_forward=False
        )
        naive_sim.run_until_sink_count("dac", count, max_time=Fraction(60))
        # chunked stepping may overshoot the count -- but by the same amount
        # in both runs, because the chunk grid is jump-invariant
        assert ff_sim.sinks["dac"].consumed_count >= count
        # bit-identical values AND the exact naive halt instant
        assert ff_sim.sinks["dac"].consumed == naive_sim.sinks["dac"].consumed
        assert ff_sim.queue.now == naive_sim.queue.now
        assert ff_sim.queue.processed == naive_sim.queue.processed

    def test_sink_target_cleared_after_call(self):
        simulation = Program.from_app("modal_two_mode").analyze().simulation(trace="off")
        simulation.run_until_sink_count("dac", 5_000, max_time=Fraction(30))
        assert simulation.engine.steady_state.sink_target is None


class TestAutoRefusalWarningCodes:
    def test_bare_iterator_source_warns_with_stable_code(self):
        with pytest.warns(DeprecationWarning):
            run = Program.from_app("quickstart").analyze().run(
                Fraction(1, 100), signals={"samples": iter(itertools.count(0.0))}
            )
        assert not run.fast_forwarded
        codes = [warning_code(w) for w in run.warnings]
        assert codes == ["undeclared-source"]
        assert "bare iterator" in run.warnings[0]
        assert "samples" in run.warnings[0]

    @staticmethod
    def undeclared_quickstart():
        def undeclared_registry():
            registry = FunctionRegistry()
            registry.register("average2", lambda pair: sum(pair) / len(pair))
            return registry

        return Program.from_source(
            QUICKSTART_OIL_SOURCE,
            name="undeclared-quickstart",
            function_wcets=quickstart_wcets(),
            registry=undeclared_registry,
            signals=lambda: {"samples": PeriodicStimulus([1.0, 2.0])},
        )

    def test_undeclared_function_warns_with_stable_code(self):
        run = self.undeclared_quickstart().analyze().run(Fraction(1, 100))
        assert not run.fast_forwarded
        codes = [warning_code(w) for w in run.warnings]
        assert codes == ["undeclared-function"]
        assert "average2" in run.warnings[0]
        # the free-text message is still an ordinary string
        assert isinstance(run.warnings[0], str)

    def test_engine_and_simulation_share_the_function_qualification(self):
        # run_tasks and Simulation qualify through one helper, so the same
        # verdict produces the same message and code on both surfaces
        engine_run = run_tasks(ring_program(4, tokens=1), stop_after_firings=20)
        assert not engine_run.fast_forwarded
        assert engine_run.warnings == [
            "fast-forward (auto) fell back to naive execution: function(s) "
            "step declare no jump behaviour (stateless, jump_invariant or "
            "get_state)"
        ]
        assert warning_code(engine_run.warnings[0]) == "undeclared-function"
        simulation = self.undeclared_quickstart().analyze().simulation()
        simulation.run(Fraction(1, 100))
        qualified, specs, warning = qualify_functions(simulation.engine.tasks)
        assert not qualified and set(specs) == {"average2"}
        assert simulation.warnings == [warning]
        assert warning == engine_run.warnings[0].replace("step", "average2")

    def test_unregistered_function_disqualifies_silently(self):
        class FallbackTask:
            registry = FunctionRegistry()

            def function_names(self):
                return frozenset({"unregistered"})

        assert qualify_functions([FallbackTask()]) == (False, {}, None)

    def test_sweep_hoists_warning_codes(self):
        report = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("fast_forward", [True])
            .add_axis("time_base", ["fraction"])
            .run()
        )
        assert report.ok
        assert report.warnings
        assert all(warning_code(w) == "fraction-time-base" for w in report.warnings)


# ---------------------------------------------------------------------------
# Cross-check against the offline state-space analysis
# ---------------------------------------------------------------------------

class TestOfflineCrossCheck:
    @pytest.mark.parametrize("graph_factory", [fig2_task_graph], ids=["fig2"])
    def test_online_period_matches_statespace_throughput(self, graph_factory):
        graph = graph_factory()
        offline = self_timed_statespace(graph)
        assert offline.iteration_period is not None and not offline.deadlocked

        run = run_tasks(
            tasks_from_sdf(graph, iterations=64), horizon=Fraction(500),
            fast_forward=True,
        )
        steady = run.engine.steady_state
        assert run.fast_forwarded and steady.period_ticks is not None

        # The online anchor-period spans an integer number of graph
        # iterations, so firings-per-second must agree exactly with the
        # offline periodic phase: period_firings / period_seconds ==
        # sum(repetition vector) / iteration_period.
        q = repetition_vector(graph)
        period_seconds = run.queue.to_time(steady.period_ticks)
        assert (
            Fraction(steady.period_firings) * offline.iteration_period
            == Fraction(q.total_firings()) * period_seconds
        )

    def test_online_transient_is_finite_and_period_positive(self):
        graph = fig2_task_graph()
        run = run_tasks(
            tasks_from_sdf(graph, iterations=64), horizon=Fraction(500),
            fast_forward=True,
        )
        steady = run.engine.steady_state
        assert steady.transient_ticks >= 0
        assert steady.period_ticks > 0
        assert steady.skipped_events > 0
