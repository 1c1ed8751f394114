"""Tests for the discrete-event runtime (events, tasks, drivers, simulator)."""

from fractions import Fraction

import pytest

from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Access, Task
from repro.lang import ast
from repro.runtime import (
    EventQueue,
    FunctionRegistry,
    RuntimeTask,
    Simulation,
    SinkDriver,
    SourceDriver,
    TraceRecorder,
    default_registry,
    evaluate_expression,
)
from repro.apps.producer_consumer import quickstart_registry


class TestEventQueue:
    def test_ordering(self):
        queue = EventQueue()
        seen = []
        queue.schedule(Fraction(2), lambda: seen.append("b"))
        queue.schedule(Fraction(1), lambda: seen.append("a"))
        queue.schedule(Fraction(1), lambda: seen.append("a2"))
        queue.run_until(Fraction(10))
        assert seen == ["a", "a2", "b"]

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(Fraction(1), lambda: queue.schedule(Fraction(0), lambda: None))
        with pytest.raises(ValueError):
            queue.run_until(Fraction(2))

    def test_cancel(self):
        queue = EventQueue()
        seen = []
        event = queue.schedule(Fraction(1), lambda: seen.append("x"))
        queue.cancel(event)
        queue.run_until(Fraction(2))
        assert seen == []

    def test_run_until_advances_time(self):
        queue = EventQueue()
        queue.run_until(Fraction(5))
        assert queue.now == 5

    def test_peek_time_skips_cancelled_and_prunes(self):
        queue = EventQueue()
        events = [queue.schedule(Fraction(i), lambda: None) for i in range(1, 6)]
        for event in events[:3]:
            queue.cancel(event)
        assert queue.peek_time() == Fraction(4)
        # cancelled heads were physically popped, not re-scanned per call
        assert len(queue._heap) == 2
        assert not queue.empty()

    def test_empty_is_true_once_all_events_cancelled(self):
        queue = EventQueue()
        events = [queue.schedule(Fraction(i), lambda: None) for i in range(1, 4)]
        assert not queue.empty()
        for event in events:
            queue.cancel(event)
        assert queue.empty()
        assert queue._heap == []
        assert queue.peek_time() is None


class TestExpressionEvaluator:
    def test_arithmetic(self):
        expr = ast.BinaryOp("+", ast.NumberLiteral(2), ast.BinaryOp("*", ast.VarRef("x"), ast.NumberLiteral(3)))
        assert evaluate_expression(expr, {"x": 4}) == 14

    def test_comparisons_and_logic(self):
        expr = ast.BinaryOp(
            "and",
            ast.BinaryOp(">", ast.VarRef("x"), ast.NumberLiteral(0)),
            ast.UnaryOp("!", ast.BinaryOp("==", ast.VarRef("x"), ast.NumberLiteral(5))),
        )
        assert evaluate_expression(expr, {"x": 3}) is True
        assert evaluate_expression(expr, {"x": 5}) is False

    def test_var_ref_of_list_uses_last(self):
        assert evaluate_expression(ast.VarRef("x"), {"x": [1, 2, 3]}) == 3

    def test_stream_read_returns_list(self):
        assert evaluate_expression(ast.StreamRead("x", 2), {"x": [1, 2]}) == [1, 2]

    def test_function_expression(self):
        registry = default_registry({"double": lambda v: 2 * v})
        expr = ast.FunctionExpr("double", (ast.InArgument(ast.VarRef("x")),))
        assert evaluate_expression(expr, {"x": 21}, registry) == 42

    def test_missing_value(self):
        with pytest.raises(Exception):
            evaluate_expression(ast.VarRef("ghost"), {})


class TestFunctionRegistry:
    def test_register_and_call(self):
        registry = FunctionRegistry()
        registry.register("add", lambda a, b: a + b, wcet="0.001")
        assert registry.call("add", 2, 3) == 5
        assert registry.wcets()["add"] == Fraction(1, 1000)

    def test_decorator(self):
        registry = FunctionRegistry()

        @registry.function(wcet=Fraction(1, 500))
        def triple(value):
            return 3 * value

        assert registry.call("triple", 2) == 6
        assert "triple" in registry

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            FunctionRegistry().get("nope")

    def test_side_effect_check(self):
        registry = FunctionRegistry()
        registry.register("pure", lambda xs: sum(xs))
        assert registry.verify_side_effect_free("pure", [1, 2, 3])

        state = {"calls": 0}

        def impure(xs):
            state["calls"] += 1
            return state["calls"]

        registry.register("impure", impure, side_effect_free=False)
        assert not registry.verify_side_effect_free("impure", [1])


class TestRuntimeTask:
    def make_task(self, guard=None):
        statement = ast.FunctionCall(
            "work",
            (
                ast.InArgument(ast.VarRef("a")),
                ast.OutArgument("b", 1),
            ),
        )
        task = Task(name="t_work", kind="call", statement=statement, function="work", guard=guard)
        task.reads = [Access("a", 1)]
        task.writes = [Access("b", 1)]
        buffers = {"a": CircularBuffer("a", 4), "b": CircularBuffer("b", 4)}
        registry = FunctionRegistry()
        registry.register("work", lambda value: value + 100)
        runtime = RuntimeTask(
            name="t_work", task=task, instance="inst", registry=registry, buffers=buffers
        )
        buffers["a"].register_consumer(runtime.producer_key())
        buffers["a"].register_producer("env")
        buffers["b"].register_producer(runtime.producer_key())
        buffers["b"].register_consumer("env")
        return runtime, buffers

    def test_fire_executes_function(self):
        runtime, buffers = self.make_task()
        buffers["a"].produce("env", [1], 1)
        assert runtime.can_fire()
        values = runtime.start_firing()
        assert runtime.busy
        executed = runtime.finish_firing(values)
        assert executed
        assert buffers["b"].consume("env", 1) == [101]

    def test_guard_false_releases_without_writing(self):
        guard = ast.BinaryOp(">", ast.VarRef("a"), ast.NumberLiteral(10))
        runtime, buffers = self.make_task(guard=guard)
        buffers["a"].produce("env", [1], 1)
        values = runtime.start_firing()
        executed = runtime.finish_firing(values)
        assert not executed
        # A token is released (the consumer can advance) but holds no new value.
        assert buffers["b"].can_consume("env", 1)

    def test_cannot_fire_without_input(self):
        runtime, _ = self.make_task()
        assert not runtime.can_fire()

    def test_cannot_fire_when_busy(self):
        runtime, buffers = self.make_task()
        buffers["a"].produce("env", [1, 2], 2)
        runtime.start_firing()
        assert not runtime.can_fire()


class TestDrivers:
    def test_source_produces_periodically(self):
        queue = EventQueue()
        trace = TraceRecorder()
        buffer = CircularBuffer("b", 8)
        buffer.register_consumer("c")
        driver = SourceDriver(
            name="src", buffer=buffer, period=Fraction(1, 10), values=iter(range(100)),
            trace=trace, queue=queue,
        )
        driver.start()
        queue.run_until(Fraction(1))
        assert driver.produced == 8  # buffer capacity reached
        assert driver.dropped >= 1
        assert trace.measured_rate("src") == 10

    def test_sink_underflow_recorded(self):
        queue = EventQueue()
        trace = TraceRecorder()
        buffer = CircularBuffer("b", 4, initial_values=[1])
        driver = SinkDriver(
            name="snk", buffer=buffer, period=Fraction(1, 10), trace=trace, queue=queue,
            start_time=Fraction(0),
        )
        driver.start()
        queue.run_until(Fraction(1, 2))
        assert driver.consumed == [1]
        assert driver.misses >= 1
        assert any(v.kind == "sink-underflow" for v in trace.violations)


class TestSimulation:
    def test_quickstart_simulation_behaviour(self, quickstart_sized):
        result, sizing = quickstart_sized
        simulation = Simulation(
            result,
            quickstart_registry(),
            source_signals={"samples": [float(i) for i in range(10000)]},
            capacities=sizing.capacities,
        )
        trace = simulation.run(Fraction(1, 4))
        assert trace.deadline_miss_count() == 0
        # 2:1 averaging of 0,1,2,3,... gives 0.5, 2.5, 4.5, ...
        values = simulation.sinks["averages"].consumed
        assert values[:3] == [0.5, 2.5, 4.5]
        assert trace.measured_rate("averages") == 1000
        # Measured occupancy never exceeds the analysed capacities.
        for name, mark in trace.buffer_high_water.items():
            assert mark <= simulation.buffers[name].capacity

    def test_run_until_sink_count(self, quickstart_sized):
        result, sizing = quickstart_sized
        simulation = Simulation(
            result,
            quickstart_registry(),
            source_signals={"samples": [float(i) for i in range(10000)]},
            capacities=sizing.capacities,
        )
        simulation.run_until_sink_count("averages", 5, max_time=Fraction(1))
        assert len(simulation.sinks["averages"].consumed) >= 5

    def test_default_capacity_used_without_analysis(self, quickstart_compiled):
        simulation = Simulation(
            quickstart_compiled,
            quickstart_registry(),
            source_signals={"samples": [float(i) for i in range(1000)]},
            capacities={},
            default_capacity=8,
        )
        trace = simulation.run(Fraction(1, 20))
        assert len(simulation.sinks["averages"].consumed) > 0

    def test_trace_summary_renders(self, quickstart_sized):
        result, sizing = quickstart_sized
        simulation = Simulation(
            result,
            quickstart_registry(),
            source_signals={"samples": [0.0] * 1000},
            capacities=sizing.capacities,
        )
        trace = simulation.run(Fraction(1, 20))
        text = trace.summary()
        assert "endpoint events" in text
        assert "samples" in text
