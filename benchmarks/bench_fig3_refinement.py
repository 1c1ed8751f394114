"""E2 / Fig. 3 -- Refinement of a modal module between a periodic source and
sink into a CTA model.

A module with two while-loops (unknown iteration counts p and q) sits between
a 1 kHz source and a 1 kHz sink.  The derived CTA model gives every loop
component access to both streams and enforces strict periodicity with the
transition-takes-one-period worst case, so the analysis guarantees the source
and sink deadlines regardless of which loop is active and when transitions
happen.  The benchmark derives the model, checks consistency, sizes the
buffers and verifies the result by simulating adversarial mode schedules.
"""

from fractions import Fraction

from _reporting import print_table

from repro.api import Analysis
from repro.apps.modal_audio import compile_two_mode, two_mode_program


def test_fig3_two_mode_analysis(benchmark):
    result = benchmark(compile_two_mode)
    consistency = result.check_consistency(assume_infinite_unsized=True)
    module = result.model.child("main").child("TwoMode")
    rows = [
        ["CTA components", sum(1 for _ in result.model.walk())],
        ["loop components in TwoMode", sum(1 for c in module.children.values() if c.kind == "while-loop")],
        ["consistent", consistency.consistent],
        ["source rate (adc)", f"{float(consistency.port_rates[result.source_ports['adc']]):g} Hz"],
        ["sink rate (dac)", f"{float(consistency.port_rates[result.sink_ports['dac']]):g} Hz"],
    ]
    print_table("Fig. 3: refinement of a two-mode module", ["quantity", "value"], rows)
    assert consistency.consistent


def test_fig3_periodicity_holds_for_any_mode_sequence(benchmark):
    result = compile_two_mode()
    sizing = result.size_buffers()

    def run_all():
        outcomes = []
        for schedule in [(("loop0", 1), ("loop1", 1)), (("loop0", 5), ("loop1", 2)), (("loop0", 2), ("loop1", 9))]:
            program = two_mode_program(mode_schedule=schedule)
            trace = Analysis(program, result, sizing=sizing).run(Fraction(1, 25)).trace
            outcomes.append((schedule, trace.deadline_miss_count(), float(trace.measured_rate("dac") or 0)))
        return outcomes

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "Fig. 3: source/sink deadlines under adversarial mode schedules",
        ["mode schedule (loop, iterations)", "deadline misses", "measured dac rate [Hz]"],
        [[str(s), misses, rate] for s, misses, rate in outcomes],
    )
    assert all(misses == 0 for _, misses, _ in outcomes)
