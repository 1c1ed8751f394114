#!/usr/bin/env python3
"""The PAL video decoder case study (Sec. VI, Figs. 11 and 12), through the
repro.api facade -- including a bounded-processor scenario sweep.

Compiles the Fig. 11 OIL program, derives the Fig. 12 CTA model, verifies
rates (6.4 MS/s RF input, 4 MS/s video output, 32 kHz audio output), sizes
the buffers, checks the audio/video synchronisation constraint and decodes a
synthetic RF signal in the discrete-event runtime, reporting the recovered
audio tone and the measured sink rates.  A :class:`repro.api.Sweep` then
re-runs the decoder on 1..4 processors (Fig. 4 scenario axis) on two worker
processes, with aggregated reporting.

All declared frequencies are divided by ``SCALE`` so the functional
simulation finishes in seconds of wall-clock time; the rate *ratios* (25,
10/16, 8) and hence the derived CTA model are identical to the full-rate
decoder.

Run with:  python examples/pal_decoder.py
"""

from fractions import Fraction

from repro.api import Program, Sweep
from repro.dsp import dominant_frequency
from repro.dsp.pal import PALSignalConfig
from repro.engine import BoundedProcessors

#: All rates divided by this factor for the functional simulation.
SCALE = 1000
#: Simulated time (seconds).
DURATION = Fraction(2)


def main() -> None:
    program = Program.from_app("pal_decoder", scale=SCALE)
    print("=== OIL program (Fig. 11, scaled) ===")
    print(program.source.strip())

    analysis = program.analyze()
    print("\n" + analysis.report())

    print(f"\n=== Simulation ({float(DURATION)} s of scaled time) ===")
    run = analysis.run(DURATION)
    print(run.summary())

    signal = PALSignalConfig()
    audio = run.sink("speakers")
    video = run.sink("screen")
    if len(audio) > 16:
        recovered = dominant_frequency(audio[8:])
        expected = signal.audio_tone * 25 * 8  # decimation by 200 overall
        print(f"recovered audio tone: {recovered:.4f} of the audio rate "
              f"(expected {expected:.4f})")
    if len(video) > 128:
        recovered = dominant_frequency(video[64:])
        expected = signal.video_tones[0] * 16 / 10
        print(f"dominant video tone:  {recovered:.4f} of the video rate "
              f"(expected {expected:.4f})")
    print("buffer high-water marks vs capacities:")
    for name, mark in sorted(run.trace.buffer_high_water.items()):
        print(f"  {name}: {mark} / {run.simulation.buffers[name].capacity}")

    print("\n=== Scenario sweep: decoding on 1..4 processors (Fig. 4 axis) ===")
    report = (
        Sweep(program=program, duration=Fraction(1, 4))
        .add_axis("scheduler", [BoundedProcessors(n) for n in (1, 2, 3, 4)])
        .run(executor="process", workers=2)
    )
    print(report.table(columns=[
        "scheduler", "deadline_misses", "completed_firings", "occupancy_ok",
    ]))
    speedups = [row["speedup"] for row in report.speedup_table()]
    print(f"throughput speedup vs 1 processor: {speedups}")


if __name__ == "__main__":
    main()
