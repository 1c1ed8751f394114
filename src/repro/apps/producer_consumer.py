"""A minimal downsampling pipeline used by the quickstart example and tests.

A 2 kHz sensor source feeds a sequential module that averages pairs of
samples and writes the result to a 1 kHz logging sink -- the smallest
meaningful multi-rate OIL program: one module, one loop, a 2:1 rate
conversion, a source, a sink and a latency constraint.

:func:`quickstart_program` packages the pipeline for the facade
(``Program.from_app("quickstart")``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.runtime.functions import FunctionRegistry
from repro.runtime.sources import RampStimulus, Stimulus

QUICKSTART_OIL_SOURCE = """
mod seq Downsample(int x, out int y){
  loop{
    average2(x:2, out y);
  } while(1);
}

mod par {
  source int samples = sensor() @ 2 kHz;
  sink int averages = log_value() @ 1 kHz;
  start averages 4 ms after samples;
  start averages 10 ms before samples;
  Downsample(samples, out averages)
}
"""

SENSOR_RATE_HZ = 2000
LOG_RATE_HZ = 1000


def quickstart_wcets(utilisation: float = 0.3) -> Dict[str, Fraction]:
    period = Fraction(1, LOG_RATE_HZ)
    return {"average2": period * Fraction(utilisation).limit_denominator(100)}


def quickstart_registry() -> FunctionRegistry:
    registry = FunctionRegistry()
    registry.register(
        "average2",
        lambda pair: sum(pair) / len(pair),
        description="average two consecutive sensor samples",
        stateless=True,
    )
    return registry


def default_signal() -> Stimulus:
    """The deterministic default stimulus: the integers, as floats.

    Declared as a :class:`RampStimulus` (value ``n`` is ``0.0 + n * 1.0``,
    computed by multiplication) -- an infinite stream replacing the old
    1e6-entry list, identical value for value over that prefix."""
    return RampStimulus(0.0, 1.0)


def quickstart_program(
    utilisation: float = 0.3, signal: Optional[Sequence[float]] = None
):
    """The quickstart pipeline as a :class:`repro.api.Program`."""
    from repro.api.program import Program

    if signal is None:
        fixed = None
    elif isinstance(signal, Stimulus):
        fixed = signal
    else:
        fixed = list(signal)
    return Program.from_source(
        QUICKSTART_OIL_SOURCE,
        name="quickstart",
        function_wcets=quickstart_wcets(utilisation),
        registry=quickstart_registry,
        signals=lambda: {
            "samples": (
                default_signal()
                if fixed is None
                else fixed.fresh() if isinstance(fixed, Stimulus) else list(fixed)
            )
        },
        params={"utilisation": utilisation},
    )
