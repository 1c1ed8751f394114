"""Modal audio applications.

Two small applications exercising the *modal* behaviour the paper motivates
(control statements selecting modes of the application while the temporal
analysis stays valid):

* :data:`MUTE_OIL_SOURCE` -- an audio pipeline whose sequential module decides
  per block whether to emit the processed value or silence (an ``if``/``else``
  mode inside one streaming loop).  This is the Fig. 4 pattern: the guarded
  assignments become unconditionally executing tasks whose bodies stay
  guarded.
* :data:`TWO_MODE_OIL_SOURCE` -- a module with **two while-loops** executed in
  alternation (a calibration mode and a normal mode), the Fig. 3 / Fig. 9
  pattern: each loop becomes its own CTA component and both access the source
  and the sink so the periodic constraints hold regardless of which mode is
  active and of when mode transitions happen.

Both applications come with function registries and helpers so the examples,
tests and the conservativeness benchmark (E10) can compile, analyse and
simulate them under arbitrary mode sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compiler import CompilationResult, compile_program
from repro.runtime.functions import FunctionRegistry
from repro.runtime.sources import PeriodicStimulus, Stimulus

#: Default mode schedule of the two-mode application (calibrate 3, process 5).
DEFAULT_TWO_MODE_SCHEDULE: Tuple[Tuple[str, int], ...] = (("loop0", 3), ("loop1", 5))


def _fixed_signal(signal):
    """Capture a user-supplied signal once (list copy, or the stimulus)."""
    if signal is None:
        return None
    if isinstance(signal, Stimulus):
        return signal
    return list(signal)


def _run_signal(fixed, default):
    """A per-run signal: the default stimulus, a rewound copy of a fixed
    stimulus, or a fresh copy of a fixed list."""
    if fixed is None:
        return default()
    if isinstance(fixed, Stimulus):
        return fixed.fresh()
    return list(fixed)

# --------------------------------------------------------------------------
# Application 1: mute / emit modes inside one loop (Fig. 4 pattern)
# --------------------------------------------------------------------------

MUTE_OIL_SOURCE = """
mod seq Mute(sample sin, out sample sout){
  sample level;
  loop{
    level = block_level(sin:4);
    if (level < 0) { silence(out sout); }
    else { emit(level, out sout); }
  } while(1);
}

mod par {
  source sample mic = capture() @ 8 kHz;
  sink sample speaker = play() @ 2 kHz;
  Mute(mic, out speaker)
}
"""

#: Rates of the mute application.
MIC_RATE_HZ = 8000
SPEAKER_RATE_HZ = 2000


def mute_wcets(utilisation: float = 0.4) -> Dict[str, Fraction]:
    """Response times: the loop fires at 2 kHz (4 mic samples per iteration)."""
    loop_period = Fraction(1, SPEAKER_RATE_HZ)
    budget = loop_period * Fraction(utilisation).limit_denominator(100)
    return {
        "block_level": budget / 3,
        "silence": budget / 3,
        "emit": budget / 3,
    }


def mute_registry() -> FunctionRegistry:
    """Executable functions of the mute pipeline."""
    registry = FunctionRegistry()
    registry.register(
        "block_level",
        lambda samples: sum(samples) / len(samples),
        description="average level of a 4-sample block (negative = bad reception)",
        stateless=True,
    )
    registry.register("silence", lambda: 0.0, description="emit silence", stateless=True)
    registry.register(
        "emit", lambda level: level, description="pass the level through", stateless=True
    )
    return registry


def default_mute_signal() -> Stimulus:
    """Default stimulus: good reception / bad reception alternating per 20 ms,
    declared as an endless :class:`PeriodicStimulus` (the old helper returned
    100 repetitions of the same 320-sample block as a finite list)."""
    return PeriodicStimulus([1.0] * 160 + [-1.0] * 160)


def mute_program(utilisation: float = 0.4, signal: Optional[Sequence[float]] = None):
    """The mute pipeline as a :class:`repro.api.Program`."""
    from repro.api.program import Program

    fixed = _fixed_signal(signal)
    return Program.from_source(
        MUTE_OIL_SOURCE,
        name="modal_mute",
        function_wcets=mute_wcets(utilisation),
        registry=mute_registry,
        signals=lambda: {"mic": _run_signal(fixed, default_mute_signal)},
        params={"utilisation": utilisation},
    )


def compile_mute() -> CompilationResult:
    return compile_program(MUTE_OIL_SOURCE, function_wcets=mute_wcets())


# --------------------------------------------------------------------------
# Application 2: two while-loop modes (Fig. 3 / Fig. 9 pattern)
# --------------------------------------------------------------------------

TWO_MODE_OIL_SOURCE = """
mod seq TwoMode(sample sin, out sample sout){
  loop{
    calibrate(sin:2, out sout:1);
  } while(in_calibration());
  loop{
    process(sin:2, out sout:1);
  } while(1);
}

mod par {
  source sample adc = sample_adc() @ 4 kHz;
  sink sample dac = drive_dac() @ 2 kHz;
  TwoMode(adc, out dac)
}
"""

ADC_RATE_HZ = 4000
DAC_RATE_HZ = 2000


def two_mode_wcets(utilisation: float = 0.4) -> Dict[str, Fraction]:
    loop_period = Fraction(1, DAC_RATE_HZ)
    budget = loop_period * Fraction(utilisation).limit_denominator(100)
    return {"calibrate": budget, "process": budget, "in_calibration": Fraction(0)}


def two_mode_registry() -> FunctionRegistry:
    registry = FunctionRegistry()
    registry.register(
        "calibrate",
        lambda samples: sum(samples) / len(samples) + 100.0,
        description="calibration mode: offset output marks the mode",
        stateless=True,
    )
    registry.register(
        "process",
        lambda samples: sum(samples) / len(samples),
        description="normal processing mode",
        stateless=True,
    )
    registry.register(
        "in_calibration", lambda: False, description="mode predicate", stateless=True
    )
    return registry


def default_two_mode_signal() -> Stimulus:
    """Default stimulus: a repeating 16-step ramp, declared as an endless
    :class:`PeriodicStimulus` (the old helper returned the same values as a
    finite 100000-entry list)."""
    return PeriodicStimulus([float(i) for i in range(16)])


def two_mode_program(
    utilisation: float = 0.4,
    signal: Optional[Sequence[float]] = None,
    mode_schedule: Sequence[Tuple[str, int]] = DEFAULT_TWO_MODE_SCHEDULE,
):
    """The two-mode pipeline as a :class:`repro.api.Program`.

    ``mode_schedule`` sets the *default* schedule; a run can override it via
    ``run(..., mode_schedules={"TwoMode": [...]})`` without recompiling.
    """
    from repro.api.program import Program

    fixed = _fixed_signal(signal)
    return Program.from_source(
        TWO_MODE_OIL_SOURCE,
        name="modal_two_mode",
        function_wcets=two_mode_wcets(utilisation),
        registry=two_mode_registry,
        signals=lambda: {"adc": _run_signal(fixed, default_two_mode_signal)},
        mode_schedules={"TwoMode": list(mode_schedule)},
        params={"utilisation": utilisation, "mode_schedule": tuple(mode_schedule)},
    )


def compile_two_mode() -> CompilationResult:
    return compile_program(TWO_MODE_OIL_SOURCE, function_wcets=two_mode_wcets())
