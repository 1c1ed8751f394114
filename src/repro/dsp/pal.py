"""Synthetic PAL-like composite signal.

The paper's case study decodes a broadcast PAL signal sampled at 6.4 MS/s by
an analog RF front-end -- hardware and data we do not have.  As a substitute
this module synthesises a composite baseband signal
with the two properties the decoder exercises:

* a *video band* occupying the low part of the spectrum (a sum of slowly
  varying tones standing in for luminance content), and
* an *audio carrier* at a configurable normalised frequency, amplitude
  modulated by a low-frequency audio tone.

The decoder's splitter separates exactly these two bands: ``LPF_V`` keeps the
video band, ``Mix_A`` shifts the audio carrier to zero frequency where the
``LPF``/``SRC_A`` chain extracts the audio tone.  The tests verify that the
decoded audio contains the modulating tone and that the video output retains
the video-band energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.runtime.sources import PeriodicStimulus


@dataclass(frozen=True)
class PALSignalConfig:
    """Parameters of the synthetic composite signal.

    All frequencies are *normalised* (cycles per sample at the RF sampling
    rate), so the same configuration works for the full-rate 6.4 MS/s setting
    and for the scaled-down simulation settings.
    """

    #: normalised frequencies of the video-band tones and their amplitudes
    video_tones: Sequence[float] = (0.01, 0.035, 0.06)
    video_amplitudes: Sequence[float] = (1.0, 0.6, 0.3)
    #: normalised frequency of the audio carrier
    audio_carrier: float = 0.35
    #: normalised frequency of the audio modulation tone
    audio_tone: float = 0.0008
    audio_depth: float = 0.8
    audio_carrier_amplitude: float = 0.5
    noise_amplitude: float = 0.01
    seed: int = 20140712


def synthesize_composite(config: PALSignalConfig, count: int) -> np.ndarray:
    """Generate *count* samples of the composite signal."""
    n = np.arange(count)
    signal = np.zeros(count, dtype=float)
    for frequency, amplitude in zip(config.video_tones, config.video_amplitudes):
        signal += amplitude * np.cos(2.0 * math.pi * frequency * n)
    modulation = 1.0 + config.audio_depth * np.cos(2.0 * math.pi * config.audio_tone * n)
    signal += (
        config.audio_carrier_amplitude
        * modulation
        * np.cos(2.0 * math.pi * config.audio_carrier * n)
    )
    if config.noise_amplitude > 0:
        rng = np.random.default_rng(config.seed)
        signal += config.noise_amplitude * rng.standard_normal(count)
    return signal


class PALSignalGenerator:
    """An endless iterator over composite samples (used by the RF source)."""

    def __init__(self, config: PALSignalConfig | None = None, *, block: int = 4096) -> None:
        self.config = config or PALSignalConfig()
        self.block = block
        self._buffer: List[float] = []
        self._offset = 0

    def __iter__(self) -> Iterator[float]:
        return self

    def __next__(self) -> float:
        if not self._buffer:
            samples = synthesize_composite_at(self.config, self._offset, self.block)
            self._offset += self.block
            self._buffer = list(samples)
        return self._buffer.pop(0)


def synthesize_composite_at(config: PALSignalConfig, start: int, count: int) -> np.ndarray:
    """Generate samples ``start .. start+count`` of the composite signal
    (phase-continuous with :func:`synthesize_composite`)."""
    n = np.arange(start, start + count)
    signal = np.zeros(count, dtype=float)
    for frequency, amplitude in zip(config.video_tones, config.video_amplitudes):
        signal += amplitude * np.cos(2.0 * math.pi * frequency * n)
    modulation = 1.0 + config.audio_depth * np.cos(2.0 * math.pi * config.audio_tone * n)
    signal += (
        config.audio_carrier_amplitude
        * modulation
        * np.cos(2.0 * math.pi * config.audio_carrier * n)
    )
    if config.noise_amplitude > 0:
        rng = np.random.default_rng(config.seed + start)
        signal += config.noise_amplitude * rng.standard_normal(count)
    return signal


def composite_period(config: Optional[PALSignalConfig] = None) -> int:
    """Samples per exact period of the deterministic part of the signal.

    Every tone argument is ``2*pi*f*n`` with ``f`` a decimal rational
    ``p/q``; the sum of tones repeats bit for bit after ``lcm`` of the
    denominators (5000 samples for the default configuration)."""
    config = config or PALSignalConfig()
    period = 1
    for frequency in (*config.video_tones, config.audio_carrier, config.audio_tone):
        period = math.lcm(period, Fraction(str(float(frequency))).denominator)
    return period


def periodic_composite_stimulus(
    config: Optional[PALSignalConfig] = None, *, period: Optional[int] = None
) -> PeriodicStimulus:
    """One period of the composite signal as a declared cyclic stimulus.

    The deterministic part (tones + modulated carrier) is exactly periodic
    in :func:`composite_period` samples; the dither noise is not, so the
    one precomputed block freezes the first period's noise and cycles it --
    spectrally equivalent at ``noise_amplitude`` 0.01, and *declared*, which
    is what lets a simulation fast-forward the RF source value-exactly
    instead of draining an opaque generator (:class:`PALSignalGenerator`,
    kept for streaming use)."""
    config = config or PALSignalConfig()
    count = period if period is not None else composite_period(config)
    block = synthesize_composite(config, count)
    return PeriodicStimulus([float(sample) for sample in block])


def dominant_frequency(signal: Sequence[float]) -> float:
    """The normalised frequency with the most energy (DC excluded)."""
    data = np.asarray(list(signal), dtype=float)
    if data.size < 4:
        return 0.0
    data = data - data.mean()
    spectrum = np.abs(np.fft.rfft(data * np.hanning(data.size)))
    freqs = np.fft.rfftfreq(data.size)
    index = int(np.argmax(spectrum[1:])) + 1
    return float(freqs[index])
