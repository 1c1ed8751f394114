"""Signal-processing kernels coordinated by the PAL decoder application.

* :mod:`repro.dsp.filters` -- FIR design and streaming filtering,
* :mod:`repro.dsp.resample` -- rational resampling and decimation,
* :mod:`repro.dsp.mixer` -- frequency mixing and spectral helpers,
* :mod:`repro.dsp.pal` -- the synthetic composite PAL-like signal that
  substitutes the paper's RF front-end.
"""

from repro.dsp.filters import StreamingFIR, block_convolve, design_lowpass
from repro.dsp.resample import Decimator, RationalResampler
from repro.dsp.mixer import Mixer, band_power, tone
from repro.dsp.pal import (
    PALSignalConfig,
    PALSignalGenerator,
    dominant_frequency,
    synthesize_composite,
    synthesize_composite_at,
)

__all__ = [
    "StreamingFIR",
    "block_convolve",
    "design_lowpass",
    "Decimator",
    "RationalResampler",
    "Mixer",
    "band_power",
    "tone",
    "PALSignalConfig",
    "PALSignalGenerator",
    "dominant_frequency",
    "synthesize_composite",
    "synthesize_composite_at",
]
