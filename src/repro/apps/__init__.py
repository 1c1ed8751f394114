"""Ready-made OIL applications.

* :mod:`repro.apps.pal_decoder` -- the PAL video decoder case study
  (Sec. VI, Figs. 11/12),
* :mod:`repro.apps.rate_converter` -- the rate-conversion example of Fig. 2,
* :mod:`repro.apps.modal_audio` -- modal applications (if/else mute mode and
  a two-while-loop mode switcher),
* :mod:`repro.apps.producer_consumer` -- the minimal quickstart pipeline.

All applications are registered with the :mod:`repro.api` facade: build them
with ``Program.from_app("pal_decoder" | "rate_converter" | "modal_mute" |
"modal_two_mode" | "quickstart", **params)``.  The ``*_program`` builders
exported here are those registry entries; the ``compile_*`` helpers return
the bare compilation (no buffer sizing) for tests and benchmarks.
"""

from repro.apps.pal_decoder import (
    AUDIO_DECIMATION,
    AUDIO_FINAL_DECIMATION,
    AUDIO_RATE_HZ,
    RF_RATE_HZ,
    VIDEO_DOWN,
    VIDEO_RATE_HZ,
    VIDEO_UP,
    PalDecoderApp,
    pal_program,
    pal_source_text,
)
from repro.apps.rate_converter import (
    FIG2_OIL_SOURCE,
    Fig2Comparison,
    compare_specifications,
    compile_fig2,
    fig2_program,
    fig2_registry,
    fig2_task_graph,
    sequential_program_text,
    sequential_schedule,
)
from repro.apps.modal_audio import (
    DEFAULT_TWO_MODE_SCHEDULE,
    MUTE_OIL_SOURCE,
    TWO_MODE_OIL_SOURCE,
    compile_mute,
    compile_two_mode,
    mute_program,
    mute_registry,
    mute_wcets,
    two_mode_program,
    two_mode_registry,
    two_mode_wcets,
)
from repro.apps.producer_consumer import (
    QUICKSTART_OIL_SOURCE,
    quickstart_program,
    quickstart_registry,
    quickstart_wcets,
)

__all__ = [
    "AUDIO_DECIMATION",
    "AUDIO_FINAL_DECIMATION",
    "AUDIO_RATE_HZ",
    "RF_RATE_HZ",
    "VIDEO_DOWN",
    "VIDEO_RATE_HZ",
    "VIDEO_UP",
    "PalDecoderApp",
    "pal_program",
    "pal_source_text",
    "FIG2_OIL_SOURCE",
    "fig2_program",
    "DEFAULT_TWO_MODE_SCHEDULE",
    "mute_program",
    "two_mode_program",
    "quickstart_program",
    "Fig2Comparison",
    "compare_specifications",
    "compile_fig2",
    "fig2_registry",
    "fig2_task_graph",
    "sequential_program_text",
    "sequential_schedule",
    "MUTE_OIL_SOURCE",
    "TWO_MODE_OIL_SOURCE",
    "compile_mute",
    "compile_two_mode",
    "mute_registry",
    "mute_wcets",
    "two_mode_registry",
    "two_mode_wcets",
    "QUICKSTART_OIL_SOURCE",
    "quickstart_registry",
    "quickstart_wcets",
]
