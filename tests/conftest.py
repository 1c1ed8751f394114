"""Shared fixtures for the test suite.

Compilation and buffer sizing of the larger applications (PAL decoder,
modal pipelines) are comparatively expensive, so they are cached at session
scope; tests must not mutate the returned objects (tests that need to resize
buffers re-compile locally).
"""

from __future__ import annotations

import pytest

from repro.apps.modal_audio import compile_mute, compile_two_mode
from repro.apps.pal_decoder import PalDecoderApp
from repro.apps.producer_consumer import quickstart_program
from repro.apps.rate_converter import compile_fig2


@pytest.fixture(scope="session")
def pal_app() -> PalDecoderApp:
    return PalDecoderApp(scale=1000)


@pytest.fixture(scope="session")
def pal_compiled(pal_app):
    return pal_app.compile()


@pytest.fixture(scope="session")
def pal_sized(pal_app):
    result = pal_app.compile()
    sizing = result.size_buffers()
    return result, sizing


@pytest.fixture(scope="session")
def quickstart_compiled():
    return quickstart_program().compile()


@pytest.fixture(scope="session")
def quickstart_sized():
    result = quickstart_program().compile()
    sizing = result.size_buffers()
    return result, sizing


@pytest.fixture(scope="session")
def mute_sized():
    result = compile_mute()
    sizing = result.size_buffers()
    return result, sizing


@pytest.fixture(scope="session")
def two_mode_sized():
    result = compile_two_mode()
    sizing = result.size_buffers()
    return result, sizing


@pytest.fixture(scope="session")
def fig2_compiled():
    return compile_fig2()
