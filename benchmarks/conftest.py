"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_fig*`` module reproduces one figure / experiment of the paper
(its docstring names the figure and the claim it checks).
Each benchmark both *measures* the analysis step with pytest-benchmark and
*prints* the rows/series the corresponding figure reports, so running

    pytest benchmarks/ --benchmark-only -s

regenerates the full set of reproduced results.
"""

from __future__ import annotations

import pytest

from repro.apps.pal_decoder import PalDecoderApp



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
