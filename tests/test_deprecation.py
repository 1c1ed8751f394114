"""Every deprecated spelling must emit a ``DeprecationWarning`` naming its
replacement.

The warning -- with the *correct* replacement spelled out -- is the only
signpost users get, so each call site of
:func:`repro.util.deprecation.warn_deprecated` is pinned here.  The one left
is the bare-iterator source signal; the pre-facade per-app helpers are gone.
"""

import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.util.deprecation import warn_deprecated


def assert_single_deprecation(recorded, old, replacement):
    """Exactly one DeprecationWarning, naming both the alias and the
    facade replacement."""
    deprecations = [w for w in recorded if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1, [str(w.message) for w in recorded]
    message = str(deprecations[0].message)
    assert message == f"{old} is deprecated; use {replacement} instead"


class TestWarnDeprecated:
    def test_message_format_and_category(self):
        with pytest.warns(
            DeprecationWarning,
            match=re.escape("old_helper() is deprecated; use repro.api.New instead"),
        ):
            warn_deprecated("old_helper()", "repro.api.New", stacklevel=2)

    def test_only_call_site_is_the_bare_iterator_signal(self):
        package = Path(repro.__file__).parent
        callers = sorted(
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if "warn_deprecated(" in path.read_text(encoding="utf-8")
            and path.name != "deprecation.py"
        )
        assert callers == ["runtime/sources.py"]


class TestBareIteratorSignals:
    def test_as_stimulus_pins_bare_iterator_message(self):
        from repro.runtime.sources import as_stimulus

        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            as_stimulus(iter([1.0, 2.0]))
        assert_single_deprecation(
            recorded,
            "a bare-Iterator source signal",
            "repro.runtime.sources.GeneratorStimulus",
        )

    def test_source_driver_warns_once_per_bare_iterator_signal(self, quickstart_sized):
        result, sizing = quickstart_sized
        from repro.api import Program

        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            Program.from_app("quickstart").analyze().run(
                Fraction(1, 100), signals={"samples": iter([1.0] * 100)}
            )
        assert_single_deprecation(
            recorded,
            "a bare-Iterator source signal",
            "repro.runtime.sources.GeneratorStimulus",
        )
