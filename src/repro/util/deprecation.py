"""Deprecation warnings for legacy call spellings.

:func:`warn_deprecated` emits the standard ``DeprecationWarning`` pointing at
the replacement (visible under ``python -W default`` and in pytest runs,
silent by default in applications -- the usual Python deprecation
contract).  Its one caller is the bare-iterator source signal in
:func:`repro.runtime.sources.as_stimulus`, which also records the
``undeclared-source`` run warning.
"""

from __future__ import annotations

import warnings


def warn_deprecated(old: str, replacement: str, *, stacklevel: int = 3) -> None:
    """Warn that *old* is deprecated in favour of *replacement*."""
    warnings.warn(
        f"{old} is deprecated; use {replacement} instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
