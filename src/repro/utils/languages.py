"""Canonical language names and the alias table shared by every entry
point (CLI, server, detector registry, and the scan subsystem).

The system internally uses exactly two canonical names — ``"C/C++"``
and ``"Fortran"`` — but users type all sorts of spellings (``c``,
``cpp``, ``f90``, ...).  Normalising in one place keeps the accepted
set consistent everywhere and gives a single, clear error for unknown
languages.
"""

from __future__ import annotations

import os
from pathlib import Path

C_CPP = "C/C++"
FORTRAN = "Fortran"

#: Every canonical language, in stable presentation order.
LANGUAGES: tuple[str, ...] = (C_CPP, FORTRAN)

_ALIASES: dict[str, str] = {
    # C / C++ family
    "c": C_CPP, "c++": C_CPP, "cc": C_CPP, "cpp": C_CPP, "cxx": C_CPP,
    "c/c++": C_CPP, "c/cpp": C_CPP, "c_cpp": C_CPP, "h": C_CPP, "hpp": C_CPP,
    # Fortran family
    "f": FORTRAN, "f77": FORTRAN, "f90": FORTRAN, "f95": FORTRAN,
    "f03": FORTRAN, "f08": FORTRAN, "for": FORTRAN, "ftn": FORTRAN,
    "fortran": FORTRAN, "fortran90": FORTRAN,
}
_ALIASES.update({lang.lower(): lang for lang in LANGUAGES})

#: File extensions the scanner recognises, mapped to canonical names.
EXTENSIONS: dict[str, str] = {
    ".c": C_CPP, ".h": C_CPP, ".cc": C_CPP, ".cpp": C_CPP,
    ".cxx": C_CPP, ".hpp": C_CPP,
    ".f": FORTRAN, ".for": FORTRAN, ".f77": FORTRAN, ".f90": FORTRAN,
    ".f95": FORTRAN, ".f03": FORTRAN, ".f08": FORTRAN,
}


class UnknownLanguageError(ValueError):
    """Raised for a language name outside the alias table."""


def normalize_language(name: str) -> str:
    """Map any accepted spelling (case-insensitive) to its canonical
    language name, raising :class:`UnknownLanguageError` otherwise."""
    if not isinstance(name, str):
        raise UnknownLanguageError(f"language must be a string, got {type(name).__name__}")
    canonical = _ALIASES.get(name.strip().lower())
    if canonical is None:
        known = ", ".join(sorted(_ALIASES))
        raise UnknownLanguageError(
            f"unknown language {name!r}; accepted names (case-insensitive): {known}"
        )
    return canonical


def language_for_path(path: str | Path) -> str | None:
    """Canonical language for a source file path, or ``None`` when the
    extension is not a recognised C/C++ or Fortran source extension."""
    return EXTENSIONS.get(os.path.splitext(path)[1].lower())
