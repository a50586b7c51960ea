"""A line-at-a-time OpenMP directive finder, the parity oracle for
:func:`repro.scan.extractor.directive_lines`.

It splits the text at ``\\n`` and matches each line against an anchored
pattern, where the extractor runs one search for the sentinel over the
whole text and checks what comes before it on its line."""

from __future__ import annotations

import re

from repro.utils.languages import FORTRAN

C_DIRECTIVE = re.compile(r"^\s*#\s*pragma\s+omp\b(.*)$", re.IGNORECASE)
F_DIRECTIVE = re.compile(r"^\s*!\$omp\b(.*)$", re.IGNORECASE)


def reference_directive_lines(text: str, language: str) -> list[tuple[int, str]]:
    """1-based line numbers and bodies of every OpenMP directive."""
    rx = F_DIRECTIVE if language == FORTRAN else C_DIRECTIVE
    out: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = rx.match(line)
        if m:
            out.append((lineno, m.group(1).strip()))
    return out
