"""Kernel extraction: OpenMP regions plus their enclosing context.

Two tiers, matching what the rest of the system can do with the result:

1. **Whole-file kernels.**  If the file parses through the matching
   :mod:`repro.openmp` front end (the microkernel subset — exactly what
   ``repro export`` writes and what DataRaceBench-style files look
   like), the whole file is one kernel and every detector can run on
   it, tools included.

2. **Function-context kernels.**  Real-world files (functions, headers,
   arbitrary C/Fortran) fall back to a textual extraction: each OpenMP
   directive is attributed to its enclosing function (brace matching
   for C, ``subroutine``/``function``/``program`` … ``end`` spans for
   Fortran), and the function text becomes the kernel.  These kernels
   carry ``parse_ok=False``: the compiler-style tools report them as
   unsupported, while the LLM path — which only needs text — still
   scores them.

Directive *features* (``target``, ``ordered``) are lifted from the
pragma text so the tool ``supports`` predicates keep working on
scanned kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.drb.generator import KernelSpec
from repro.openmp.ast_nodes import Program
from repro.scan.walker import SourceFile
from repro.utils.languages import FORTRAN

_C_DIRECTIVE_RE = re.compile(r"^\s*#\s*pragma\s+omp\b(.*)$", re.IGNORECASE)
_F_DIRECTIVE_RE = re.compile(r"^\s*!\$omp\b(.*)$", re.IGNORECASE)
#: Directive words that detector ``supports`` predicates key on.
_FEATURE_WORDS = ("target", "ordered")

_F_UNIT_START_RE = re.compile(
    r"^\s*(?:(?:pure|elemental|recursive)\s+)*"
    r"(?:program|subroutine|(?:[\w()=*,\s]+\s+)?function)\s+(\w+)",
    re.IGNORECASE,
)
_F_UNIT_END_RE = re.compile(r"^\s*end(?:\s+(?:program|subroutine|function)\b.*|\s*)$",
                            re.IGNORECASE)


@dataclass(frozen=True)
class ExtractedKernel:
    """One scannable unit of one file."""

    file: str          # relpath of the owning file
    language: str
    start_line: int    # 1-based, inclusive
    end_line: int
    source: str
    features: frozenset
    #: The front end accepts the kernel, so the tools can run.
    parse_ok: bool
    #: The program the front end built, handed on so each kernel is
    #: parsed once; None when the text is outside the front end's
    #: dialect or only declares things, or when the kernel was rebuilt
    #: from a cached verdict without parsing.
    program: Program | None = field(default=None, compare=False, repr=False)

    @property
    def id(self) -> str:
        return f"{self.file}:{self.start_line}"

    def to_spec(self) -> KernelSpec:
        """Bridge into the detector interface (label unknown)."""
        return KernelSpec(
            id=self.id,
            language=self.language,
            category="Scanned",
            label="unknown",
            source=self.source,
            features=self.features,
            program=self.program,
        )


def directive_lines(text: str, language: str) -> list[tuple[int, str]]:
    """1-based line numbers and bodies of every OpenMP directive."""
    rx = _F_DIRECTIVE_RE if language == FORTRAN else _C_DIRECTIVE_RE
    out: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = rx.match(line)
        if m:
            out.append((lineno, m.group(1).strip()))
    return out


def _features(directives: list[tuple[int, str]]) -> frozenset:
    found = set()
    for _, body in directives:
        words = set(re.findall(r"[a-z_]+", body.lower()))
        found.update(w for w in _FEATURE_WORDS if w in words)
    return frozenset(found)


def _parse(text: str, language: str) -> Program | None:
    """The kernel's program, or None if the front end rejects the text
    or it only declares things (headers are not kernels)."""
    from repro.openmp import parse_c, parse_fortran

    try:
        if language == FORTRAN:
            program = parse_fortran(text)
        else:
            program = parse_c(text)
    except Exception:  # noqa: BLE001 - any front-end rejection
        return None
    return program if program.body.stmts else None


def whole_file_kernel(file: SourceFile, program: Program | None = None) -> ExtractedKernel:
    """The file as one tier-1 kernel: lines 1..n, features from every
    directive.  Only for a file known to parse — ``program`` is None
    when that knowledge comes from a cached verdict, not a parse."""
    return ExtractedKernel(
        file=file.relpath, language=file.language,
        start_line=1, end_line=max(1, len(file.text.splitlines())),
        source=file.text,
        features=_features(directive_lines(file.text, file.language)),
        parse_ok=True, program=program,
    )


def extract_kernels(file: SourceFile) -> list[ExtractedKernel]:
    """All scannable kernels of one source file.

    Files without any OpenMP directive are skipped — unless the whole
    file parses in the microkernel dialect (a benchmark-style serial
    kernel, e.g. DRB's "Single thread execution" programs), which is
    scanned as one kernel so suite trees get full coverage."""
    program = _parse(file.text, file.language)
    if program is not None:
        return [whole_file_kernel(file, program)]
    directives = directive_lines(file.text, file.language)
    if not directives:
        return []
    n_lines = max(1, len(file.text.splitlines()))

    spans = (_fortran_unit_spans(file.text) if file.language == FORTRAN
             else _c_function_spans(file.text))
    lines = file.text.splitlines(keepends=True)
    # Group directives by enclosing span; directives outside any span
    # fall back to the whole file.
    grouped: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for lineno, body in directives:
        span = next(((s, e) for s, e in spans if s <= lineno <= e), (1, n_lines))
        grouped.setdefault(span, []).append((lineno, body))
    kernels: list[ExtractedKernel] = []
    for (start, end), group in sorted(grouped.items()):
        source = "".join(lines[start - 1 : end])
        program = _parse(source, file.language)
        kernels.append(ExtractedKernel(
            file=file.relpath, language=file.language,
            start_line=start, end_line=end, source=source,
            features=_features(group), parse_ok=program is not None,
            program=program,
        ))
    return kernels


def _c_function_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) line spans of top-level ``{...}`` blocks, extended
    upward to the block's header line (the function signature)."""
    blank = lambda m: re.sub(r"[^\n]", " ", m.group())  # noqa: E731
    comment_free = re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)
    comment_free = re.sub(r"//[^\n]*", "", comment_free)
    # Blank string/char literals too: a brace inside "..." or '...'
    # must not perturb the depth tracking (positions are preserved).
    comment_free = re.sub(r"\"(?:\\.|[^\"\\\n])*\"", blank, comment_free)
    comment_free = re.sub(r"'(?:\\.|[^'\\\n])*'", blank, comment_free)
    line_of = _line_index(comment_free)
    spans: list[tuple[int, int]] = []
    depth = 0
    open_pos = 0
    for pos, ch in enumerate(comment_free):
        if ch == "{":
            if depth == 0:
                open_pos = pos
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
            if depth == 0:
                start_line = _header_line(comment_free, open_pos, line_of)
                spans.append((start_line, line_of(pos)))
    return spans


def _line_index(text: str):
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)

    def line_of(pos: int) -> int:
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    return line_of


def _header_line(text: str, open_pos: int, line_of) -> int:
    """The line where the block's header starts: walk back over the
    signature (up to the previous ``;``, ``}``, preprocessor line, or
    blank line)."""
    brace_line = line_of(open_pos)
    stop = max(text.rfind(";", 0, open_pos), text.rfind("}", 0, open_pos))
    header = text[stop + 1 : open_pos]
    offset = stop + 1
    first = brace_line
    for line in header.splitlines(keepends=True):
        if line.strip() and not line.lstrip().startswith("#"):
            first = line_of(offset)
            break
        offset += len(line)
    return min(first, brace_line)


def _fortran_unit_spans(text: str) -> list[tuple[int, int]]:
    """Top-level program-unit spans (program/subroutine/function)."""
    spans: list[tuple[int, int]] = []
    start: int | None = None
    depth = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        # END must win over START: "end function foo" would otherwise
        # match the typed-function-prefix branch of the START pattern.
        if _F_UNIT_END_RE.match(line):
            if depth > 0:
                depth -= 1
                if depth == 0 and start is not None:
                    spans.append((start, lineno))
                    start = None
        elif _F_UNIT_START_RE.match(line):
            if depth == 0:
                start = lineno
            depth += 1
    return spans
