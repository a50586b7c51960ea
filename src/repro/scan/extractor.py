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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.drb.generator import KernelSpec
from repro.openmp.ast_nodes import Program
from repro.scan.walker import SourceFile
from repro.utils.languages import FORTRAN

#: A directive from its sentinel to the end of its line; only
#: whitespace may come before the sentinel on its line (checked by
#: :func:`directive_lines`).  ``[^\S\n]`` is ``\s`` without ``\n``, so a
#: match never runs into the next line.
_C_DIRECTIVE_RE = re.compile(r"#[^\S\n]*pragma[^\S\n]+omp\b([^\n]*)", re.IGNORECASE)
_F_DIRECTIVE_RE = re.compile(r"!\$omp\b([^\n]*)", re.IGNORECASE)
#: Directive words that detector ``supports`` predicates key on.
_FEATURE_WORDS = ("target", "ordered")

_F_UNIT_START_RE = re.compile(
    r"^\s*(?:(?:pure|elemental|recursive)\s+)*"
    r"(?:program|subroutine|(?:[\w()=*,\s]+\s+)?function)\s+(\w+)",
    re.IGNORECASE,
)
_F_UNIT_END_RE = re.compile(r"^\s*end(?:\s+(?:program|subroutine|function)\b.*|\s*)$",
                            re.IGNORECASE)
#: One line with its ``\n``: lines break at ``\n`` only, as C and
#: Fortran compilers count them, never at ``str.splitlines``' form
#: feeds, lone ``\r`` or Unicode breaks.
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+")


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


def _lines(text: str) -> list[str]:
    """``text``'s lines, each with its ``\n`` (see ``_LINE_RE``)."""
    return _LINE_RE.findall(text)


def directive_lines(text: str, language: str) -> list[tuple[int, str]]:
    """1-based line numbers and bodies of every OpenMP directive (a line
    is whitespace, the sentinel, then the body; lines break at ``\n``)."""
    rx = _F_DIRECTIVE_RE if language == FORTRAN else _C_DIRECTIVE_RE
    out: list[tuple[int, str]] = []
    lineno, counted = 1, 0
    for m in rx.finditer(text):
        start = m.start()
        line_start = text.rfind("\n", 0, start) + 1
        if line_start == start or text[line_start:start].isspace():
            lineno += text.count("\n", counted, start)
            counted = start
            out.append((lineno, m.group(1).strip()))
    return out


def line_count(text: str) -> int:
    """How many lines ``_lines(text)`` has, without building them."""
    n = text.count("\n")
    return n + 1 if text and not text.endswith("\n") else n


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


def whole_file_kernel(
    file: SourceFile, end_line: int, features: frozenset, program: Program | None = None
) -> ExtractedKernel:
    """The file as one tier-1 kernel, lines 1..``end_line``.  Only for a
    file known to parse: ``program`` is None when that knowledge comes
    from a cached verdict, which also stored the line count and
    features, so a cache hit never rescans the text."""
    return ExtractedKernel(
        file=file.relpath, language=file.language,
        start_line=1, end_line=end_line, source=file.text,
        features=features, parse_ok=True, program=program,
    )


def extract_kernels(file: SourceFile) -> list[ExtractedKernel]:
    """All scannable kernels of one source file.

    Files without any OpenMP directive are skipped — unless the whole
    file parses in the microkernel dialect (a benchmark-style serial
    kernel, e.g. DRB's "Single thread execution" programs), which is
    scanned as one kernel so suite trees get full coverage."""
    program = _parse(file.text, file.language)
    directives = directive_lines(file.text, file.language)
    if program is not None:
        return [whole_file_kernel(file, max(1, line_count(file.text)),
                                  _features(directives), program)]
    if not directives:
        return []
    lines = _lines(file.text)
    n_lines = max(1, len(lines))

    spans = (_fortran_unit_spans(file.text) if file.language == FORTRAN
             else _c_function_spans(file.text))
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


#: A C block comment, in Friedl's unrolled form (*Mastering Regular
#: Expressions*, ch. 6): the same matches as the lazy ``/\*.*?\*/``
#: under DOTALL without its per-character backtracking.
BLOCK_COMMENT_RE = re.compile(r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/")
#: Block comment, ``//`` comment, string literal, char literal: one
#: left-to-right scan, so whichever starts first wins and a marker
#: inside another stays inside it.
_C_BLANK_RE = re.compile("|".join((
    BLOCK_COMMENT_RE.pattern,
    r"//[^\n]*",
    r'"(?:\\.|[^"\\\n])*"',
    r"'(?:\\.|[^'\\\n])*'",
)))
_BRACE_RE = re.compile(r"[{}]")
#: A preprocessor line with its backslash continuations (comments
#: already blanked): its braces belong to a macro, not to the code.
_PP_LINE_RE = re.compile(r"^[^\S\n]*#(?:[^\n]*\\\n)*[^\n]*", re.MULTILINE)
#: A conditional-compilation directive line (comments already blanked).
_PP_CONDITIONAL_RE = re.compile(
    r"^[^\S\n]*#[^\S\n]*(if|ifdef|ifndef|elif|elifdef|elifndef|else|endif)\b",
    re.MULTILINE,
)
_NEWLINE_RE = re.compile(r"\n")


def _blank(m: re.Match) -> str:
    """The match with every character but ``\n`` turned into a space."""
    return "\n".join(" " * len(line) for line in m.group().split("\n"))


def _c_comment_free(text: str) -> str:
    """``text`` with comments and string/char literals blanked in place,
    keeping every line and position, so a brace inside one cannot
    perturb the depth tracking."""
    return _C_BLANK_RE.sub(_blank, text)


def _c_function_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) line spans of top-level ``{...}`` blocks, extended
    upward to the block's header line (the function signature).  A
    ``}`` with no open block (a stray brace at depth 0) is ignored, and
    so is every brace of a preprocessor line (``#define BEGIN {``) or of
    an ``#elif``/``#else`` branch (see :func:`_alternative_branches`)."""
    comment_free = _c_comment_free(text)
    line_of = _line_index(comment_free)
    skipped = _alternative_branches(comment_free)
    skip_starts = [start for start, _ in skipped]
    spans: list[tuple[int, int]] = []
    depth = 0
    open_pos = 0
    for m in _BRACE_RE.finditer(_PP_LINE_RE.sub(_blank, comment_free)):
        pos = m.start()
        if skipped:
            i = bisect_right(skip_starts, pos) - 1
            if i >= 0 and pos < skipped[i][1]:
                continue
        if m.group() == "{":
            if depth == 0:
                open_pos = pos
            depth += 1
        elif depth:
            depth -= 1
            if depth == 0:
                start_line = _header_line(comment_free, open_pos, line_of)
                spans.append((start_line, line_of(pos)))
    return spans


def _alternative_branches(text: str) -> list[tuple[int, int]]:
    """``[start, end)`` offsets of the text under an ``#elif`` or
    ``#else`` branch of a preprocessor conditional, nested ones
    included.  Only the first branch of each conditional counts for
    braces, as ctags does: alternative function headers that each open
    a ``{`` before one shared body would otherwise never close.  A
    range runs from the start of the line that leaves the first branch
    to the start of the line that comes back (its ``#endif``)."""
    ranges: list[tuple[int, int]] = []
    in_alternative: list[bool] = []  # per open conditional
    skip_from: int | None = None
    for m in _PP_CONDITIONAL_RE.finditer(text):
        word = m.group(1)
        if word.startswith("if"):
            in_alternative.append(False)
        elif not in_alternative:
            continue  # an #elif/#else/#endif with no #if
        elif word == "endif":
            in_alternative.pop()
        else:
            in_alternative[-1] = True
        skipping = any(in_alternative)
        if skipping and skip_from is None:
            skip_from = m.start()
        elif not skipping and skip_from is not None:
            ranges.append((skip_from, m.start()))
            skip_from = None
    if skip_from is not None:
        ranges.append((skip_from, len(text)))
    return ranges


def _line_index(text: str):
    """``line_of(pos)``: the 1-based line holding offset ``pos``."""
    newlines = [m.start() for m in _NEWLINE_RE.finditer(text)]
    return lambda pos: bisect_left(newlines, pos) + 1


def _header_line(text: str, open_pos: int, line_of) -> int:
    """The line where the block's header starts: walk back over the
    signature (up to the previous ``;``, ``}``, preprocessor line, or
    blank line)."""
    brace_line = line_of(open_pos)
    stop = max(text.rfind(";", 0, open_pos), text.rfind("}", 0, open_pos))
    header = text[stop + 1 : open_pos]
    offset = stop + 1
    first = brace_line
    for line in _lines(header):
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
    for lineno, line in enumerate(text.split("\n"), start=1):
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
