"""Robustness fuzzing: the front ends must either parse or raise their
own error types — never crash with foreign exceptions or hang — and the
scan extractor must never raise at all."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drb import DRBSuite
from repro.openmp import CParseError, FortranParseError, parse_c, parse_fortran
from repro.openmp.lexer import BLOCK_COMMENT_RE, LexError
from repro.openmp.pragmas import PragmaError
from repro.scan.extractor import extract_kernels
from repro.scan.walker import SourceFile

from support.c_blanking_oracle import LAZY_BLOCK_COMMENT

C_OK = (CParseError, LexError, PragmaError)
F_OK = (FortranParseError, LexError, PragmaError)

c_fragments = st.lists(
    st.sampled_from([
        "int i;", "double a[8];", "#pragma omp parallel for", "#pragma omp atomic",
        "for (i = 0; i < 8; i++)", "{", "}", "a[i] = 1;", "s += a[i];",
        "if (i % 2 == 0)", "else", "#pragma omp critical", "#pragma omp barrier",
        ";", "a[i-1]", "= 3;",
    ]),
    min_size=1, max_size=12,
)

f_fragments = st.lists(
    st.sampled_from([
        "integer :: i", "real :: a(8)", "!$omp parallel do", "!$omp end parallel do",
        "do i = 1, 8", "end do", "a(i) = 1", "s = s + a(i)", "!$omp atomic",
        "if (i > 2) then", "end if", "else", "!$omp critical", "!$omp end critical",
    ]),
    min_size=1, max_size=12,
)


class TestFuzzC:
    @settings(max_examples=120, deadline=None)
    @given(c_fragments)
    def test_fragments_parse_or_raise_cleanly(self, fragments):
        src = "\n".join(fragments)
        try:
            parse_c(src)
        except C_OK:
            pass  # clean rejection is fine

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text(self, text):
        try:
            parse_c(text)
        except C_OK:
            pass


class TestFuzzFortran:
    @settings(max_examples=120, deadline=None)
    @given(f_fragments)
    def test_fragments_parse_or_raise_cleanly(self, fragments):
        src = "\n".join(fragments)
        try:
            parse_fortran(src)
        except F_OK:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_arbitrary_text(self, text):
        try:
            parse_fortran(text)
        except F_OK:
            pass


class TestBlockCommentPattern:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=["/", "*", "a", " ", "\n"], max_size=40))
    def test_unrolled_pattern_matches_lazy_pattern(self, text):
        """Friedl's unrolled pattern finds the same comments as the lazy
        DOTALL one on strings made of the characters that matter."""
        def spans(pattern):
            return [m.span() for m in pattern.finditer(text)]

        assert spans(BLOCK_COMMENT_RE) == spans(LAZY_BLOCK_COMMENT)


@lru_cache(maxsize=1)
def _suite_sources() -> tuple[tuple[str, str], ...]:
    return tuple((s.language, s.source) for s in DRBSuite.evaluation(seed=0).specs)


def _assert_extracts(text: str, language: str) -> None:
    """Extraction returns, and every kernel lies within the file."""
    sf = SourceFile(path=None, relpath="fuzz", language=language, text=text)
    n_lines = max(1, len(text.splitlines()))
    for k in extract_kernels(sf):
        assert 1 <= k.start_line <= k.end_line <= n_lines, (k.start_line, k.end_line, n_lines)


#: Pieces that steer the extractor: directives in both dialects, braces,
#: comment and literal markers, Fortran unit starts and ends.
hostile_pieces = st.lists(
    st.one_of(
        st.sampled_from([
            "#pragma omp parallel for", "!$omp parallel do", "{", "}", "/*", "*/", "//",
            '"', "'", "\\", "\n", "\r", "void f(void) ", "subroutine s(a)",
            "end subroutine s", "end", "program p", "function g(x)", "x[i] = x[i-1];",
        ]),
        st.text(max_size=12),
    ),
    max_size=24,
)


class TestFuzzExtractor:
    @settings(max_examples=150, deadline=None)
    @given(hostile_pieces, st.sampled_from(["C/C++", "Fortran"]))
    def test_hostile_text_never_raises(self, pieces, language):
        _assert_extracts("".join(pieces), language)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_truncated_suite_files_never_raise(self, data):
        language, source = data.draw(st.sampled_from(_suite_sources()))
        cut = data.draw(st.integers(0, len(source)))
        _assert_extracts(source[:cut], language)
