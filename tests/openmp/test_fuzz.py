"""Robustness fuzzing: the front ends must either parse or raise their
own error types — never crash with foreign exceptions or hang."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openmp import CParseError, FortranParseError, parse_c, parse_fortran
from repro.openmp.lexer import BLOCK_COMMENT_RE, LexError
from repro.openmp.pragmas import PragmaError

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
