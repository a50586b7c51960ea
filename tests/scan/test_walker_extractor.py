"""Tests for the tree walker and the kernel extractor."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.drb import DRBSuite
from repro.scan.extractor import (
    _c_comment_free,
    _c_function_spans,
    _lines,
    directive_lines,
    extract_kernels,
    line_count,
)
from repro.scan.walker import SourceFile, walk_tree

from support.c_blanking_oracle import reference_c_comment_free, reference_c_function_spans
from support.directive_oracle import reference_directive_lines

RACY_C = (
    "int i;\n"
    "double y[32], x[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
)

REAL_WORLD_C = """\
#include <stdio.h>
#include <omp.h>

static void saxpy(int n, float a, float *x, float *y) {
  #pragma omp parallel for
  for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i];
}

void serial_helper(int n) {
  printf("%d\\n", n);
}

double dot(int n, double *x, double *y) {
  double s = 0.0;
  #pragma omp parallel for reduction(+:s)
  for (int i = 0; i < n; i++) s += x[i] * y[i];
  return s;
}
"""

BRACES_IN_STRINGS_C = (
    '#include <stdio.h>\n'
    'void log_open(void) {\n'
    '  printf("{\\n");\n'
    '}\n'
    '\n'
    'void work(double *y) {\n'
    '  #pragma omp parallel for\n'
    '  for (int i = 1; i < 8; i++) y[i] = y[i-1];\n'
    '}\n'
)

#: Comments and literals that nest inside each other, span lines or
#: never close.
BLANKING_EDGES_C = [
    "/* { */ void f(void) {\n  /* a\n } */ int x; // }\n}\n",
    "/*/ { */ int h(void) { return 1; /*** } **/ }\n/* never closed {\n",
    "// /* {\nvoid k(void) {\n  int a = 1 /* 2 */ + '\\'';\n}\n",
]

#: Comment markers inside literals, with the spans they must give: the
#: literal starts first, so it holds the marker.
MARKERS_IN_LITERALS_C = {
    "block-open-in-string": (
        'void g(void) {\n  char *s = "/* {";\n  char c = \'}\';\n}\n/* */ */\n',
        [(1, 4)],
    ),
    "line-comment-in-string": (
        'void f(void) {\n  char *u = "http://x"; if (u) {\n    u++;\n  }\n}\n'
        "int h(void) {\n  return 0;\n}\n",
        [(1, 5), (6, 8)],
    ),
}

F_MODULE = """\
subroutine update(a, n)
  integer :: n, i
  real :: a(n)
  !$omp parallel do ordered
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
end subroutine update

subroutine untouched(n)
  integer :: n
end subroutine untouched
"""


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "racy.c").write_text(RACY_C)
    (tmp_path / "src" / "real.c").write_text(REAL_WORLD_C)
    (tmp_path / "mod.f90").write_text(F_MODULE)
    (tmp_path / "README.md").write_text("# not source\n")
    (tmp_path / "build").mkdir()
    (tmp_path / "build" / "gen.c").write_text(RACY_C)
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "x.c").write_text(RACY_C)
    return tmp_path


class TestWalker:
    def test_walk_filters_and_sorts(self, tree):
        files, stats = walk_tree(tree)
        assert [f.relpath for f in files] == ["mod.f90", "src/racy.c", "src/real.c"]
        assert stats.files_taken == 3

    def test_language_restriction_accepts_aliases(self, tree):
        files, _ = walk_tree(tree, languages=("f90",))
        assert [f.relpath for f in files] == ["mod.f90"]
        assert files[0].language == "Fortran"

    def test_single_file_root(self, tree):
        files, _ = walk_tree(tree / "src" / "racy.c")
        assert len(files) == 1 and files[0].relpath == "racy.c"

    def test_missing_root_raises(self, tree):
        with pytest.raises(FileNotFoundError):
            walk_tree(tree / "nope")

    def test_size_cap(self, tree):
        files, stats = walk_tree(tree, max_bytes=10)
        assert not files
        assert stats.skipped_size == 3


class TestExtractor:
    def test_whole_file_kernel_when_parseable(self):
        sf = SourceFile(path=None, relpath="k.c", language="C/C++", text=RACY_C)
        kernels = extract_kernels(sf)
        assert len(kernels) == 1
        k = kernels[0]
        assert k.parse_ok and k.source == RACY_C
        assert (k.start_line, k.end_line) == (1, 4)

    def test_no_directives_no_kernels(self):
        sf = SourceFile(path=None, relpath="s.c", language="C/C++",
                        text="int main(void) { return 0; }\n")
        assert extract_kernels(sf) == []

    def test_serial_microkernel_still_scanned(self):
        # DRB "Single thread execution" programs carry no directive but
        # are part of the suite; whole-file-parseable serial code counts.
        text = "int i;\ndouble z[64];\nfor (i = 3; i < 64; i++) {\n  z[i] = z[i-3] + 1;\n}\n"
        sf = SourceFile(path=None, relpath="ste.c", language="C/C++", text=text)
        (k,) = extract_kernels(sf)
        assert k.parse_ok and k.features == frozenset()

    def test_declaration_only_file_skipped(self):
        sf = SourceFile(path=None, relpath="decls.h", language="C/C++",
                        text="int n;\ndouble buf[16];\n")
        assert extract_kernels(sf) == []

    def test_function_context_extraction(self):
        sf = SourceFile(path=None, relpath="real.c", language="C/C++",
                        text=REAL_WORLD_C)
        kernels = extract_kernels(sf)
        assert len(kernels) == 2  # saxpy and dot; serial_helper has no omp
        saxpy, dot = kernels
        assert "static void saxpy" in saxpy.source
        assert "#pragma omp parallel for" in saxpy.source
        assert "serial_helper" not in saxpy.source
        assert "double dot" in dot.source and "reduction(+:s)" in dot.source
        assert not saxpy.parse_ok  # function syntax is outside the front end

    def test_fortran_unit_extraction_and_features(self):
        sf = SourceFile(path=None, relpath="mod.f90", language="Fortran",
                        text=F_MODULE)
        kernels = extract_kernels(sf)
        assert len(kernels) == 1
        k = kernels[0]
        assert k.source.startswith("subroutine update")
        assert "untouched" not in k.source
        assert "ordered" in k.features

    def test_target_feature_lifted(self):
        text = ("int i;\ndouble s;\ndouble z[64];\n"
                "#pragma omp target teams distribute parallel for map(tofrom: s)\n"
                "for (i = 0; i < 64; i++) {\n  s += z[i];\n}\n")
        sf = SourceFile(path=None, relpath="t.c", language="C/C++", text=text)
        (k,) = extract_kernels(sf)
        assert "target" in k.features

    def test_braces_in_string_literals_ignored(self):
        sf = SourceFile(path=None, relpath="s.c", language="C/C++",
                        text=BRACES_IN_STRINGS_C)
        (k,) = extract_kernels(sf)
        assert k.source.startswith("void work")
        assert "log_open" not in k.source
        assert (k.start_line, k.end_line) == (6, 9)

    def test_fortran_end_function_closes_unit(self):
        text = (
            "function f(n) result(r)\n"
            "  integer :: n, r\n"
            "  r = n\n"
            "end function f\n"
            "\n"
            "subroutine g(a, n)\n"
            "  integer :: n, i\n"
            "  real :: a(n)\n"
            "  !$omp parallel do\n"
            "  do i = 1, n\n"
            "    a(i) = a(i) + 1.0\n"
            "  end do\n"
            "end subroutine g\n"
        )
        sf = SourceFile(path=None, relpath="m.f90", language="Fortran", text=text)
        (k,) = extract_kernels(sf)
        assert k.source.startswith("subroutine g")
        assert "function f" not in k.source
        assert (k.start_line, k.end_line) == (6, 13)

    def test_form_feed_does_not_shift_lines(self):
        # Lines break at "\n" only, as compilers count them; a form feed
        # between functions is text on line 4, not a fifth line break.
        text = (
            "void a(void) {\n  int x = 0;\n}\n\x0c\n"
            "void b(double *y) {\n"
            "  #pragma omp parallel for\n"
            "  for (...) y[i] = y[i-1];\n"
            "}\n"
        )
        sf = SourceFile(path=None, relpath="ff.c", language="C/C++", text=text)
        (k,) = extract_kernels(sf)
        assert (k.start_line, k.end_line) == (5, 8)
        assert k.source == text[text.index("void b"):]
        assert directive_lines(text, "C/C++") == [(6, "parallel for")]

    @pytest.mark.parametrize("text, spans", [
        ("void f(void) {\n  a;\n}\n}\nint y;\n", [(1, 3)]),
        ("int x;\n}\nvoid f(void) {\n}\n", [(3, 4)]),
    ])
    def test_stray_closing_brace_ignored(self, text, spans):
        assert _c_function_spans(text) == spans
        assert reference_c_function_spans(text)[1] == spans

    def test_directive_lines(self):
        assert directive_lines(RACY_C, "C/C++") == [(3, "parallel for")]
        assert directive_lines(F_MODULE, "Fortran")[0][0] == 4

    def test_kernel_spec_bridge(self):
        sf = SourceFile(path=None, relpath="k.c", language="C/C++", text=RACY_C)
        (k,) = extract_kernels(sf)
        spec = k.to_spec()
        assert spec.id == "k.c:1" and spec.language == "C/C++"
        assert spec.parse().body is not None


class TestCBlankingParity:
    def test_matches_character_at_a_time_oracle(self):
        """The one-pass blanking and the brace and line lookups give
        the oracle's text and spans on every suite C file and fixture."""
        suite = DRBSuite.evaluation(seed=0)
        texts = [spec.source for spec in suite.specs if spec.language == "C/C++"]
        assert len(texts) == 177
        texts += [RACY_C, REAL_WORLD_C, BRACES_IN_STRINGS_C, *BLANKING_EDGES_C,
                  *(text for text, _ in MARKERS_IN_LITERALS_C.values())]
        for text in texts:
            comment_free, spans = reference_c_function_spans(text)
            assert _c_comment_free(text) == comment_free
            assert _c_function_spans(text) == spans

    @pytest.mark.parametrize("name", sorted(MARKERS_IN_LITERALS_C))
    def test_comment_marker_inside_literal_stays_inside(self, name):
        text, spans = MARKERS_IN_LITERALS_C[name]
        assert _c_function_spans(text) == spans
        assert reference_c_function_spans(text)[1] == spans

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=["/", "*", '"', "'", "\\", "{", "}", "\n", "a", ";"], max_size=40))
    def test_matches_oracle_on_marker_soup(self, text):
        """Texts made of the characters that open, close or escape a
        comment or literal, or change brace depth."""
        assert _c_comment_free(text) == reference_c_comment_free(text)
        assert _c_function_spans(text) == reference_c_function_spans(text)[1]


#: Alternative function headers under a conditional, each opening the
#: one shared body, and the span the first branch gives.
CONDITIONAL_HEADERS_C = {
    "if-else": (
        "#if A\nvoid f(void) {\n#else\nvoid f(int x) {\n#endif\n"
        "  #pragma omp parallel\n  a;\n}\n",
        [(2, 8)],
    ),
    "elif-nested": (
        "#ifdef A\nvoid f(void) {\n#elif B\n#  if C\nvoid f(int x) {\n#  endif\n"
        "#else\nvoid f(long y) {\n#endif\n  a;\n}\nvoid g(void) {\n}\n",
        [(2, 11), (12, 13)],
    ),
    "nested-in-first-branch": (
        "#if A\n# ifndef B\nvoid f(void) {\n# else\nvoid f(int x) {\n# endif\n"
        "#endif\n  a;\n}\n",
        [(3, 9)],
    ),
    "unmatched-else-and-endif": (
        "#else\nvoid f(void) {\n}\n#endif\n",
        [(2, 3)],
    ),
    "unterminated-if": (
        "#if A\nvoid f(void) {\n}\n#else\nvoid g(void) {\n",
        [(2, 3)],
    ),
}


class TestConditionalBranches:
    @pytest.mark.parametrize("name", sorted(CONDITIONAL_HEADERS_C))
    def test_only_the_first_branch_counts_braces(self, name):
        text, spans = CONDITIONAL_HEADERS_C[name]
        assert _c_function_spans(text) == spans
        assert reference_c_function_spans(text)[1] == spans

    def test_alternative_headers_give_one_function_kernel(self):
        text, _ = CONDITIONAL_HEADERS_C["if-else"]
        sf = SourceFile(path=None, relpath="alt.c", language="C/C++", text=text)
        (k,) = extract_kernels(sf)
        assert (k.start_line, k.end_line) == (2, 8)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([
        "#if A\n", "#ifdef B\n", " # ifndef C\n", "#elif D\n", "#else\n",
        "#endif\n", "#iffy\n", "#\telse\n", "{", "}", "\n", "a;", "/* #else */",
    ]), max_size=20).map("".join))
    def test_matches_oracle_on_conditional_soup(self, text):
        assert _c_function_spans(text) == reference_c_function_spans(text)[1]


#: Pieces that make or break a directive line: every whitespace the
#: line-at-a-time pattern allows around the sentinel, line breaks that
#: are not ``\n``, and mixed-case sentinels.
DIRECTIVE_PIECES = [
    "#", "!", "$", "pragma", "PRAGMA", "Pragma", "omp", "OMP", "oMp", "!$omp",
    "!$OMP", "#  PRAGMA omp", "# pragma\tomp", "pragma omp", "#\n", "pragma\n",
    " parallel", "target", "_x", "x",
    " ", "\t", "\r", "\x0c", "\v", "\x85", "\xa0", "\u2028", "\n", "\r\n",
]


class TestDirectiveParity:
    def test_matches_line_oracle_on_suite_files(self):
        suite = DRBSuite.evaluation(seed=0)
        assert len(suite.specs) == 343
        for spec in suite.specs:
            assert directive_lines(spec.source, spec.language) == \
                reference_directive_lines(spec.source, spec.language)
            assert line_count(spec.source) == len(_lines(spec.source))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(DIRECTIVE_PIECES), max_size=30).map("".join),
           st.sampled_from(["C/C++", "Fortran"]))
    # A sentinel split over two lines is no directive.
    @example("#\npragma omp for", "C/C++")
    @example("# pragma\n omp for", "C/C++")
    @example("x = 1; #pragma omp for\n", "C/C++")
    @example("\x85 !$OMP\tdo\x0c\n!$\nomp", "Fortran")
    def test_matches_line_oracle_on_generated_text(self, text, language):
        assert directive_lines(text, language) == reference_directive_lines(text, language)
        assert line_count(text) == len(_lines(text))
