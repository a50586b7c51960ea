"""Tests for the C and Fortran front ends and the access analysis."""

import pytest

from repro.openmp import (
    Assign, AtomicStmt, Barrier, BinOp, CParseError, CriticalSection,
    FortranParseError, Idx, IfStmt, Loop, Num, ParallelRegion, SingleSection,
    Var, collect_accesses, parse_c, parse_fortran,
)
from repro.openmp.analysis import Affine, affine_of
from repro.openmp.ast_nodes import walk
from repro.openmp.lexer import tokenize


C_RACE = """
int i, n;
double a[100], b[100];
#pragma omp parallel for
for (i = 1; i < 100; i++) {
  a[i] = a[i-1] + b[i];
}
"""

C_REDUCTION = """
int i;
double sum, x[64];
#pragma omp parallel for reduction(+:sum)
for (i = 0; i < 64; i++) {
  sum += x[i];
}
"""

F_RACE = """
integer :: i
real :: a(100), b(100)
!$omp parallel do
do i = 2, 100
  a(i) = a(i-1) + b(i)
end do
!$omp end parallel do
"""

F_CRITICAL = """
integer :: i
real :: s, x(50)
!$omp parallel do
do i = 1, 50
!$omp critical
  s = s + x(i)
!$omp end critical
end do
!$omp end parallel do
"""


class TestCParser:
    def test_decls(self):
        prog = parse_c(C_RACE)
        assert {s.name for s in prog.scalars} == {"i", "n"}
        assert {a.name: a.size for a in prog.arrays} == {"a": 100, "b": 100}
        assert prog.language == "C/C++"

    def test_loop_structure(self):
        prog = parse_c(C_RACE)
        loop = prog.body.stmts[0]
        assert isinstance(loop, Loop)
        assert loop.var == "i" and loop.step == 1 and not loop.inclusive
        assert loop.pragma is not None and loop.pragma.kind == "parallel for"

    def test_body_assign(self):
        loop = parse_c(C_RACE).body.stmts[0]
        assign = loop.body.stmts[0]
        assert isinstance(assign, Assign)
        assert assign.target == Idx("a", Var("i"))
        assert isinstance(assign.expr, BinOp)

    def test_compound_assign(self):
        loop = parse_c(C_REDUCTION).body.stmts[0]
        assign = loop.body.stmts[0]
        assert assign.op == "+" and assign.target == Var("sum")

    def test_atomic(self):
        src = """
int i;
double s, x[10];
#pragma omp parallel for
for (i = 0; i < 10; i++) {
  #pragma omp atomic
  s += x[i];
}
"""
        loop = parse_c(src).body.stmts[0]
        assert isinstance(loop.body.stmts[0], AtomicStmt)

    def test_critical_and_barrier(self):
        src = """
int i;
double s;
#pragma omp parallel
{
  #pragma omp critical
  {
    s += 1;
  }
  #pragma omp barrier
  s = s * 1;
}
"""
        region = parse_c(src).body.stmts[0]
        assert isinstance(region, ParallelRegion)
        assert isinstance(region.body.stmts[0], CriticalSection)
        assert isinstance(region.body.stmts[1], Barrier)

    def test_single_nowait(self):
        src = """
double s;
#pragma omp parallel
{
  #pragma omp single nowait
  s = 1;
}
"""
        region = parse_c(src).body.stmts[0]
        single = region.body.stmts[0]
        assert isinstance(single, SingleSection) and single.nowait

    def test_if_else(self):
        src = """
int i;
double a[10];
#pragma omp parallel for
for (i = 0; i < 10; i++) {
  if (i % 2 == 0) {
    a[i] = 1;
  } else {
    a[i] = 2;
  }
}
"""
        loop = parse_c(src).body.stmts[0]
        stmt = loop.body.stmts[0]
        assert isinstance(stmt, IfStmt) and stmt.else_body is not None

    def test_step_loop(self):
        src = """
int i;
double a[100];
#pragma omp parallel for
for (i = 0; i < 100; i += 2) {
  a[i] = 0;
}
"""
        loop = parse_c(src).body.stmts[0]
        assert loop.step == 2

    def test_comments_and_includes_ignored(self):
        src = """
#include <omp.h>
// a comment
int i; /* inline */
double a[4];
for (i = 0; i < 4; i++) { a[i] = i; }
"""
        prog = parse_c(src)
        assert isinstance(prog.body.stmts[0], Loop)

    def test_lines_after_multiline_comment(self):
        """Lines after a multi-line block comment keep their numbers, so
        tokens and parse errors name their real source lines."""
        tokens = tokenize("/* a\n b\n c */\nint x;", "C/C++")
        assert [(t.text, t.line) for t in tokens] == [("int", 4), ("x", 4), (";", 4)]
        with pytest.raises(CParseError, match="^line 5: expected identifier"):
            parse_c("/* a\n b\n c */\nint i;\nint ;")

    def test_directive_runs_past_multiline_comment(self):
        """A block comment reads as one space, as in C, so a directive
        continues past a comment that spans lines."""
        src = (
            "int i;\ndouble a[8];\n#pragma omp parallel /* a\n b */ for\n"
            "for (i = 0; i < 8; i++) { a[i] = i; }\n"
        )
        loop = parse_c(src).body.stmts[0]
        assert loop.pragma.kind == "parallel for"
        assert tokenize(src, "C/C++")[-1].line == 5

    def test_errors(self):
        with pytest.raises(CParseError):
            parse_c("int i;\nfor (i = 0; j < 3; i++) { }")  # wrong cond var
        with pytest.raises(CParseError):
            parse_c("int i;\nfor (i = 0; i < 3; i--) { }")  # bad increment
        with pytest.raises(CParseError):
            parse_c("#pragma omp parallel for\nint x;")  # pragma not on a loop
        with pytest.raises(CParseError):
            parse_c("int i\n")  # missing semicolon


class TestFortranParser:
    def test_decls_case_insensitive(self):
        prog = parse_fortran(F_RACE)
        assert {s.name for s in prog.scalars} == {"i"}
        assert {a.name: a.size for a in prog.arrays} == {"a": 100, "b": 100}
        assert prog.language == "Fortran"

    def test_do_loop_inclusive(self):
        loop = parse_fortran(F_RACE).body.stmts[0]
        assert isinstance(loop, Loop)
        assert loop.inclusive and loop.lo == Num(2)
        assert loop.pragma.kind == "parallel for"  # normalised from 'parallel do'

    def test_critical_block(self):
        loop = parse_fortran(F_CRITICAL).body.stmts[0]
        crit = loop.body.stmts[0]
        assert isinstance(crit, CriticalSection)
        assert isinstance(crit.body.stmts[0], Assign)

    def test_one_line_if(self):
        src = """
integer :: i
real :: a(10)
do i = 1, 10
  if (i > 5) a(i) = 0
end do
"""
        loop = parse_fortran(src).body.stmts[0]
        assert isinstance(loop.body.stmts[0], IfStmt)

    def test_block_if_else(self):
        src = """
integer :: i
real :: a(10)
do i = 1, 10
  if (i > 5) then
    a(i) = 1
  else
    a(i) = 2
  end if
end do
"""
        loop = parse_fortran(src).body.stmts[0]
        stmt = loop.body.stmts[0]
        assert isinstance(stmt, IfStmt) and stmt.else_body is not None

    def test_stride(self):
        src = """
integer :: i
real :: a(100)
do i = 1, 100, 4
  a(i) = 0
end do
"""
        assert parse_fortran(src).body.stmts[0].step == 4

    def test_atomic(self):
        src = """
integer :: i
real :: s, x(10)
!$omp parallel do
do i = 1, 10
!$omp atomic
  s = s + x(i)
end do
"""
        loop = parse_fortran(src).body.stmts[0]
        assert isinstance(loop.body.stmts[0], AtomicStmt)

    def test_errors(self):
        with pytest.raises(FortranParseError):
            parse_fortran("integer :: i\ndo i = 1, 10\n  a(i) = 0\n")  # missing end do
        with pytest.raises(FortranParseError):
            parse_fortran("!$omp end parallel do\n")  # unmatched end
        with pytest.raises(FortranParseError):
            parse_fortran("!$omp parallel do\ninteger :: i\n")  # not a do loop


class TestAffine:
    def test_linear_forms(self):
        assert affine_of(Var("i"), "i") == Affine(1, 0)
        assert affine_of(BinOp("+", Var("i"), Num(3)), "i") == Affine(1, 3)
        assert affine_of(BinOp("-", Var("i"), Num(1)), "i") == Affine(1, -1)
        assert affine_of(BinOp("*", Num(2), Var("i")), "i") == Affine(2, 0)
        assert affine_of(BinOp("+", BinOp("*", Num(2), Var("i")), Num(1)), "i") == Affine(2, 1)

    def test_non_affine(self):
        assert affine_of(BinOp("%", Var("i"), Num(2)), "i") is None
        assert affine_of(BinOp("*", Var("i"), Var("i")), "i") is None
        assert affine_of(Idx("idx", Var("i")), "i") is None
        assert affine_of(Var("j"), "i") is None

    def test_affine_eval(self):
        assert Affine(2, 3).at(5) == 13


class TestAccessAnalysis:
    def test_race_loop_accesses(self):
        loop = parse_c(C_RACE).body.stmts[0]
        acc = collect_accesses(loop)
        writes = [a for a in acc if a.is_write and a.is_array]
        reads = [a for a in acc if not a.is_write and a.is_array]
        assert any(a.array == "a" and a.affine == Affine(1, 0) for a in writes)
        assert any(a.array == "a" and a.affine == Affine(1, -1) for a in reads)

    def test_compound_reads_target(self):
        loop = parse_c(C_REDUCTION).body.stmts[0]
        acc = collect_accesses(loop)
        sum_reads = [a for a in acc if a.scalar == "sum" and not a.is_write]
        sum_writes = [a for a in acc if a.scalar == "sum" and a.is_write]
        assert sum_reads and sum_writes

    def test_critical_context(self):
        loop = parse_fortran(F_CRITICAL).body.stmts[0]
        acc = collect_accesses(loop)
        s_writes = [a for a in acc if a.scalar == "s" and a.is_write]
        assert all(a.in_critical for a in s_writes)

    def test_atomic_context(self):
        src = """
int i;
double s, x[10];
#pragma omp parallel for
for (i = 0; i < 10; i++) {
  #pragma omp atomic
  s += x[i];
}
"""
        loop = parse_c(src).body.stmts[0]
        acc = collect_accesses(loop)
        assert all(a.in_atomic for a in acc if a.scalar == "s")

    def test_one_pragma_loop_with_affine_subscripts(self):
        loops = [s for s in walk(parse_c(C_RACE).body) if isinstance(s, Loop) and s.pragma]
        assert len(loops) == 1
        assert loops[0].pragma.kind == "parallel for"
        arrays = [a for a in collect_accesses(loops[0]) if a.is_array]
        assert arrays and all(a.affine is not None for a in arrays)

    def test_indirect_subscript_has_no_affine_form(self):
        src = """
int i;
int idx[100];
double a[100];
#pragma omp parallel for
for (i = 0; i < 100; i++) {
  a[idx[i]] = 1;
}
"""
        (loop,) = [s for s in walk(parse_c(src).body) if isinstance(s, Loop) and s.pragma]
        (write,) = [a for a in collect_accesses(loop) if a.array == "a"]
        assert write.affine is None and isinstance(write.index_expr, Idx)
