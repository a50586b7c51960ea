"""Tests for OpenMP directive/clause parsing."""

import pytest

from repro.openmp import parse_pragma_text
from repro.openmp.pragmas import PragmaError


class TestDirectiveKinds:
    def test_parallel_for(self):
        p = parse_pragma_text("parallel for")
        assert p.kind == "parallel for"
        assert p.kind.split() == ["parallel", "for"]

    def test_fortran_do_normalised(self):
        assert parse_pragma_text("parallel do").kind == "parallel for"
        assert parse_pragma_text("target teams distribute parallel do").kind == (
            "target teams distribute parallel for"
        )

    def test_simd_kinds(self):
        assert parse_pragma_text("parallel for simd").kind == "parallel for simd"
        assert parse_pragma_text("simd").kind == "simd"

    def test_target_flag(self):
        assert parse_pragma_text("target teams distribute parallel for").is_target
        assert not parse_pragma_text("parallel for").is_target

    def test_standalone_kinds(self):
        for k in ("barrier", "atomic", "master", "ordered"):
            assert parse_pragma_text(k).kind == k

    def test_unknown_directive(self):
        with pytest.raises(PragmaError):
            parse_pragma_text("banana split")
        with pytest.raises(PragmaError):
            parse_pragma_text("")


class TestClauses:
    def test_private_firstprivate_merge(self):
        p = parse_pragma_text("parallel for private(tmp, j) firstprivate(x)")
        assert p.private_vars == {"tmp", "j", "x"}

    def test_shared(self):
        p = parse_pragma_text("parallel for shared(a, b)")
        assert p.clause_args("shared") == ("a", "b")

    def test_reduction(self):
        p = parse_pragma_text("parallel for reduction(+:sum)")
        assert p.reductions == {"sum": "+"}

    def test_reduction_multiple_vars(self):
        p = parse_pragma_text("parallel for reduction(max:hi, lo)")
        assert p.reductions == {"hi": "max", "lo": "max"}

    def test_reduction_bad_operator(self):
        with pytest.raises(PragmaError):
            parse_pragma_text("parallel for reduction(@:sum)")
        with pytest.raises(PragmaError):
            parse_pragma_text("parallel for reduction(sum)")

    def test_nowait_num_threads(self):
        p = parse_pragma_text("for nowait num_threads(4)")
        assert p.nowait and p.num_threads == 4

    def test_critical_name(self):
        p = parse_pragma_text("critical (update)")
        assert p.kind == "critical"
        assert p.clause_args("name") == ("update",)

    def test_map_clause(self):
        p = parse_pragma_text("target teams distribute parallel for map(tofrom: a, b)")
        assert p.clause_args("map") == ("tofrom", "a", "b")

    def test_schedule_collapse_safelen(self):
        p = parse_pragma_text("parallel for schedule(static) collapse(2) safelen(8)")
        assert p.clause_args("schedule") == ("static",)
        assert p.clause_args("collapse") == ("2",)
        assert p.clause_args("safelen") == ("8",)

    def test_unknown_clause_rejected(self):
        with pytest.raises(PragmaError):
            parse_pragma_text("parallel for wibble(3)")
