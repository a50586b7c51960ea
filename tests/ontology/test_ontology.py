"""Tests for the triple store, SPARQL subset, and HPC ontology baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knowledge import build_mlperf_table, build_plp_catalog
from repro.ontology import HPCOntology, SparqlError, Triple, TripleStore, parse_query, run_query


@pytest.fixture(scope="module")
def store():
    s = TripleStore()
    s.assert_fact("hpc:e1", "hpc:language", "C/C++")
    s.assert_fact("hpc:e1", "hpc:baseline", "CodeBERT")
    s.assert_fact("hpc:e1", "hpc:dataset", "POJ-104")
    s.assert_fact("hpc:e2", "hpc:language", "Java")
    s.assert_fact("hpc:e2", "hpc:baseline", "CodeBERT")
    s.assert_fact("hpc:e2", "hpc:dataset", "Bugs2Fix")
    return s


@pytest.fixture(scope="module")
def ontology():
    return HPCOntology(build_plp_catalog(), build_mlperf_table())


class TestTripleStore:
    def test_add_dedup(self):
        s = TripleStore()
        s.assert_fact("a", "b", "c")
        s.assert_fact("a", "b", "c")
        assert len(s) == 1

    def test_match_all_wildcards(self, store):
        assert len(list(store.match())) == 6

    def test_match_sp(self, store):
        hits = list(store.match("hpc:e1", "hpc:dataset"))
        assert hits == [Triple("hpc:e1", "hpc:dataset", "POJ-104")]

    def test_match_po(self, store):
        subs = {t.subject for t in store.match(None, "hpc:baseline", "CodeBERT")}
        assert subs == {"hpc:e1", "hpc:e2"}

    def test_match_exact_and_miss(self, store):
        assert list(store.match("hpc:e1", "hpc:language", "C/C++"))
        assert not list(store.match("hpc:e1", "hpc:language", "Rust"))

    def test_match_sp_and_po_second_entry(self, store):
        assert {t.obj for t in store.match("hpc:e2", "hpc:dataset")} == {"Bugs2Fix"}
        subs = {t.subject for t in store.match(None, "hpc:language", "Java")}
        assert subs == {"hpc:e2"}

    def test_match_s_only_p_only_o_only(self, store):
        assert len(list(store.match(subject="hpc:e1"))) == 3
        assert len(list(store.match(predicate="hpc:dataset"))) == 2
        assert len(list(store.match(obj="CodeBERT"))) == 2

    def test_match_so(self, store):
        preds = {t.predicate for t in store.match("hpc:e1", None, "POJ-104")}
        assert preds == {"hpc:dataset"}


class TestSparql:
    def test_single_pattern(self, store):
        rows = run_query(store, 'SELECT ?d WHERE { ?e hpc:dataset ?d . }')
        assert {r["?d"] for r in rows} == {"POJ-104", "Bugs2Fix"}

    def test_join(self, store):
        rows = run_query(
            store,
            'SELECT ?d WHERE { ?e hpc:language "C/C++" . '
            '?e hpc:baseline "CodeBERT" . ?e hpc:dataset ?d . }',
        )
        assert rows == [{"?d": "POJ-104"}]

    def test_multi_select(self, store):
        rows = run_query(
            store, 'SELECT ?e ?d WHERE { ?e hpc:dataset ?d . ?e hpc:language "Java" . }'
        )
        assert rows == [{"?e": "hpc:e2", "?d": "Bugs2Fix"}]

    def test_no_solutions(self, store):
        assert run_query(store, 'SELECT ?d WHERE { ?e hpc:language "Rust" . ?e hpc:dataset ?d . }') == []

    def test_trailing_dot_optional(self, store):
        rows = run_query(store, 'SELECT ?d WHERE { ?e hpc:dataset ?d }')
        assert len(rows) == 2

    def test_parse_errors(self):
        for bad in (
            "FETCH ?x WHERE { a b c }",
            "SELECT WHERE { a b c }",
            "SELECT ?x { a b c }",
            "SELECT ?x WHERE { a b }",
            "SELECT ?x WHERE { a b c",
            "SELECT ?x WHERE { }",
            "SELECT ?x WHERE { a b c . }",  # ?x unbound
        ):
            with pytest.raises(SparqlError):
                parse_query(bad)

    def test_literal_with_spaces(self, store):
        s = TripleStore()
        s.assert_fact("hpc:m", "hpc:software", "MXNet NVIDIA Release 23.04")
        rows = run_query(
            s, 'SELECT ?e WHERE { ?e hpc:software "MXNet NVIDIA Release 23.04" . }'
        )
        assert rows == [{"?e": "hpc:m"}]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("pq"),
                              st.sampled_from("xyz")), min_size=0, max_size=20))
    def test_single_pattern_matches_bruteforce(self, triples):
        s = TripleStore(Triple(*t) for t in triples)
        rows = run_query(s, "SELECT ?s WHERE { ?s p ?o . }")
        expected = {t[0] for t in triples if t[1] == "p"}
        assert {r["?s"] for r in rows} == expected


class TestHPCOntology:
    def test_listing3_plp_answer(self, ontology):
        q = ("What kind of dataset can be used for code translation tasks if the "
             "source language is Java and the target language is C#?")
        assert ontology.answer(q) == "CodeTrans"

    def test_listing4_mlperf_answer(self, ontology):
        q = ("What is the System if the Accelerator used is NVIDIA H100-SXM5-80GB "
             "and the Software used is MXNet NVIDIA Release 23.04?")
        assert ontology.answer(q) == "dgxh100_n64"

    def test_table1_style_question(self, ontology):
        q = "What kind of dataset can be used if the language is C/C++ and the baseline is CodeBERT?"
        assert ontology.answer(q) == "POJ-104"

    def test_unknown_shape_returns_none(self, ontology):
        assert ontology.answer("Tell me something interesting about GPUs.") is None

    def test_paraphrase_fails_without_template(self, ontology):
        # The defining limitation: rephrased questions are unanswerable.
        q = "Which corpus would you recommend when translating Java into C#?"
        assert ontology.answer(q) is None

    def test_system_field_template(self, ontology):
        q = "What is the Accelerator if the system is dgxh100_n64?"
        assert ontology.answer(q) == "NVIDIA H100-SXM5-80GB"

    def test_raw_sparql_access(self, ontology):
        rows = ontology.query(
            'SELECT ?d WHERE { ?e hpc:sourceLanguage "Java" . '
            '?e hpc:targetLanguage "C#" . ?e hpc:dataset ?d . }'
        )
        assert {r["?d"] for r in rows} == {"CodeTrans"}
