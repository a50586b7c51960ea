"""Tests for the Task-1 knowledge substrate (catalog, MLPerf table,
Figure-2 transforms, documents)."""

from repro.knowledge import (
    MLPERF_FIELDS,
    PLP_CATEGORIES,
    build_knowledge_base,
    build_mlperf_table,
    build_plp_catalog,
    slot_fill,
    attribute_concat,
)
from repro.knowledge.corpus import mlperf_chunk, plp_chunk
from repro.knowledge.plp_catalog import PLPEntry


class TestPLPCatalog:
    def test_thirteen_categories_covered(self):
        catalog = build_plp_catalog()
        assert {e.category for e in catalog} == set(PLP_CATEGORIES)
        for category in PLP_CATEGORIES:
            assert sum(e.category == category for e in catalog) >= 8

    def test_anchor_codetrans(self):
        catalog = build_plp_catalog()
        hits = [e for e in catalog if (e.source_language, e.target_language) == ("Java", "C#")]
        assert any(e.dataset == "CodeTrans" for e in hits)

    def test_anchor_poj104_codebert(self):
        catalog = build_plp_catalog()
        hits = [e for e in catalog if (e.language, e.baseline) == ("C/C++", "CodeBERT")]
        assert any(e.dataset == "POJ-104" for e in hits)

    def test_anchor_devign(self):
        catalog = build_plp_catalog()
        hits = [e for e in catalog if (e.category, e.language) == ("Defect detection", "C")]
        assert any(e.dataset == "Devign" for e in hits)

    def test_deterministic(self):
        assert build_plp_catalog(seed=3) == build_plp_catalog(seed=3)
        assert build_plp_catalog(seed=3) != build_plp_catalog(seed=4)

    def test_translation_entries_have_pairs(self):
        catalog = build_plp_catalog()
        translations = [e for e in catalog if e.category == "Code Translation"]
        assert translations
        for e in translations:
            assert e.source_language and e.target_language


class TestMLPerf:
    def test_anchor_row_present(self):
        table = build_mlperf_table()
        hits = [
            r for r in table
            if (r.accelerator, r.software)
            == ("NVIDIA H100-SXM5-80GB", "MXNet NVIDIA Release 23.04")
        ]
        assert len(hits) == 1 and hits[0].system == "dgxh100_n64"

    def test_row_count_and_uniqueness(self):
        table = build_mlperf_table(n_rows=30)
        assert len(table) == 30
        keys = {(r.system, r.software) for r in table}
        assert len(keys) == 30

    def test_fields_complete(self):
        for row in build_mlperf_table():
            for f in MLPERF_FIELDS:
                assert row.field(f)

    def test_deterministic(self):
        assert build_mlperf_table(seed=1) == build_mlperf_table(seed=1)


class TestFigure2Transforms:
    def test_slot_fill_matches_figure(self):
        entry = PLPEntry(
            "Defect detection", "Defect Detection", "Devign", "C", "CodeBERT", "Accuracy"
        )
        text = slot_fill(entry)
        assert 'A task called "Defect Detection"' in text
        assert '"Devign,"' in text
        assert "programming language employed is C" in text

    def test_attribute_concat(self):
        text = attribute_concat({"Task": "Code Repair", "Dataset Name": "Bugs2Fix"})
        assert text == "Task: Code Repair. Dataset Name: Bugs2Fix."

    def test_plp_chunk_facts_match_text(self):
        entry = build_plp_catalog()[0]
        chunk = plp_chunk(entry)
        assert chunk.facts["Dataset Name"] == entry.dataset
        assert entry.dataset in chunk.text

    def test_mlperf_chunk_contains_all_fields(self):
        row = build_mlperf_table()[0]
        chunk = mlperf_chunk(row)
        for f in MLPERF_FIELDS:
            assert row.field(f) in chunk.text


class TestKnowledgeBase:
    def test_contains_all_sources(self):
        kb = build_knowledge_base()
        sources = {c.source for c in kb}
        assert sources == {"plp-table", "mlperf-table", "paper"}

    def test_documents_at_least_forty_plp_papers(self):
        kb = build_knowledge_base()
        plp_papers = [c for c in kb if c.source == "paper" and c.task == "plp"]
        assert len(plp_papers) >= 40

    def test_chunks_nonempty_and_grounded(self):
        for chunk in build_knowledge_base():
            assert chunk.text.strip()
            assert chunk.facts
            assert chunk.task in {"plp", "mlperf"}
