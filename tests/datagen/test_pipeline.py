"""Tests for the quota-driven collection pipeline (Tables 2 and 3)."""

import json

import pytest

from repro.datagen import (
    TABLE2_TARGETS,
    TABLE3_TARGETS,
    DataCollectionPipeline,
    InstructionRecord,
    TeacherConfig,
    TeacherLM,
)
from repro.datagen.pipeline import ALL_DRB_CATEGORIES, NORACE_CATEGORIES, RACE_CATEGORIES
from repro.knowledge import build_knowledge_base
from repro.knowledge.corpus import KnowledgeChunk


def make_race_chunks(n_per_key=6):
    """Synthetic datarace chunks without depending on the DRB package."""
    chunks = []
    for lang in ("C/C++", "Fortran"):
        for cat_i, cat in enumerate(ALL_DRB_CATEGORIES):
            label = "yes" if cat in RACE_CATEGORIES else "no"
            for i in range(n_per_key):
                code = f"// {lang} {cat} sample {i}\nfor (i=0;i<n;i++) a{i}[i] = {cat_i};"
                chunks.append(
                    KnowledgeChunk(
                        text=code,
                        source="drb",
                        task="datarace",
                        category=cat,
                        facts={
                            "code": code, "label": label, "language": lang,
                            "id": f"{lang}-{cat_i}-{i}",
                        },
                    )
                )
    return chunks


class TestTable2Collection:
    def test_scaled_collection_hits_quotas(self):
        kb = build_knowledge_base(plp_entries_per_category=8, mlperf_rows=24)
        pipe = DataCollectionPipeline()
        bundle = pipe.collect_task1(kb, scale=0.1)
        counts = bundle.counts_by_category()
        for cat, target in TABLE2_TARGETS.items():
            assert counts.get(cat, 0) == max(1, round(target * 0.1)), cat
        assert not bundle.shortfalls

    def test_percentages_sum_to_100_per_block(self):
        kb = build_knowledge_base(plp_entries_per_category=8, mlperf_rows=24)
        bundle = DataCollectionPipeline().collect_task1(kb, scale=0.08)
        plp = bundle.percentages("plp")
        ml = bundle.percentages("mlperf")
        assert sum(plp.values()) == pytest.approx(100.0)
        assert sum(ml.values()) == pytest.approx(100.0)
        assert len(plp) == 13 and len(ml) == 5

    def test_defective_teacher_still_fills_quota(self):
        kb = build_knowledge_base(plp_entries_per_category=8, mlperf_rows=24)
        teacher = TeacherLM(TeacherConfig(
            duplicate_rate=0.1, malformed_rate=0.1, overlong_rate=0.08,
            short_answer_rate=0.05, hallucination_rate=0.05,
        ))
        bundle = DataCollectionPipeline(teacher=teacher).collect_task1(kb, scale=0.08)
        assert not bundle.shortfalls
        assert bundle.stats.rejected() > 0  # the filter actually worked

    def test_records_have_metadata(self):
        kb = build_knowledge_base(plp_entries_per_category=8, mlperf_rows=24)
        bundle = DataCollectionPipeline().collect_task1(kb, scale=0.03)
        for r in bundle.records:
            assert r.task in {"plp", "mlperf"}
            assert r.category
            assert r.instruction and r.output


class TestTable3Collection:
    def test_scaled_collection_balances_languages(self):
        chunks = make_race_chunks(n_per_key=8)
        bundle = DataCollectionPipeline().collect_task2(chunks, scale=0.04)
        counts = bundle.counts_by_language_category()
        for key, target in TABLE3_TARGETS.items():
            assert counts.get(key, 0) == max(1, round(target * 0.04)), key

    def test_labels_follow_categories(self):
        chunks = make_race_chunks(n_per_key=6)
        bundle = DataCollectionPipeline().collect_task2(chunks, scale=0.03)
        for r in bundle.records:
            if r.category in RACE_CATEGORIES:
                assert r.output == "yes"
            else:
                assert r.category in NORACE_CATEGORIES
                assert r.output == "no"

    def test_rejects_foreign_chunks(self):
        kb = build_knowledge_base()
        with pytest.raises(ValueError):
            DataCollectionPipeline().collect_task2(kb[:3])

    def test_shortfall_reported_when_pool_too_small(self):
        chunks = make_race_chunks(n_per_key=1)
        bundle = DataCollectionPipeline().collect_task2(chunks, scale=0.05)
        assert bundle.shortfalls  # 1 chunk per key cannot meet quota of ~5


class TestBundle:
    def test_merge_adds_stats_and_records(self):
        kb = build_knowledge_base(plp_entries_per_category=8, mlperf_rows=24)
        b1 = DataCollectionPipeline().collect_task1(kb, scale=0.02)
        b2 = DataCollectionPipeline().collect_task2(make_race_chunks(3), scale=0.01)
        merged = b1.merge(b2)
        assert len(merged) == len(b1) + len(b2)
        assert merged.stats.accepted == b1.stats.accepted + b2.stats.accepted

    def test_json_roundtrip(self):
        kb = build_knowledge_base(plp_entries_per_category=8, mlperf_rows=24)
        bundle = DataCollectionPipeline().collect_task1(kb, scale=0.02)
        back = [InstructionRecord.from_json(d) for d in json.loads(bundle.to_json())]
        assert back == bundle.records
