"""System-level tests for the retrieval subsystem: the cached singleton
answerer, knowledge ingestion, and index persistence across restarts.

These touch only the tokenizer/knowledge stages (no pretraining or SFT),
so they stay fast.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.knowledge.corpus import KnowledgeChunk
from repro.retrieval import RetrievalAugmentedAnswerer
from repro.retrieval.store import journal_path

NEW_FACT_DOC = {
    "text": ("An MLPerf Training v5.0 submission. Submitter: TestVendor. "
             "System: quantumrack_q4. Processor: RISC-V Q900. "
             "Accelerator: TPU-v9-huge. Software: JAX 0.5.1."),
    "source": "post-build",
    "facts": {"System": "quantumrack_q4", "Accelerator": "TPU-v9-huge",
              "Software": "JAX 0.5.1"},
}

QUESTION = ("What is the System if the Accelerator used is TPU-v9-huge "
            "and the Software used is JAX 0.5.1?")


@pytest.fixture(scope="module")
def system():
    cfg = dataclasses.replace(SMALL_PRESET, use_cache=False)
    return HPCGPTSystem(cfg)


class TestSingleton:
    def test_answerer_is_cached(self, system):
        a = system.retrieval_answerer()
        b = system.retrieval_answerer()
        assert a is b and a.store is b.store

    def test_extra_chunks_append_instead_of_rebuild(self, system):
        rag = system.retrieval_answerer()
        n = len(rag.store)
        chunk = KnowledgeChunk(
            text="System: appended_sys. Accelerator: H200-NVL-141GB.",
            source="test", task="mlperf", category="System",
            facts={"System": "appended_sys", "Accelerator": "H200-NVL-141GB"},
        )
        rag2 = system.retrieval_answerer(extra_chunks=[chunk])
        assert rag2 is rag
        assert len(rag.store) == n + 1
        # Idempotent: re-passing the same chunk does not duplicate it.
        system.retrieval_answerer(extra_chunks=[chunk])
        assert len(rag.store) == n + 1

    def test_rebuild_discards_appended_chunks(self, system):
        rag = system.retrieval_answerer()
        baseline = len(system.knowledge_base)
        assert len(rag.store) > baseline  # previous test appended
        fresh = system.retrieval_answerer(rebuild=True)
        assert fresh is not rag
        assert len(fresh.store) == baseline


class TestIngestion:
    def test_index_documents_makes_fact_answerable(self, system):
        system.retrieval_answerer(rebuild=True)
        stats = system.index_documents([NEW_FACT_DOC])
        assert stats["documents"] == 1
        assert stats["added"] >= 1
        assert stats["index_size"] == len(system.knowledge_base) + stats["added"]
        ans = system.retrieval_answerer().answer(QUESTION)
        assert ans is not None and "quantumrack_q4" in ans

    def test_reingest_is_idempotent(self, system):
        before = system.retrieval_stats()["chunks"]
        stats = system.index_documents([NEW_FACT_DOC])
        assert stats["added"] == 0
        assert system.retrieval_stats()["chunks"] == before

    def test_raw_string_documents_accepted(self, system):
        stats = system.index_documents(
            ["A plain paragraph. Dataset Name: FreshCorpus-9. Language: Rust."]
        )
        assert stats["added"] >= 1

    def test_empty_document_rejected(self, system):
        with pytest.raises(ValueError):
            system.index_documents([{"text": "   "}])

    def test_retrieval_stats_shape(self, system):
        stats = system.retrieval_stats()
        assert set(stats) == {"chunks", "dim", "fingerprint"}
        assert stats["chunks"] == len(system.retrieval_answerer().store)
        assert stats["dim"] == system.tokenizer.vocab_size


class TestHybridAnswering:
    def test_retrieval_hit_skips_the_lm(self, system):
        """A question retrieval can answer must not build the LM."""
        system.index_documents([NEW_FACT_DOC])
        answers = system.answer_retrieval_batch([QUESTION])
        assert "quantumrack_q4" in answers[0]
        assert not system._finetuned  # no SFT build was triggered

    def test_lm_fallback_for_unanswerable_questions(self, system, monkeypatch):
        rag = system.retrieval_answerer()
        monkeypatch.setattr(
            type(rag), "answer_batch", lambda self, qs: [None for _ in qs]
        )
        monkeypatch.setattr(
            system,
            "answer_batch",
            lambda qs, version="l2", max_new_tokens=40: [f"lm:{q}" for q in qs],
        )
        out = system.answer_retrieval_batch(["anything?"], version="l2")
        assert out == ["lm:anything?"]


class TestPersistence:
    def test_index_survives_restart(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        cfg = SMALL_PRESET  # use_cache=True
        first = HPCGPTSystem(cfg)
        first.index_documents([NEW_FACT_DOC])
        path = first._retrieval_index_path()
        assert path is not None and path.exists()

        # A fresh process: the index (including the ingested fact)
        # reloads from disk instead of rebuilding.
        second = HPCGPTSystem(cfg)
        rag = second.retrieval_answerer()
        assert len(rag.store) == len(first.retrieval_answerer().store)
        ans = rag.answer(QUESTION)
        assert ans is not None and "quantumrack_q4" in ans

    def test_stale_index_rebuilds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        system = HPCGPTSystem(SMALL_PRESET)
        path = system._retrieval_index_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        rag = system.retrieval_answerer()
        assert len(rag.store) == len(system.knowledge_base)

    def test_journal_replay_matches_live_index(self, tmp_path, monkeypatch):
        """Interleaved ingests — a duplicate and a multi-chunk document
        among them — reload in a fresh process exactly as they live."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        live = HPCGPTSystem(SMALL_PRESET)
        path = live._retrieval_index_path()
        assert live.index_documents([NEW_FACT_DOC])["added"] >= 1
        base = path.read_bytes()
        assert live.index_documents([NEW_FACT_DOC])["added"] == 0
        long_doc = " ".join(
            f"Rack {i} in hall B was recabled during window {i}." for i in range(12)
        )
        stats = live.index_documents([{"text": long_doc, "source": "ops"}], max_tokens=24)
        assert stats["added"] == stats["chunks"] > 1
        live.index_documents(["A plain paragraph. Dataset Name: FreshCorpus-9."])
        assert path.read_bytes() == base  # every ingest went to the journal
        assert journal_path(path).exists()

        store = live.retrieval_answerer().store
        fresh = HPCGPTSystem(SMALL_PRESET).retrieval_answerer()
        assert np.array_equal(fresh.store.matrix, store.matrix)
        assert fresh.store.all() == store.all()
        queries = [QUESTION, "Which rack was recabled in hall B?"]
        assert fresh.store.search_batch(queries, k=5) == store.search_batch(queries, k=5)
        assert "quantumrack_q4" in fresh.answer(QUESTION)

    def test_rebuild_discards_the_journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        system = HPCGPTSystem(SMALL_PRESET)
        system.index_documents([NEW_FACT_DOC])
        system.index_documents(["A plain paragraph. Dataset Name: FreshCorpus-9."])
        system.retrieval_answerer(rebuild=True)
        fresh = HPCGPTSystem(SMALL_PRESET).retrieval_answerer()
        assert len(fresh.store) == len(system.knowledge_base)

    def test_store_fields_equal_full_reparse_after_ingests(self, system):
        rag = system.retrieval_answerer(rebuild=True)
        rag.answer(QUESTION)
        system.index_documents([NEW_FACT_DOC])
        rag.answer(QUESTION)
        system.index_documents(["A plain paragraph. Dataset Name: FreshCorpus-9."])
        full = [
            (text, RetrievalAugmentedAnswerer._chunk_fields(text, metadata))
            for text, metadata in rag.store.all()
        ]
        assert rag._store_fields() == full
