"""Tests for the §5 retrieval layer: embeddings, vector store, RAG."""

import json
import shutil

import numpy as np
import pytest

from repro.knowledge import build_knowledge_base
from repro.knowledge.corpus import KnowledgeChunk
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.retrieval import (
    RetrievalAugmentedAnswerer,
    StaleIndexError,
    TfidfEmbedder,
    VectorStore,
    split_into_chunks,
)
from repro.retrieval.store import journal_path


def reference_embed(embedder, text):
    """The seed's per-text dense TF-IDF loop — the parity oracle for the
    vectorised sparse path."""
    vec = np.zeros(embedder.dim, dtype=np.float64)
    ids = embedder.tokenizer.encode(text)
    if not ids:
        return vec
    for i in ids:
        if i < embedder.dim:
            vec[i] += 1.0
    vec /= len(ids)
    vec *= embedder.idf
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


@pytest.fixture(scope="module")
def kb():
    return build_knowledge_base()


@pytest.fixture(scope="module")
def tok(kb):
    corpus = build_general_corpus(PretrainConfig(n_sentences=100))
    corpus += [c.text for c in kb[:40]]
    return train_tokenizer_on(corpus, vocab_size=420)


@pytest.fixture(scope="module")
def embedder(tok, kb):
    return TfidfEmbedder(tok).fit([c.text for c in kb])


@pytest.fixture(scope="module")
def store(embedder, kb):
    s = VectorStore(embedder)
    s.add([c.text for c in kb], [{"facts": c.facts} for c in kb])
    return s


class TestEmbedder:
    def test_unit_norm(self, embedder):
        v = embedder.embed("the Devign dataset targets C programs")
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-6)

    def test_similar_texts_closer(self, embedder):
        a = embedder.embed("dataset for defect detection in C")
        b = embedder.embed("defect detection dataset for the C language")
        c = embedder.embed("the lighthouse welcomes every visitor at dusk")
        assert a @ b > a @ c

    def test_empty_text_zero_vector(self, embedder):
        assert np.linalg.norm(embedder.embed("")) == 0.0

    def test_requires_fit(self, tok):
        with pytest.raises(RuntimeError):
            TfidfEmbedder(tok).embed("x")
        with pytest.raises(RuntimeError):
            TfidfEmbedder(tok).embed_batch_sparse(["x"])
        with pytest.raises(ValueError):
            TfidfEmbedder(tok).fit([])

    def test_dense_matches_seed_reference(self, embedder, kb):
        """The vectorised sparse path reproduces the seed's per-text
        dense loop (cosine parity)."""
        texts = [c.text for c in kb[:40]] + ["", "unrelated lighthouse prose"]
        dense = embedder.embed_batch(texts)
        ref = np.stack([reference_embed(embedder, t) for t in texts])
        assert np.allclose(dense, ref, atol=1e-12)

    def test_sparse_and_dense_bit_identical(self, embedder, kb):
        texts = [c.text for c in kb[:20]] + [""]
        sparse = embedder.embed_batch_sparse(texts)
        assert np.array_equal(sparse.to_dense(), embedder.embed_batch(texts))

    def test_embed_batch_empty(self, embedder):
        assert embedder.embed_batch([]).shape == (0, embedder.dim)
        assert embedder.embed_batch_sparse([]).n_rows == 0

    def test_out_of_range_ids_do_not_change_embeddings(self, tok, kb):
        """Invariant: token ids >= dim are skipped; they inflate the raw
        token length, but that uniform TF scale is erased by the L2
        normalisation — embeddings are unaffected."""

        class OOVTokenizer:
            """Wraps the real tokenizer, appending ids beyond dim."""

            vocab_size = tok.vocab_size
            _merges = tok._merges

            @staticmethod
            def encode(text):
                ids = tok.encode(text)
                return ids + [tok.vocab_size + 7, tok.vocab_size + 99] if ids else ids

        clean = TfidfEmbedder(tok).fit([c.text for c in kb])
        noisy = TfidfEmbedder(OOVTokenizer()).fit([c.text for c in kb])
        texts = [c.text for c in kb[:10]]
        assert np.allclose(clean.embed_batch(texts), noisy.embed_batch(texts), atol=1e-12)

    def test_fingerprint_tracks_idf_and_tokenizer(self, tok, kb):
        a = TfidfEmbedder(tok).fit([c.text for c in kb])
        b = TfidfEmbedder(tok).fit([c.text for c in kb])
        assert a.fingerprint() == b.fingerprint()
        c = TfidfEmbedder(tok).fit([c.text for c in kb[:30]])
        assert a.fingerprint() != c.fingerprint()

    def test_from_idf_roundtrip(self, tok, embedder, kb):
        clone = TfidfEmbedder.from_idf(tok, embedder.idf)
        assert clone.fingerprint() == embedder.fingerprint()
        text = kb[0].text
        assert np.array_equal(clone.embed(text), embedder.embed(text))
        with pytest.raises(ValueError):
            TfidfEmbedder.from_idf(tok, np.ones(3))


class TestStore:
    def test_retrieves_relevant_chunk(self, store):
        hits = store.search("Which system uses the NVIDIA H100-SXM5-80GB accelerator "
                            "with MXNet NVIDIA Release 23.04?", k=3)
        assert hits
        assert any("dgxh100_n64" in h.text for h in hits)

    def test_scores_sorted(self, store):
        hits = store.search("code translation dataset", k=5)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_store(self, embedder):
        s = VectorStore(embedder)
        s.add(["only one chunk about datasets"])
        assert len(s.search("datasets", k=10)) == 1

    def test_empty_store(self, embedder):
        assert VectorStore(embedder).search("anything") == []

    def test_metadata_mismatch_rejected(self, embedder):
        s = VectorStore(embedder)
        with pytest.raises(ValueError):
            s.add(["a", "b"], [{}])

    def test_unfitted_embedder_rejected(self, tok):
        with pytest.raises(ValueError):
            VectorStore(TfidfEmbedder(tok))

    def test_nonpositive_k_returns_empty(self, store):
        for k in (0, -1, -len(store) - 1):
            assert store.search("datasets", k=k) == []
            assert store.search_batch(["datasets", "models"], k=k) == [[], []]

    def test_tie_breaking_is_stable_index_order(self, embedder):
        s = VectorStore(embedder)
        s.add(["alpha beta gamma"] * 3 + ["the lighthouse at dusk"])
        hits = s.search("alpha beta gamma", k=4)
        assert hits[0].score == hits[1].score == hits[2].score
        # Equal scores rank in insertion order, run after run.
        assert [h.text for h in hits[:3]] == ["alpha beta gamma"] * 3

    def test_search_batch_matches_single_search(self, store):
        queries = ["code translation dataset", "MLPerf submission accelerator"]
        batched = store.search_batch(queries, k=5)
        for q, hits in zip(queries, batched):
            single = store.search(q, k=5)
            assert [h.text for h in hits] == [h.text for h in single]
            assert np.allclose(
                [h.score for h in hits], [h.score for h in single], atol=1e-12
            )

    def test_incremental_add_matches_bulk_add(self, embedder, kb):
        texts = [c.text for c in kb[:30]]
        bulk = VectorStore(embedder)
        bulk.add(texts)
        inc = VectorStore(embedder)
        for t in texts:
            inc.add([t])
        assert len(inc) == len(bulk)
        assert np.array_equal(inc.matrix, bulk.matrix)

    def test_add_grows_geometrically_not_per_call(self, embedder):
        """Amortised O(1): the backing buffer doubles instead of being
        reallocated (vstack-copied) on every add."""
        s = VectorStore(embedder)
        reallocations = 0
        last_buffer = s._matrix
        for i in range(64):
            s.add([f"chunk number {i} talks about datasets"])
            if s._matrix is not last_buffer:
                reallocations += 1
                last_buffer = s._matrix
        assert len(s) == 64
        assert reallocations <= 4  # ~log2(64/16) + 1, not 64
        assert s.capacity >= len(s)

    def test_save_load_bit_identical(self, store, tok, tmp_path):
        path = tmp_path / "index.npz"
        store.save(path)
        loaded = VectorStore.load(path, tok)
        assert len(loaded) == len(store)
        assert np.array_equal(loaded.matrix, store.matrix)
        queries = ["code translation dataset", "which accelerator and software"]
        a = store.search_batch(queries, k=5)
        b = loaded.search_batch(queries, k=5)
        assert [[(h.text, h.score) for h in row] for row in a] == [
            [(h.text, h.score) for h in row] for row in b
        ]

    def test_load_rejects_stale_tokenizer(self, store, tmp_path):
        path = tmp_path / "index.npz"
        store.save(path)
        other_tok = train_tokenizer_on(
            ["completely different corpus of sentences about lighthouses"],
            vocab_size=300,
        )
        with pytest.raises(StaleIndexError):
            VectorStore.load(path, other_tok)

    def test_loaded_store_keeps_growing(self, store, tok, tmp_path):
        path = tmp_path / "index.npz"
        store.save(path)
        loaded = VectorStore.load(path, tok)
        n = len(loaded)
        loaded.add(["a brand new chunk about the Devign dataset"])
        assert len(loaded) == n + 1
        assert loaded.search("brand new chunk Devign", k=1)


def assert_same_store(loaded, live):
    assert len(loaded) == len(live)
    assert np.array_equal(loaded.matrix, live.matrix)
    assert loaded.all() == live.all()
    queries = ["code translation dataset", "which accelerator and software",
               "journal chunk number 3"]
    assert loaded.search_batch(queries, k=6) == live.search_batch(queries, k=6)


def chunk_batch(tag, n):
    texts = [f"Journal chunk {tag}.{i}. System: sys_{tag}_{i}." for i in range(n)]
    return texts, [{"facts": {"System": f"sys_{tag}_{i}"}} for i in range(n)]


class TestJournal:
    """Ingests append to a journal beside the base ``.npz``; ``load``
    replays it."""

    @pytest.fixture()
    def based(self, embedder, kb, tmp_path):
        """A store with a 12-row base at ``path``."""
        live = VectorStore(embedder)
        live.add([c.text for c in kb[:12]], [{"facts": c.facts} for c in kb[:12]])
        path = tmp_path / "index.npz"
        live.save(path)
        return live, path

    def test_replay_equals_live_store(self, based, tok):
        live, path = based
        for tag, n in [("a", 1), ("b", 3), ("c", 1), ("d", 2)]:
            live.append(*chunk_batch(tag, n), path)
        assert len(live) == 19  # 7 journal rows < 12 base rows: no compaction
        assert_same_store(VectorStore.load(path, tok), live)

    def test_ingest_leaves_base_untouched_and_appends_one_record(self, based):
        live, path = based
        live.append(*chunk_batch("a", 2), path)
        base, journal = path.read_bytes(), journal_path(path).read_bytes()
        texts, metadata = chunk_batch("b", 3)
        live.append(texts, metadata, path)
        record = json.dumps({"at": 14, "texts": texts, "metadata": metadata}) + "\n"
        assert path.read_bytes() == base
        assert journal_path(path).read_bytes() == journal + record.encode()

    def test_compacts_when_journal_holds_as_many_rows_as_base(self, based, tok):
        live, path = based
        live.append(*chunk_batch("a", 11), path)
        base = path.read_bytes()
        assert journal_path(path).exists()
        live.append(*chunk_batch("b", 1), path)  # 12 journal rows: compact
        assert path.read_bytes() != base and not journal_path(path).exists()
        live.append(*chunk_batch("c", 1), path)  # the new base holds 24 rows
        assert_same_store(VectorStore.load(path, tok), live)

    def test_first_append_at_a_new_path_writes_a_base(self, based, tmp_path):
        live, _ = based
        other = tmp_path / "other.npz"
        live.append(*chunk_batch("a", 1), other)
        assert other.exists() and not journal_path(other).exists()

    def test_torn_last_line_dropped_and_overwritten(self, based, tok):
        live, path = based
        live.append(*chunk_batch("a", 1), path)
        live.append(*chunk_batch("b", 3), path)
        journal = journal_path(path)
        journal.write_bytes(journal.read_bytes()[:-7])  # a crash mid-write
        loaded = VectorStore.load(path, tok)
        assert len(loaded) == 13 and loaded.all()[-1][0] == "Journal chunk a.0. System: sys_a_0."
        # The next append replaces the torn tail, so it replays too.
        texts, metadata = chunk_batch("c", 1)
        loaded.append(texts, metadata, path)
        record = json.dumps({"at": 13, "texts": texts, "metadata": metadata}) + "\n"
        assert journal.read_bytes().endswith(b"\n" + record.encode())
        assert_same_store(VectorStore.load(path, tok), loaded)

    def test_replay_stops_at_a_gap(self, based, tok):
        live, path = based
        live.append(*chunk_batch("a", 1), path)
        with open(journal_path(path), "a") as f:
            f.write(json.dumps({"at": 20, "texts": ["orphan"], "metadata": [{}]}) + "\n")
            f.write(json.dumps({"at": 13, "texts": ["after the gap"], "metadata": [{}]}) + "\n")
        assert_same_store(VectorStore.load(path, tok), live)

    def test_crash_before_journal_reset_duplicates_nothing(self, based, tok, tmp_path):
        live, path = based
        live.append(*chunk_batch("a", 6), path)
        live.append(*chunk_batch("b", 5), path)
        stale = tmp_path / "stale.journal"
        shutil.copy(journal_path(path), stale)
        live.append(*chunk_batch("c", 1), path)  # compacts: base now 24 rows
        shutil.copy(stale, journal_path(path))  # as if the reset never ran
        loaded = VectorStore.load(path, tok)
        assert len({text for text, _ in loaded.all()}) == len(loaded) == 24
        assert_same_store(loaded, live)

    def test_record_already_in_base_is_skipped(self, based, tok):
        live, path = based
        live.append(*chunk_batch("a", 2), path)
        with open(journal_path(path), "a") as f:
            f.write(json.dumps({"at": 12, "texts": ["again"], "metadata": [{}]}) + "\n")
        assert_same_store(VectorStore.load(path, tok), live)

    def test_journal_beside_rebuilt_or_foreign_base_ignored(self, based, embedder, kb, tok,
                                                            tmp_path):
        live, path = based
        live.append(*chunk_batch("a", 2), path)
        old_journal = tmp_path / "old.journal"
        shutil.copy(journal_path(path), old_journal)
        # A rebuild at the same path: same rows, a new base.
        rebuilt = VectorStore(embedder)
        rebuilt.add([c.text for c in kb[:12]], [{"facts": c.facts} for c in kb[:12]])
        rebuilt.save(path)
        shutil.copy(old_journal, journal_path(path))
        assert_same_store(VectorStore.load(path, tok), rebuilt)
        # A different base at another path.
        foreign = VectorStore(embedder)
        foreign.add([c.text for c in kb[12:20]])
        other = tmp_path / "other.npz"
        foreign.save(other)
        shutil.copy(old_journal, journal_path(other))
        assert_same_store(VectorStore.load(other, tok), foreign)

    def test_unpersisted_add_forces_a_base_rewrite(self, based, tok):
        live, path = based
        live.add(*chunk_batch("a", 1))
        live.append(*chunk_batch("b", 1), path)
        assert not journal_path(path).exists()
        assert_same_store(VectorStore.load(path, tok), live)

    def test_text_membership_tracks_adds(self, based, kb, tok):
        live, path = based
        live.append(*chunk_batch("a", 1), path)
        assert kb[0].text in live and "Journal chunk a.0. System: sys_a_0." in live
        assert "never indexed" not in live
        loaded = VectorStore.load(path, tok)
        assert kb[0].text in loaded and "Journal chunk a.0. System: sys_a_0." in loaded


class TestChunking:
    def test_split_respects_budget(self, tok):
        text = " ".join(f"Sentence number {i} talks about datasets." for i in range(40))
        chunks = split_into_chunks(text, tok, max_tokens=60)
        assert len(chunks) > 1
        for c in chunks:
            assert tok.token_count(c) <= 60 + 12  # one sentence may straddle

    def test_all_content_kept(self, tok):
        text = "First point. Second point. Third point."
        chunks = split_into_chunks(text, tok, max_tokens=8)
        assert "".join(chunks).replace(" ", "") == text.replace(" ", "")

    def test_empty_and_whitespace_text(self, tok):
        assert split_into_chunks("", tok) == []
        assert split_into_chunks("   \n  ", tok) == []

    def test_single_giant_sentence_is_its_own_chunk(self, tok):
        giant = "datasets " * 80
        giant = giant.strip() + "."
        chunks = split_into_chunks(giant, tok, max_tokens=10)
        assert chunks == [giant]

    def test_oversized_sentence_does_not_poison_packing(self, tok):
        """An oversized sentence becomes its own chunk; its token cost
        must not leak into the budget of the sentences around it."""
        giant = ("datasets " * 80).strip() + "."
        text = f"Alpha point. {giant} Beta point. Gamma point."
        chunks = split_into_chunks(text, tok, max_tokens=30)
        assert giant in chunks
        assert chunks[0] == "Alpha point."
        # The two short trailing sentences pack together: the giant's
        # cost was not carried into their budget accounting.
        assert chunks[-1] == "Beta point. Gamma point."
        joined = "".join(chunks).replace(" ", "")
        assert joined == text.replace(" ", "")


class TestKVExtraction:
    """Regression tests for the `Key: value.` parser (values with
    internal periods used to truncate at the first one)."""

    def _fields(self, text):
        return RetrievalAugmentedAnswerer._chunk_fields(text, {})

    def test_versioned_software_value_not_truncated(self):
        fields = self._fields(
            "System: dgxh100_n64. Software: PyTorch 1.7.1. Accelerator: "
            "NVIDIA H100-SXM5-80GB."
        )
        assert fields["Software"] == "PyTorch 1.7.1"
        assert fields["System"] == "dgxh100_n64"
        assert fields["Accelerator"] == "NVIDIA H100-SXM5-80GB"

    def test_versioned_metric_at_end_of_chunk(self):
        fields = self._fields("Dataset Name: POJ-104. Metric: MLPerf v0.7.")
        assert fields["Metric"] == "MLPerf v0.7"
        assert fields["Dataset Name"] == "POJ-104"

    def test_value_without_trailing_period(self):
        fields = self._fields("Baseline: CodeBERT. Metric: MAP@R 76.2")
        assert fields["Metric"] == "MAP@R 76.2"

    def test_release_style_value(self):
        fields = self._fields("Software: MXNet NVIDIA Release 23.04. Processor: Xeon.")
        assert fields["Software"] == "MXNet NVIDIA Release 23.04"

    def test_metadata_facts_take_precedence(self):
        fields = RetrievalAugmentedAnswerer._chunk_fields(
            "Software: wrong value.", {"facts": {"Software": "PyTorch 2.3"}}
        )
        assert fields["Software"] == "PyTorch 2.3"


class TestRAG:
    def test_answers_listing4_from_store(self, store):
        rag = RetrievalAugmentedAnswerer(store)
        ans = rag.answer("What is the System if the Accelerator used is "
                         "NVIDIA H100-SXM5-80GB and the Software used is "
                         "MXNet NVIDIA Release 23.04?")
        assert ans is not None and "dgxh100_n64" in ans

    def test_new_data_answerable_without_retraining(self, embedder, kb):
        """The §5 claim: adding chunks makes *new* facts answerable."""
        store = VectorStore(embedder)
        store.add([c.text for c in kb], [{"facts": c.facts} for c in kb])
        rag = RetrievalAugmentedAnswerer(store)
        q = "What is the System if the Accelerator used is NVIDIA B200-SXM6-192GB?"
        before = rag.answer(q)
        assert before is None or "dgxb200_n8" not in before

        new_chunk = KnowledgeChunk(
            text=("An MLPerf Training v4.0 submission. Submitter: NVIDIA. "
                  "System: dgxb200_n8. Processor: Intel(R) Xeon(R) Platinum 8570. "
                  "Accelerator: NVIDIA B200-SXM6-192GB. Software: PyTorch 2.3."),
            source="mlperf-table", task="mlperf", category="System",
            facts={"System": "dgxb200_n8", "Accelerator": "NVIDIA B200-SXM6-192GB"},
        )
        store.add([new_chunk.text], [{"facts": new_chunk.facts}])
        after = rag.answer(q)
        assert after is not None and "dgxb200_n8" in after

    def test_context_for_formats_hits(self, store):
        rag = RetrievalAugmentedAnswerer(store, k=2)
        ctx = rag.context_for("code translation dataset")
        assert ctx.startswith("[1] ")
        assert "[2] " in ctx

    def test_answer_batch_matches_answer(self, store):
        rag = RetrievalAugmentedAnswerer(store)
        questions = [
            "What is the System if the Accelerator used is NVIDIA "
            "H100-SXM5-80GB and the Software used is MXNet NVIDIA Release 23.04?",
            "Which baseline model is evaluated on the POJ-104 dataset?",
        ]
        batched = rag.answer_batch(questions)
        assert batched == [rag.answer(q) for q in questions]

    def test_answer_batch_empty(self, store):
        assert RetrievalAugmentedAnswerer(store).answer_batch([]) == []

    def test_fields_cache_refreshes_on_store_growth(self, embedder, kb):
        s = VectorStore(embedder)
        s.add([c.text for c in kb[:20]], [{"facts": c.facts} for c in kb[:20]])
        rag = RetrievalAugmentedAnswerer(s)
        assert len(rag._store_fields()) == 20
        s.add(["System: newsys_x1. Accelerator: TPU-v9."], [{}])
        assert len(rag._store_fields()) == 21

    def test_fields_parsed_incrementally_equal_full_reparse(self, embedder, kb):
        s = VectorStore(embedder)
        s.add([c.text for c in kb[:20]], [{"facts": c.facts} for c in kb[:20]])
        rag = RetrievalAugmentedAnswerer(s)
        rag._store_fields()
        for tag, n in [("a", 1), ("b", 3)]:
            s.add(*chunk_batch(tag, n))
            rag._store_fields()
        full = [(t, RetrievalAugmentedAnswerer._chunk_fields(t, m)) for t, m in s.all()]
        assert rag._store_fields() == full
