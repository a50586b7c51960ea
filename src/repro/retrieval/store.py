"""Semantic vector store: an incremental, persistent cosine index.

The §5 'integrate new data' operation must stay cheap as the index
grows, and the index itself must survive restarts:

* **amortised O(1) add** — chunk vectors land in a preallocated matrix
  that doubles when full (the same growth discipline as the inference
  engine's KV caches), instead of re-``vstack``-ing the whole matrix
  per call (the seed's O(n²) behaviour);
* **batched search** — ``search_batch`` embeds all queries sparsely and
  scores them against the index in one sparse × dense matmul over only
  the token columns the queries touch;
* **deterministic ranking** — stable sort on equal scores (index order),
  and ``k <= 0`` returns no hits instead of crashing ``argpartition``;
* **atomic persistence** — ``save``/``load`` round-trip the exact
  matrix and IDF bytes through :func:`repro.nn.serialization.atomic_savez`.
  A stale index — written under a retrained tokenizer, an unknown
  format, or corrupted — raises :class:`StaleIndexError` instead of
  silently serving wrong neighbours.  (Knowledge-base *content* changes
  are keyed outside the file: the system names index files by its
  config cache key + ``DATA_VERSION``, the same discipline model
  checkpoints use, so a changed corpus lands in a different file.)
* **ingests cost what they add** — ``append`` persists new chunks as
  one JSON line in a journal beside the compressed base
  (``<index>.npz.journal``: ``{"at", "texts", "metadata"}``) instead of
  rewriting the base.  The base is rewritten, and the journal emptied,
  only when this store has no base at that path yet or the journal
  holds as many rows as the base, so each chunk is rewritten O(1) times
  amortised (the log-structured discipline of Bitcask and LSM-trees).
  ``load`` replays the journal through ``add`` — the same calls the
  live process made, so rows come back bit-identical — applying a
  record only at ``at == len(store)``, skipping one already in the base
  (a crash between a base rewrite and the journal reset) and stopping
  at a torn line or a gap.  The journal's first line names its base's
  id (also stored in the ``.npz``), fingerprint and row count; a
  journal beside any other base is ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.retrieval.embedding import TfidfEmbedder, tokenizer_fingerprint

#: Bump when the on-disk layout changes; old files then self-invalidate.
INDEX_FORMAT_VERSION = 2


def journal_path(path: str | os.PathLike) -> Path:
    """Where the journal of the base index at ``path`` lives."""
    path = Path(path)
    return path.with_name(path.name + ".journal")


class StaleIndexError(RuntimeError):
    """A persisted index no longer matches the live tokenizer/IDF."""


@dataclass(frozen=True)
class Hit:
    """One retrieval result."""

    text: str
    score: float
    metadata: dict


@dataclass
class _Base:
    """The persisted base this store last wrote or read, and how much
    of the journal beside it is this store's."""

    path: Path
    id: str
    fingerprint: str
    rows: int
    #: Rows persisted in base + journal: the next record's ``at``.
    persisted: int
    #: Bytes of the journal that hold this base's header and records;
    #: ``None`` when no journal of this base exists yet.
    journal_end: int | None = None

    def header(self) -> bytes:
        return _json_line({"base": self.id, "fingerprint": self.fingerprint,
                           "rows": self.rows})


def _json_line(obj) -> bytes:
    # json.dumps escapes every newline, so one record is one line.
    return (json.dumps(obj) + "\n").encode()


class VectorStore:
    """Embeds and indexes text chunks; retrieves by cosine similarity.

    Vectors are L2-normalised by the embedder, so cosine similarity is a
    single matrix product over the (contiguous) index matrix — the
    vectorised hot path.
    """

    def __init__(self, embedder: TfidfEmbedder) -> None:
        if not embedder.fitted:
            raise ValueError("embedder must be fitted before building a store")
        self.embedder = embedder
        self._texts: list[str] = []
        self._metadata: list[dict] = []
        self._text_set: set[str] = set()
        self._matrix = np.zeros((0, embedder.dim), dtype=np.float64)
        self._n = 0
        self._base: _Base | None = None

    def __len__(self) -> int:
        return self._n

    def __contains__(self, text: str) -> bool:
        """Whether a chunk with exactly this text is indexed."""
        return text in self._text_set

    @property
    def matrix(self) -> np.ndarray:
        """The live ``(len(self), dim)`` slice of the growable buffer."""
        return self._matrix[: self._n]

    @property
    def capacity(self) -> int:
        return len(self._matrix)

    def _reserve(self, extra: int) -> None:
        """Ensure room for ``extra`` more rows (geometric doubling, so a
        sequence of adds copies each row O(1) times amortised)."""
        need = self._n + extra
        if need <= self.capacity:
            return
        new_cap = max(need, 2 * self.capacity, 16)
        grown = np.zeros((new_cap, self.embedder.dim), dtype=np.float64)
        grown[: self._n] = self._matrix[: self._n]
        self._matrix = grown

    def add(self, texts: list[str], metadata: list[dict] | None = None) -> None:
        """Index new chunks (the §5 'integrate new data' operation)."""
        if not texts:
            return
        metadata = metadata or [{} for _ in texts]
        if len(metadata) != len(texts):
            raise ValueError("metadata length mismatch")
        vecs = self.embedder.embed_batch(texts)
        self._reserve(len(texts))
        self._matrix[self._n : self._n + len(texts)] = vecs
        self._n += len(texts)
        self._texts.extend(texts)
        self._metadata.extend(metadata)
        self._text_set.update(texts)

    def append(self, texts: list[str], metadata: list[dict], path: str | os.PathLike) -> None:
        """``add`` the chunks and persist them at ``path``: one journal
        record, or a rewrite of the base when this store has no base at
        ``path`` yet or the journal would hold as many rows as the base
        (see the module docstring)."""
        if not texts:
            return
        at = self._n
        self.add(texts, metadata)
        path, base = Path(path), self._base
        if (base is None or base.path != path or base.persisted != at
                or self._n - base.rows >= base.rows):
            self.save(path)
            return
        record = _json_line({"at": at, "texts": texts, "metadata": metadata})
        if base.journal_end is None:  # replaces any other base's journal
            journal = base.header() + record
            journal_path(path).write_bytes(journal)
            base.journal_end = len(journal)
        else:
            with open(journal_path(path), "r+b") as f:
                f.seek(base.journal_end)
                f.truncate()  # a torn tail that load stopped at
                f.write(record)
            base.journal_end += len(record)
        base.persisted = self._n

    def all(self, start: int = 0) -> list[tuple[str, dict]]:
        """Every indexed (text, metadata) pair from row ``start`` on —
        used by lexical anchor scans in hybrid retrieval."""
        return list(zip(self._texts[start:], self._metadata[start:]))

    # -- search ------------------------------------------------------------

    def _top_k(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Row-wise top-``k`` indices with deterministic tie-breaking:
        equal scores rank in stable index order.

        Selection is a vectorised ``argpartition`` (O(n) per row, not a
        full sort).  ``argpartition`` picks arbitrary members of a score
        tie that straddles the k-th place, so rows with such boundary
        ties are re-ranked over the full tie pool — rare in practice,
        and the result is then independent of partition order.
        """
        n_q, n = scores.shape
        if k >= n:
            return np.argsort(-scores, axis=1, kind="stable")[:, :k]
        # Index-sorting the candidates first makes the stable score sort
        # break exact ties inside the top-k by index order.
        cand = np.sort(np.argpartition(-scores, k - 1, axis=1)[:, :k], axis=1)
        rows = np.arange(n_q)[:, None]
        cand_scores = scores[rows, cand]
        order = np.argsort(-cand_scores, axis=1, kind="stable")
        top = np.take_along_axis(cand, order, axis=1)
        kth = cand_scores.min(axis=1)
        boundary_ties = np.nonzero((scores >= kth[:, None]).sum(axis=1) > k)[0]
        for i in boundary_ties:
            pool = np.nonzero(scores[i] >= kth[i])[0]  # index-ascending
            pool = pool[np.argsort(-scores[i][pool], kind="stable")]
            top[i] = pool[:k]
        return top

    def search(self, query: str, k: int = 3) -> list[Hit]:
        """Top-``k`` chunks by cosine similarity (``[]`` for ``k <= 0``)."""
        return self.search_batch([query], k=k)[0]

    def search_batch(self, queries: list[str], k: int = 3) -> list[list[Hit]]:
        """Top-``k`` hits for *every* query in one scoring pass.

        All queries embed in one vectorised pass and score against the
        index in a single sparse × dense matmul — the batched hot path
        serving and evaluation fan into.
        """
        queries = list(queries)
        if k <= 0 or self._n == 0 or not queries:
            return [[] for _ in queries]
        csr = self.embedder.embed_batch_sparse(queries)
        scores = csr.matmul_dense(self.matrix)  # (n_queries, n_chunks)
        top = self._top_k(scores, min(k, self._n))
        return [
            [Hit(self._texts[i], float(row_scores[i]), self._metadata[i]) for i in row]
            for row, row_scores in zip(top, scores)
        ]

    # -- persistence -------------------------------------------------------

    def fingerprint(self) -> str:
        """The embedder fingerprint a persisted copy is keyed by."""
        return self.embedder.fingerprint()

    def save(self, path: str | os.PathLike) -> None:
        """Atomically persist the index as a new base (exact matrix +
        IDF bytes, so a reload returns bit-identical search results)
        and empty the journal beside it."""
        from repro.nn.serialization import atomic_savez

        path, fingerprint, base_id = Path(path), self.fingerprint(), os.urandom(16).hex()
        atomic_savez(
            path,
            format_version=np.asarray(INDEX_FORMAT_VERSION, dtype=np.int64),
            base_id=np.asarray(base_id),
            fingerprint=np.asarray(fingerprint),
            tokenizer_fp=np.asarray(tokenizer_fingerprint(self.embedder.tokenizer)),
            idf=self.embedder.idf,
            matrix=np.ascontiguousarray(self.matrix),
            texts_json=np.asarray(json.dumps(self._texts)),
            metadata_json=np.asarray(json.dumps(self._metadata)),
        )
        # A crash before this unlink leaves a journal that names the old
        # base's id, which load ignores.
        journal_path(path).unlink(missing_ok=True)
        self._base = _Base(path, base_id, fingerprint, self._n, self._n)

    @classmethod
    def load(cls, path: str | os.PathLike, tokenizer) -> "VectorStore":
        """Reload a persisted index against ``tokenizer``, replaying the
        journal beside it.

        Raises :class:`StaleIndexError` when the file was written under
        a different tokenizer (or on-disk format) — the caller should
        rebuild from source data rather than serve stale neighbours.
        """
        with np.load(path, allow_pickle=False) as npz:
            if "format_version" not in npz.files or int(npz["format_version"]) != INDEX_FORMAT_VERSION:
                raise StaleIndexError(f"unrecognised index format in {path}")
            if str(npz["tokenizer_fp"][()]) != tokenizer_fingerprint(tokenizer):
                raise StaleIndexError(
                    f"index at {path} was built under a different tokenizer"
                )
            idf = npz["idf"]
            matrix = np.ascontiguousarray(npz["matrix"], dtype=np.float64)
            texts = json.loads(str(npz["texts_json"][()]))
            metadata = json.loads(str(npz["metadata_json"][()]))
            stored_fp = str(npz["fingerprint"][()])
            base_id = str(npz["base_id"][()])
        try:
            embedder = TfidfEmbedder.from_idf(tokenizer, idf)
        except ValueError as exc:  # vocab size drifted
            raise StaleIndexError(str(exc)) from exc
        # Integrity check only: the fingerprint is recomputed from the
        # file's own IDF, so this catches bit-rot/partial writes, not a
        # changed corpus (that is keyed by the file *name*, see module
        # docstring).
        if embedder.fingerprint() != stored_fp:
            raise StaleIndexError(f"index at {path} fails its fingerprint check")
        if matrix.shape != (len(texts), embedder.dim) or len(metadata) != len(texts):
            raise StaleIndexError(f"index at {path} is internally inconsistent")
        store = cls(embedder)
        store._texts = list(texts)
        store._metadata = list(metadata)
        store._text_set = set(texts)
        store._matrix = matrix
        store._n = len(texts)
        store._base = _Base(Path(path), base_id, stored_fp, store._n, store._n)
        store._replay_journal()
        return store

    def _replay_journal(self) -> None:
        """Apply the journal records of the base just loaded (see the
        module docstring for which records count)."""
        base = self._base
        try:
            lines = journal_path(base.path).read_bytes().split(b"\n")
        except FileNotFoundError:
            return
        # The piece after the last newline is empty or a torn write.
        if len(lines) < 2 or lines[0] + b"\n" != base.header():
            return
        end = len(lines[0]) + 1
        for line in lines[1:-1]:
            try:
                record = json.loads(line)
                at = record["at"]
                if at > self._n:
                    break  # a gap: the rows before it are gone
                if at == self._n:
                    self.add(record["texts"], record["metadata"])
            except (ValueError, KeyError, TypeError):
                break
            end += len(line) + 1
        base.journal_end = end
        base.persisted = self._n
