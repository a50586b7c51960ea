"""Deterministic text embeddings: sparse TF-IDF over BPE token ids.

Real LangChain stacks use neural sentence embeddings; the property the
§5 mechanism needs is only that *related texts land near each other*.
TF-IDF over the shared BPE vocabulary gives that deterministically and
with zero training, and the same tokenizer the LLM uses keeps the
pipeline self-contained.

The embedder is fully vectorised: a batch of texts is counted in one
``np.unique``/``np.bincount`` pass over the concatenated token ids (no
per-text Python loop, no dense vocab-size temporaries) and comes back
as a :class:`~repro.retrieval.sparse.CSRRows` batch.  The dense API
(`embed` / `embed_batch`) scatters from the sparse form, so the two
representations are bit-identical by construction.

Out-of-range invariant: token ids outside ``[0, dim)`` (e.g. specials
minted after the embedder was sized) are skipped.  They still count
toward the raw token length, but the length only scales every TF value
uniformly and the final L2 normalisation erases any uniform scale — so
embeddings are *unaffected* by out-of-range ids (tested).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.retrieval.sparse import CSRRows
from repro.tokenizer import BPETokenizer


def tokenizer_fingerprint(tokenizer: BPETokenizer) -> str:
    """Stable identity of a tokenizer's token space.

    Two tokenizers with equal fingerprints assign every text the same
    token ids, so TF-IDF vectors — and any persisted index built from
    them — are interchangeable between them.  Hashes the vocabulary
    size plus the full merge table (order-independent).
    """
    h = hashlib.blake2b(digest_size=12)
    h.update(f"v{tokenizer.vocab_size}|".encode())
    merges = getattr(tokenizer, "_merges", None)
    if merges:
        for (a, b), m in sorted(merges.items()):
            h.update(f"{a},{b}>{m};".encode())
    return h.hexdigest()


class TfidfEmbedder:
    """Fit IDF weights on a corpus; embed texts as L2-normalised TF-IDF."""

    def __init__(self, tokenizer: BPETokenizer) -> None:
        self.tokenizer = tokenizer
        self._idf: np.ndarray | None = None
        self.dim = tokenizer.vocab_size

    @classmethod
    def from_idf(cls, tokenizer: BPETokenizer, idf: np.ndarray) -> "TfidfEmbedder":
        """Reconstruct a fitted embedder from persisted IDF weights
        (the :meth:`VectorStore.load <repro.retrieval.store.VectorStore.load>`
        path — no corpus refit)."""
        idf = np.ascontiguousarray(idf, dtype=np.float64)
        if idf.shape != (tokenizer.vocab_size,):
            raise ValueError(
                f"IDF length {idf.shape} does not match vocab size "
                f"{tokenizer.vocab_size}"
            )
        emb = cls(tokenizer)
        emb._idf = idf
        return emb

    @property
    def fitted(self) -> bool:
        return self._idf is not None

    @property
    def idf(self) -> np.ndarray:
        if self._idf is None:
            raise RuntimeError("embedder not fitted")
        return self._idf

    def fingerprint(self) -> str:
        """Identity of this embedder's vector space: tokenizer token
        space + exact IDF bytes.  Persisted indexes carry it so a store
        built under different weights self-invalidates on load."""
        h = hashlib.blake2b(digest_size=12)
        h.update(tokenizer_fingerprint(self.tokenizer).encode())
        h.update(np.ascontiguousarray(self.idf).tobytes())
        return h.hexdigest()

    # -- vectorised token counting ----------------------------------------

    def _encode_all(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated token ids for a batch: ``(flat_ids, row_of_id,
        row_lengths)``.  The per-text tokenizer call is the only Python
        loop; everything downstream is one vectorised pass."""
        ids_list = [self.tokenizer.encode(t) for t in texts]
        lengths = np.fromiter((len(i) for i in ids_list), dtype=np.int64, count=len(texts))
        flat = np.empty(int(lengths.sum()), dtype=np.int64)
        pos = 0
        for ids in ids_list:
            flat[pos:pos + len(ids)] = ids
            pos += len(ids)
        rows = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
        return flat, rows, lengths

    def fit(self, corpus: list[str]) -> "TfidfEmbedder":
        corpus = list(corpus)
        if not corpus:
            raise ValueError("cannot fit on an empty corpus")
        flat, rows, _ = self._encode_all(corpus)
        keep = (flat >= 0) & (flat < self.dim)
        # One entry per distinct (document, token) pair -> document freq.
        present = np.unique(rows[keep] * self.dim + flat[keep])
        df = np.bincount(present % self.dim, minlength=self.dim).astype(np.float64)
        n = len(corpus)
        self._idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
        return self

    # -- embedding ---------------------------------------------------------

    def embed_batch_sparse(self, texts: list[str]) -> CSRRows:
        """Embed a batch as CSR rows in one vectorised counting pass."""
        if self._idf is None:
            raise RuntimeError("embedder not fitted")
        texts = list(texts)
        n = len(texts)
        flat, rows, lengths = self._encode_all(texts)
        keep = (flat >= 0) & (flat < self.dim)
        uniq, counts = np.unique(rows[keep] * self.dim + flat[keep], return_counts=True)
        r = uniq // self.dim
        c = uniq % self.dim
        # TF over the *raw* token length (skipped ids still count — the
        # scale is erased by the L2 normalisation below), then IDF.
        vals = counts.astype(np.float64) / lengths[r] * self._idf[c]
        norms = np.sqrt(np.bincount(r, weights=vals * vals, minlength=n))
        scale = np.ones(n, dtype=np.float64)
        nz = norms > 0
        scale[nz] = 1.0 / norms[nz]
        vals *= scale[r]
        indptr = np.searchsorted(r, np.arange(n + 1, dtype=np.int64))
        return CSRRows(indptr=indptr, indices=c, values=vals, n_cols=self.dim)

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Dense ``(len(texts), dim)`` embeddings (scattered from the
        sparse path — bit-identical to it)."""
        if self._idf is None:
            raise RuntimeError("embedder not fitted")
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        return self.embed_batch_sparse(texts).to_dense()
