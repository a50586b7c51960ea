"""§5's third update strategy: retrieval-augmented answering.

"Another approach leverages the LangChain framework, wherein HPC-GPT
integrates new data seamlessly.  [...] This integration process entails
the division of text into chunks, followed by embedding and matching
prompts with the most relevant vector chunks."

This package implements that mechanism as a production retrieval
subsystem on the reproduction's substrate:

* :mod:`repro.retrieval.sparse` — minimal CSR batches (parallel
  ``indptr``/``indices``/``values`` arrays);
* :mod:`repro.retrieval.embedding` — sparse TF-IDF over BPE tokens,
  vectorised in one counting pass per batch, with a tokenizer+IDF
  fingerprint for index invalidation;
* :mod:`repro.retrieval.store` — incremental persistent vector index:
  preallocated growable matrix (amortised O(1) ``add``), batched
  ``search_batch`` scoring every query in one matmul, atomic
  ``save``/``load`` that self-invalidates when stale, and ingests
  persisted as journal appends beside the compressed base;
* :mod:`repro.retrieval.rag` — chunking plus the hybrid
  (lexical-anchor + cosine) retrieval-augmented answerer, letting the
  system absorb *new* knowledge without retraining.
"""

from repro.retrieval.embedding import TfidfEmbedder, tokenizer_fingerprint
from repro.retrieval.rag import RetrievalAugmentedAnswerer, split_into_chunks
from repro.retrieval.sparse import CSRRows
from repro.retrieval.store import Hit, StaleIndexError, VectorStore

__all__ = [
    "CSRRows",
    "Hit",
    "RetrievalAugmentedAnswerer",
    "StaleIndexError",
    "TfidfEmbedder",
    "VectorStore",
    "split_into_chunks",
    "tokenizer_fingerprint",
]
