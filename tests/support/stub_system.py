"""A stand-in for :class:`repro.core.HPCGPTSystem` in serving tests.

:class:`StubSystem` implements the batched surface
:class:`repro.serve.server.ServingSystem` with canned outputs and
records every call, so server tests run without training a model.
"""

from __future__ import annotations


class StubModel:
    """What ``/health`` reads off a model."""

    class config:  # noqa: N801 - mimics ModelConfig attribute access
        name = "stub-model"

    @staticmethod
    def num_parameters():
        return 12345


class StubStats:
    """What an update job reads off the training stats."""

    steps = 3
    skipped_steps = 0
    seconds = 0.01

    @staticmethod
    def mean_loss():
        return 0.5


class StubSystem:
    """Answers ``lm[<version>]: <question>`` (``rag[...]`` through
    retrieval), detects ``yes`` iff the code mentions ``parallel``, and
    records batch widths, ingested documents, updates and engine builds.
    ``fail_updates=True`` makes every update raise."""

    def __init__(self, fail_updates: bool = False) -> None:
        self.fail_updates = fail_updates
        self.answer_batches: list[int] = []
        self.detect_batches: list[int] = []
        self.retrieval_questions: list[list[str]] = []
        self.ingested: list[tuple[list, int]] = []
        self.chunks = 7
        self.updates: list[tuple[list, str, int | None]] = []
        self.engine_builds: list[str] = []

    def finetuned(self, version="l2"):
        return StubModel()

    def answer_batch(self, questions, version="l2"):
        self.answer_batches.append(len(questions))
        return [f"lm[{version}]: {q}" for q in questions]

    def answer_retrieval_batch(self, questions, version="l2"):
        self.retrieval_questions.append(list(questions))
        return [f"rag[{version}]: {q}" for q in questions]

    def detect_race_batch(self, codes, language="C/C++"):
        self.detect_batches.append(len(codes))
        return ["yes" if "parallel" in c else "no" for c in codes]

    def index_documents(self, documents, max_tokens=128):
        self.ingested.append((list(documents), max_tokens))
        added = len(documents)
        self.chunks += added
        return {
            "documents": len(documents),
            "chunks": added,
            "added": added,
            "index_size": self.chunks,
        }

    def retrieval_stats(self):
        return {"chunks": self.chunks, "dim": 420, "fingerprint": "fp-test"}

    def update_with(self, records, version="l2", epochs=None):
        if self.fail_updates:
            raise RuntimeError("update exploded")
        self.updates.append((list(records), version, epochs))
        return StubStats()

    def threshold(self, version="l2"):
        return 0.125

    def engine(self, version="l2"):
        self.engine_builds.append(version)
        return object()
