"""Data sources for the unified training engine.

A *data source* hands the :class:`repro.train.Trainer` one
``(ids, targets)`` batch per call and can serialise its position —
including the exact RNG trajectory — so an interrupted run resumes
bit-exactly where it stopped.

Two concrete sources cover every training workload in the repo:

* :class:`TokenStreamSource` — i.i.d. row sampling from a packed token
  stream (pretraining);
* :class:`PaddedExampleSource` — variable-length supervised examples
  padded into batches (SFT and §5 continual updates).  Examples are
  grouped into batches of near-equal length *before* the epoch shuffle
  permutes batch order, so a batch never pads short QA rows out to the
  longest code row that a global shuffle happened to deal it — the
  padded-token waste ``benchmarks/bench_train_throughput`` measures
  against shuffle-then-pad batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class Batch:
    """One training batch: input ids and (already shifted) targets."""

    ids: np.ndarray  # (B, T) int64
    targets: np.ndarray  # (B, T) int64, ignore_index-masked
    ignore_index: int = -100

    @property
    def n_tokens(self) -> int:
        return int(self.ids.size)


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _set_rng_state(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = state


class TokenStreamSource:
    """Uniform row sampling from packed rows of shape (N, seq_len + 1).

    Each batch draws ``batch_size`` row indices from the scoped RNG —
    the same draw pattern the pre-engine ``pretrain()`` loop used, so a
    given (seed, scope) reproduces the seed loop's batch sequence.
    """

    def __init__(
        self,
        rows: np.ndarray,
        batch_size: int,
        seed: int = 0,
        scope: str = "train/stream",
    ) -> None:
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("rows must be a non-empty (N, T+1) array")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.rows = rows
        self.batch_size = batch_size
        self._rng = derive_rng(seed, scope)

    def next_batch(self) -> Batch:
        idx = self._rng.integers(0, self.rows.shape[0], size=self.batch_size)
        batch = self.rows[idx]
        return Batch(batch[:, :-1], batch[:, 1:])

    # -- resumable state ----------------------------------------------------

    def state_dict(self) -> dict:
        return {"kind": "stream", "rng": _rng_state(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "stream":
            raise ValueError(f"not a TokenStreamSource state: {state.get('kind')!r}")
        _set_rng_state(self._rng, state["rng"])


class PaddedExampleSource:
    """Epoch-cycling, length-bucketed batches over variable-length
    supervised examples.

    ``examples`` are ``(ids, targets)`` pairs of equal-length 1-D
    integer arrays (e.g. ``SFTDataset.examples``).  They are grouped
    into batches by length (longest first), so each batch pads only to
    its own maximum; each epoch's shuffle then permutes whole batches.
    """

    def __init__(
        self,
        examples: list[tuple[np.ndarray, np.ndarray]],
        batch_size: int,
        pad_id: int = 0,
        ignore_index: int = -100,
        seed: int = 0,
        scope: str = "train/examples",
    ) -> None:
        if not examples:
            raise ValueError("empty example list")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.examples = examples
        self.batch_size = batch_size
        self.pad_id = pad_id
        self.ignore_index = ignore_index
        self._rng = derive_rng(seed, scope)
        self.epoch = 0
        self._pos = 0
        self._order: np.ndarray | None = None
        # Stable sort keeps equal-length ties in dataset order, so the
        # bucket layout is a pure function of the lengths.
        by_len = np.argsort([-len(ids) for ids, _ in examples], kind="stable")
        self._buckets = [
            by_len[start : start + batch_size]
            for start in range(0, len(by_len), batch_size)
        ]

    @property
    def steps_per_epoch(self) -> int:
        return len(self._buckets)

    def next_batch(self) -> Batch:
        if self._order is None:
            # Permute whole buckets: each batch IS a bucket, so a
            # partial (short) bucket never shifts later batches across
            # bucket boundaries mid-epoch.
            self._order = self._rng.permutation(len(self._buckets))
        chunk = [self.examples[i] for i in self._buckets[self._order[self._pos]]]
        self._pos += 1
        if self._pos >= self.steps_per_epoch:
            self._pos = 0
            self.epoch += 1
            self._order = None
        width = max(len(ids) for ids, _ in chunk)
        ids = np.full((len(chunk), width), self.pad_id, dtype=np.int64)
        targets = np.full((len(chunk), width), self.ignore_index, dtype=np.int64)
        for k, (ex_ids, ex_targets) in enumerate(chunk):
            ids[k, : len(ex_ids)] = ex_ids
            targets[k, : len(ex_targets)] = ex_targets
        return Batch(ids, targets, ignore_index=self.ignore_index)

    # -- resumable state ----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "kind": "examples",
            "rng": _rng_state(self._rng),
            "epoch": int(self.epoch),
            "pos": int(self._pos),
            "order": None if self._order is None else [int(i) for i in self._order],
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "examples":
            raise ValueError(f"not a PaddedExampleSource state: {state.get('kind')!r}")
        _set_rng_state(self._rng, state["rng"])
        self.epoch = int(state["epoch"])
        self._pos = int(state["pos"])
        order = state.get("order")
        self._order = None if order is None else np.asarray(order, dtype=np.int64)
