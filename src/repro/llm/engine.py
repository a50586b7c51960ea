"""Batched inference engine — the single decode path of the system.

Every inference consumer (free-form answering, yes/no margin scoring,
threshold calibration, the Table-5 detector sweep, and the HTTP server)
routes through :class:`InferenceEngine`.  The engine owns:

* **batched prefill** — a batch of prompts is left-padded to a common
  width, each row carries its own RoPE offsets (pad slots rotate by
  position 0 and are masked out of attention), and one forward pass
  fills every row's KV cache;
* **batched incremental decode** — one greedy token per row per step
  against preallocated KV buffers, with per-row EOS/context-full
  bookkeeping;
* **batched scoring** — next-token logits at the answer position, and
  yes/no margins over them (:meth:`InferenceEngine.yes_no_margins`).
  Scoring needs no KV cache, so it pads nothing: each length-sorted
  chunk of prompts is packed end to end and runs the model's scoring
  prefill (``CausalLM.forward(ids, lengths=...)``), whose per-token
  work covers real tokens only, whose attention skips the fully masked
  causal tiles, and whose large arrays are per-thread buffers reused
  from call to call.

Left-padding generation (rather than right-padding) keeps the *last*
column of the batch the last real token of every row, so next-token
logits for the whole batch are one slice.  The batched and sequential
paths are numerics-faithful to each other: pad keys receive an additive
``-1e9`` before softmax, which underflows to an exact zero weight in
fp32, so a padded row computes the same attention mixture as the same
row alone.

:class:`MicroBatcher` is the serving glue: concurrent callers submit
single items, and one worker thread serves them in batches: each batch
takes whatever queued while the previous one ran and starts at once,
never waiting on a timer for more.
"""

from __future__ import annotations

import queue
import threading
from itertools import chain
from typing import Any, Callable

import numpy as np

from repro.llm.chat import ChatFormat
from repro.llm.model import SCORE_ROWS, CausalLM
from repro.nn.attention import padding_causal_mask
from repro.tensor import no_grad
from repro.tokenizer import BPETokenizer

#: Default micro-batch width: big enough to amortise Python/dispatch
#: overhead on the NumPy substrate, small enough to bound the (B, H, W, W)
#: prefill score tensor; one scoring chunk fits the model's reused buffers.
DEFAULT_BATCH_SIZE = SCORE_ROWS


def clamp_prompt(prompt_ids: list[int], max_new_tokens: int, max_ctx: int) -> list[int]:
    """Keep the most recent window of an over-long prompt.

    Reserves room for up to ``max_new_tokens`` of generation but always
    keeps at least one prompt token and never returns more than
    ``max_ctx - 1`` ids, so prefill fits the RoPE table and at least one
    token can decode.  (The pre-engine clamp could return the *whole*
    prompt when ``max_new_tokens >= max_ctx - 1`` — the slice bound went
    non-positive — and the RoPE table then raised mid-generation.)
    """
    if len(prompt_ids) < max_ctx:
        return prompt_ids
    keep = max(1, min(max_ctx - 1, max_ctx - max_new_tokens - 1))
    return prompt_ids[-keep:]


class InferenceEngine:
    """Batched prefill + batched incremental decode over one model.

    The engine is stateless between calls (all decode state lives in
    per-call KV caches), so one engine can serve many threads as long as
    calls themselves are serialised — which :class:`MicroBatcher` does
    for the HTTP server.
    """

    def __init__(self, model: CausalLM, tokenizer: BPETokenizer) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.chat = ChatFormat(tokenizer)

    # -- batch assembly ------------------------------------------------------

    def _left_pad(
        self, prompts: list[list[int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pack prompts into ``(ids, pads, positions, mask)``.

        ``ids`` is (B, W) with pad ids on the left, ``pads`` the per-row
        pad counts, ``positions`` the per-row RoPE offsets (pad slots
        clamped to 0), and ``mask`` the padding-aware causal mask.
        """
        lens = np.array([len(p) for p in prompts], dtype=np.int64)
        width = int(lens.max())
        pads = width - lens
        ids = np.full((len(prompts), width), self.tokenizer.special.pad_id, dtype=np.int64)
        for i, p in enumerate(prompts):
            ids[i, pads[i] :] = p
        positions = np.maximum(np.arange(width)[None, :] - pads[:, None], 0)
        mask = padding_causal_mask(pads, width, width)
        return ids, pads, positions, mask

    # -- generation ----------------------------------------------------------

    def generate_batch(
        self,
        prompts: list[list[int]],
        max_new_tokens: int = 32,
        stop_at_eos: bool = True,
    ) -> list[list[int]]:
        """Greedily decode continuations for a batch of prompts; returns,
        per prompt, only the newly generated ids.

        Each step takes every row's most likely token (ties go to the
        lowest id), so decoding a batch matches decoding each prompt
        alone, exactly.
        """
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        if not prompts or any(not p for p in prompts):
            raise ValueError("empty prompt")
        max_ctx = self.model.config.max_seq_len
        clamped = [clamp_prompt(list(p), max_new_tokens, max_ctx) for p in prompts]

        self.model.eval()
        eos = self.tokenizer.special.eos_id
        batch = len(clamped)
        ids, pads, positions, mask = self._left_pad(clamped)
        #: per-row count of real tokens already forwarded into the cache
        cur = ids.shape[1] - pads
        outs: list[list[int]] = [[] for _ in range(batch)]
        alive = np.ones(batch, dtype=bool)

        with no_grad():
            caches = self.model.new_caches(reserve=ids.shape[1] + max_new_tokens)
            logits = self.model.forward(
                ids, caches=caches, attn_mask=mask, positions=positions, q_tail=1
            )
            step = logits.numpy()[:, -1, :]
            for _ in range(max_new_tokens):
                picks = np.argmax(step, axis=-1)
                nxt = np.full(batch, self.tokenizer.special.pad_id, dtype=np.int64)
                for i in np.flatnonzero(alive):
                    tok = int(picks[i])
                    if stop_at_eos and tok == eos:
                        alive[i] = False
                        continue
                    outs[i].append(tok)
                    if cur[i] + 1 >= max_ctx:
                        alive[i] = False
                        continue
                    nxt[i] = tok
                if not alive.any():
                    break
                k_len = caches[0].length
                step_pos = np.minimum(cur, max_ctx - 1)
                cur = cur + alive
                step_mask = padding_causal_mask(pads, 1, k_len + 1, offset=k_len)
                logits = self.model.forward(
                    nxt[:, None], caches=caches, attn_mask=step_mask, positions=step_pos[:, None]
                )
                step = logits.numpy()[:, -1, :]
        return outs

    def generate_many(
        self,
        prompts: list[list[int]],
        max_new_tokens: int = 32,
        stop_at_eos: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> list[list[int]]:
        """:meth:`generate_batch` over an arbitrary number of prompts,
        chunked to bound the prefill attention tensor."""
        outs: list[list[int]] = []
        for start in range(0, len(prompts), batch_size):
            chunk = prompts[start : start + batch_size]
            outs.extend(self.generate_batch(chunk, max_new_tokens, stop_at_eos))
        return outs

    # -- scoring -------------------------------------------------------------

    def next_token_logits(
        self, prompts: list[list[int]], batch_size: int = DEFAULT_BATCH_SIZE
    ) -> np.ndarray:
        """Logits at the answer position for each prompt, shape (B, vocab).

        Pure scoring prefill over packed prompts — no padding, no KV
        caches, no decode loop.  An empty
        prompt *list* scores to an empty result (batch consumers may
        legitimately have nothing to score); an empty prompt is an error.
        """
        if any(not p for p in prompts):
            raise ValueError("empty prompt")
        if not prompts:
            return np.empty((0, self.model.config.vocab_size), dtype=np.float32)
        max_ctx = self.model.config.max_seq_len
        clamped = [clamp_prompt(list(p), 0, max_ctx) for p in prompts]
        self.model.eval()
        # Bucket by length so the rows of a chunk reach about as far:
        # attention's query blocks then cover few rows past their end.
        order = sorted(range(len(clamped)), key=lambda i: len(clamped[i]))
        out = np.empty((len(clamped), self.model.config.vocab_size), dtype=np.float32)
        with no_grad():
            for start in range(0, len(order), batch_size):
                take = order[start : start + batch_size]
                lens = np.array([len(clamped[i]) for i in take], dtype=np.int64)
                ids = np.fromiter(
                    chain.from_iterable(clamped[i] for i in take),
                    dtype=np.int64,
                    count=int(lens.sum()),
                )
                out[take] = self.model.forward(ids, lengths=lens).numpy()
        return out

    def yes_no_margins(self, instructions: list[str]) -> list[float]:
        """Batched log-odds margins ``logit(" yes") - logit(" no")`` at the
        answer position of each chat-formatted instruction (left-truncated
        to the model context by :func:`clamp_prompt` inside the scorer).

        :func:`clamp_prompt` keeps at most ``max_seq_len - 1`` ids of a
        prompt, so no more body ids than that can reach the model: each
        instruction is tokenized from its tail, and the clamped prompts
        equal those of the fully tokenized ones.
        """
        keep = max(1, self.model.config.max_seq_len - 1)
        prompts = [self.chat.prompt_ids(instruction, tail=keep) for instruction in instructions]
        yes_id = self.tokenizer.encode(" yes")[0]
        no_id = self.tokenizer.encode(" no")[0]
        logits = self.next_token_logits(prompts)
        return [float(m) for m in logits[:, yes_id] - logits[:, no_id]]


# -- serving glue --------------------------------------------------------------

_STOP = object()


class MicroBatcher:
    """Serve concurrent single-item requests in work-conserving batches.

    Callers block in :meth:`submit`; one worker thread blocks for the
    first pending item, adds whatever else is already queued (up to
    :data:`DEFAULT_BATCH_SIZE` items), runs ``run_batch`` once over them
    right away, and wakes every caller with its own result.  A batch never
    waits for companions: a lone request runs immediately, and under
    load the queue fills while a batch runs, so the next batch is wide.
    An exception *raised* by the batch runner propagates to every
    caller of that batch; a runner that can isolate failures instead
    returns an ``Exception`` instance in that item's slot, and only that
    caller sees it raised — one bad request never poisons its
    batchmates.
    """

    def __init__(self, run_batch: Callable[[list[Any]], list[Any]]) -> None:
        self._run_batch = run_batch
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        # Makes the closed-check and the enqueue atomic with respect to
        # close(), so no caller can slip a box in after the stop sentinel
        # and block forever on a worker that already exited.
        self._submit_lock = threading.Lock()
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    def submit(self, item: Any) -> Any:
        """Enqueue one item and block until its batch has run."""
        box: dict[str, Any] = {"item": item, "done": threading.Event()}
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.put(box)
        box["done"].wait()
        if "error" in box:
            raise box["error"]
        return box["result"]

    def close(self) -> None:
        """Stop the worker after draining in-flight batches."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self._worker.join(timeout=5.0)

    def _drain_rejected(self) -> None:
        """Fail any boxes enqueued after shutdown so no caller hangs."""
        while True:
            try:
                box = self._queue.get_nowait()
            except queue.Empty:
                return
            if box is _STOP:
                continue
            box["error"] = RuntimeError("MicroBatcher is closed")
            box["done"].set()

    def _loop(self) -> None:
        while True:
            first = self._queue.get()
            if first is _STOP:
                self._drain_rejected()
                return
            batch = [first]
            stop = False
            while len(batch) < DEFAULT_BATCH_SIZE:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            try:
                results = self._run_batch([b["item"] for b in batch])
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"batch runner returned {len(results)} results for {len(batch)} items"
                    )
                for box, result in zip(batch, results):
                    if isinstance(result, Exception):
                        box["error"] = result
                    else:
                        box["result"] = result
            except Exception as exc:  # noqa: BLE001 - propagate to callers
                for box in batch:
                    box["error"] = exc
            for box in batch:
                box["done"].set()
            if stop:
                self._drain_rejected()
                return
