"""Batched inference engine — the single decode path of the system.

Every inference consumer (free-form answering, yes/no margin scoring,
threshold calibration, the Table-5 detector sweep, and the HTTP server)
routes through :class:`InferenceEngine`.  The engine owns:

* **prefill** — one kernel for generation and scoring: a chunk's
  prompts are packed end to end with no pads and run the model's
  prefill (``CausalLM.forward(ids, lengths=...)``), whose per-token
  work covers real tokens only, whose attention skips the fully masked
  causal tiles, and whose large arrays are per-thread buffers reused
  from call to call.  It returns each prompt's next-token logits;
* **batched incremental decode** — generation's prefill also fills
  per-row KV caches (row ``r``'s tokens in its own first columns), and
  each step forwards one greedy token per row against them.  A row that
  emits EOS or fills the context leaves the batch;
* **batched scoring** — next-token logits at the answer position, and
  yes/no margins over them (:meth:`InferenceEngine.yes_no_margins`):
  the prefill alone, with no cache.

Every row attends only to its own tokens, so a batch computes what each
prompt computes alone, up to float32 rounding.

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
from repro.tensor import no_grad
from repro.tokenizer import BPETokenizer


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


def _packed(prompts: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``prompts`` end to end as 1-D ids, and their lengths."""
    lens = np.array([len(p) for p in prompts], dtype=np.int64)
    return np.fromiter(chain.from_iterable(prompts), dtype=np.int64, count=int(lens.sum())), lens


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
        alone, exactly.  A row that emits EOS or fills the context leaves
        the batch, so later steps run only the rows still decoding.
        """
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        if not prompts or any(not p for p in prompts):
            raise ValueError("empty prompt")
        max_ctx = self.model.config.max_seq_len
        clamped = [clamp_prompt(list(p), max_new_tokens, max_ctx) for p in prompts]

        self.model.eval()
        eos = self.tokenizer.special.eos_id
        ids, lens = _packed(clamped)
        outs: list[list[int]] = [[] for _ in clamped]
        live = np.arange(len(clamped))  # the prompt each cache row decodes

        with no_grad():
            capacity = min(int(lens.max()) + max_new_tokens, max_ctx)
            caches = self.model.new_caches(len(clamped), capacity)
            logits = self.model.forward(ids, caches, lengths=lens).numpy()
            for step in range(max_new_tokens):
                picks = np.argmax(logits, axis=-1)
                stay = []
                for r, i in enumerate(live):
                    tok = int(picks[r])
                    if stop_at_eos and tok == eos:
                        continue
                    outs[i].append(tok)
                    if caches[0].lens[r] + 1 < max_ctx:
                        stay.append(r)
                if not stay or step + 1 == max_new_tokens:
                    break
                if len(stay) < live.size:
                    for cache in caches:
                        cache.keep(stay)
                    live, picks = live[stay], picks[stay]
                logits = self.model.forward(picks[:, None], caches).numpy()
        return outs

    def generate_many(
        self,
        prompts: list[list[int]],
        max_new_tokens: int = 32,
        stop_at_eos: bool = True,
        batch_size: int = SCORE_ROWS,
    ) -> list[list[int]]:
        """:meth:`generate_batch` over an arbitrary number of prompts,
        chunked to the width the prefill's reused buffers hold."""
        outs: list[list[int]] = []
        for start in range(0, len(prompts), batch_size):
            chunk = prompts[start : start + batch_size]
            outs.extend(self.generate_batch(chunk, max_new_tokens, stop_at_eos))
        return outs

    # -- scoring -------------------------------------------------------------

    def next_token_logits(
        self, prompts: list[list[int]], batch_size: int = SCORE_ROWS
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
                ids, lens = _packed([clamped[i] for i in take])
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
    :data:`SCORE_ROWS` items), runs ``run_batch`` once over them
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
            while len(batch) < SCORE_ROWS:
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
