"""Spans at the module boundaries of the ``repro`` package.

The benchmark times each layer from the outside: :class:`Instrumentation`
wraps the entry point of every layer (walk, extract, verdict cache,
parse, trace generation, race check, tools, tokenizer, engine, model
forward, retrieval, knowledge ingestion, HTTP handler, micro-batch
queue and runner) and records one span per call.  The program itself
is unchanged, and with ``--trace 0`` nothing is wrapped at all.

Spans keep a per-thread parent stack, so a layer's *self time* is its
duration minus the time of the spans it caused on the same thread.
Self times are summed across threads: the scan pipeline's tool pool
and the server's handler threads make them busy time, which can exceed
wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

#: (layer, module, attribute) — the boundaries the benchmark wraps.
#: Module-level functions are patched in the namespace that *calls*
#: them (``from x import f`` binds a second name).  ``repro.openmp``'s
#: parsers are looked up at call time by every caller, so patching the
#: package attribute covers them all.
BOUNDARIES: list[tuple[str, str, str]] = [
    ("walk", "repro.scan.pipeline", "walk_tree"),
    ("extract", "repro.scan.pipeline", "extract_kernels"),
    ("cache", "repro.scan.cache", "VerdictCache.get"),
    ("cache", "repro.scan.cache", "VerdictCache.put"),
    ("parse", "repro.openmp", "parse_c"),
    ("parse", "repro.openmp", "parse_fortran"),
    ("trace", "repro.runtime.machine", "execute"),
    ("race_check", "repro.runtime.machine", "hb_races"),
    ("race_check", "repro.detectors.tsan", "hb_races"),
    ("race_check", "repro.detectors.romp", "hb_races"),
    ("race_check", "repro.detectors.inspector", "lockset_races"),
    ("tools", "repro.detectors.base", "Detector.run"),
    ("engine", "repro.llm.engine", "InferenceEngine.generate_batch"),
    ("engine", "repro.llm.engine", "InferenceEngine.next_token_logits"),
    ("retrieval", "repro.retrieval.store", "VectorStore.search_batch"),
    ("ingest", "repro.core.hpcgpt", "HPCGPTSystem.index_documents"),
    ("index_save", "repro.retrieval.store", "VectorStore.save"),
    ("tokenize", "repro.tokenizer.bpe", "BPETokenizer.encode"),
    ("http", "repro.serve.server", "HPCGPTRequestHandler.do_POST"),
    ("queue_wait", "repro.llm.engine", "MicroBatcher.submit"),
    ("batch", "repro.serve.server", "ServingFrontend._dispatch_grouped"),
]

#: Layers whose self time is reported, in output order.  ``prefill`` and
#: ``decode`` split inference forwards of ``CausalLM`` (see
#: :func:`_forward_wrapper`).  A handler's wait for its micro-batch is
#: ``queue_wait``, a child of ``http``; the batch itself runs on the
#: batcher thread as ``batch``.
LAYERS = (
    "walk", "extract", "cache", "parse", "trace", "race_check", "tools",
    "tokenize", "engine", "prefill", "decode", "retrieval", "ingest",
    "index_save", "http", "queue_wait", "batch",
)


def _count_work(layer: str, args, result) -> dict[str, int]:
    """Work done by one call, counted where it happens."""
    if layer == "trace":
        return {"trace_events": len(result.events)}
    if layer == "retrieval":
        return {"retrieval_queries": len(args[1])}
    if layer == "batch":
        return {"batch_items": len(args[1])}
    if layer == "cache" and result is not None:  # a get that hit
        return {"cache_hits": 1}
    if layer == "ingest":
        return {"ingest_chunks": result["chunks"]}
    return {}


class Recorder:
    """Thread-safe in-memory span store; records only while active, so
    warm-up and output checks stay out of the per-operation figures."""

    #: Spans kept for the dump; aggregates count every call.
    MAX_SPANS = 100_000

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.active = False
        self.spans: list[tuple] = []  # (layer, parent, thread, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, args, kwargs):
        """Run ``fn`` inside a ``layer`` span."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [layer, 0.0]  # [layer, time covered by child spans]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            with self._lock:
                self.self_s[layer] += (t1 - t0) - frame[1]
                self.calls[layer] += 1
                if len(self.spans) < self.MAX_SPANS:
                    self.spans.append(
                        (layer, parent, threading.get_ident(), t0, t1)
                    )
        work = _count_work(layer, args, result)
        if work:
            with self._lock:
                self.counts.update(work)
        return result

    def add(self, **counts: int) -> None:
        with self._lock:
            self.counts.update(counts)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _span_wrapper(recorder: Recorder, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs)

    return wrapper


def _forward_wrapper(recorder: Recorder, fn):
    """``CausalLM.forward`` under ``no_grad`` is inference: a one-token
    step against a filled KV cache is decode, anything else prefill.
    Training forwards are not timed."""
    from repro.tensor import is_grad_enabled

    @functools.wraps(fn)
    def wrapper(self, ids, *args, **kwargs):
        if is_grad_enabled() or not recorder.active:
            return fn(self, ids, *args, **kwargs)
        caches = kwargs.get("caches", args[0] if args else None)
        shape = getattr(ids, "shape", (len(ids),))
        decode = bool(caches) and shape[-1] == 1 and caches[0].length > 0
        layer = "decode" if decode else "prefill"
        rows = shape[0] if len(shape) > 1 else 1
        recorder.add(**{f"{layer}_tokens": rows * shape[-1]})
        return recorder.call(layer, fn, (self, ids) + args, kwargs)

    return wrapper


class Instrumentation:
    """Installs the boundary wrappers; :meth:`remove` restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        rec = self.recorder
        for layer, module, attr in BOUNDARIES:
            self._patch(module, attr, lambda fn, layer=layer: _span_wrapper(rec, layer, fn))
        self._patch("repro.llm.model", "CausalLM.forward",
                    lambda fn: _forward_wrapper(rec, fn))
        return self

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner, name = _resolve(module, attr)
        original = vars(owner)[name]
        self._patched.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def remove(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
