"""Web server and HPC-GPT API (Figure 1's deployment stage).

Endpoints (JSON over HTTP, stdlib ``http.server`` — no dependencies):

* ``GET  /``              — a minimal HTML GUI for HPC scientists;
* ``GET  /health``        — liveness + model metadata;
* ``POST /api/answer``    — ``{"question": ...}`` -> Task-1 answer; pass
  ``"retrieval": true`` for the hybrid §5 path (batched index search
  first, LM fallback);
* ``POST /api/detect``    — ``{"code": ..., "language": ...}`` -> yes/no;
* ``POST /api/knowledge`` — ``{"documents": [...]}`` -> §5 knowledge
  ingestion: each document is chunked, embedded, and appended to the
  persistent retrieval index (no retraining), so the posted facts are
  answerable immediately via ``"retrieval": true``;
* ``GET  /api/knowledge`` — retrieval index stats (chunk count, dim,
  fingerprint);
* ``POST /api/scan``      — ``{"path": ...}`` -> queued scan job id
  (long repository scans run on an async job queue, so they never
  block the micro-batcher serving answer/detect traffic);
* ``GET  /api/scan/<id>`` — job status, and the full report when done;
* ``POST /api/update``    — ``{"records": [...]}`` -> queued §5
  continual-learning job: resumes training on the new instruction
  records through the unified trainer, recalibrates the detection
  threshold, persists the update checkpoint, and rebuilds the engine
  (submission is non-blocking; the retrain phase holds the system
  lock, so answer/detect traffic queues until it completes);
* ``GET  /api/update/<id>`` — update job status + result when done.

A POST body longer than :data:`MAX_BODY_BYTES` gets 413 without being
read, and the connection is closed.  ``epochs`` (``/api/update``) and
``max_tokens`` (``/api/knowledge``) must be JSON integers of at least 1,
and ``epochs`` at most :data:`MAX_UPDATE_EPOCHS`: anything else gets
400.  A scan or update submitted while its queue already holds
:data:`repro.scan.jobs.MAX_PENDING_JOBS` jobs waiting to start gets 429
with a ``Retry-After`` header.  A request
whose handling raises (for example a failed inference batch) gets 500
with ``{"error": "ExcType: message"}``.

``ThreadingHTTPServer`` handles each request on its own thread, so
requests are funnelled through a :class:`ServingFrontend`: first-touch
model builds are serialised behind the system's build lock, and answer
and detect requests share one micro-batcher — each batch takes whatever
requests queued while the previous one ran, never waiting on a timer,
and decodes them together through the batched engine — instead of
racing unsynchronised threads into a shared model.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Protocol

from repro.llm.engine import MicroBatcher
from repro.utils.languages import UnknownLanguageError, normalize_language

_GUI_HTML = """<!doctype html>
<html><head><title>HPC-GPT</title></head>
<body>
<h1>HPC-GPT</h1>
<p>Ask an HPC question (Task 1) or paste an OpenMP kernel (Task 2).</p>
<h2>Ask</h2>
<form onsubmit="ask(event)"><input id="q" size="80">
<label><input type="checkbox" id="rag"> ground in retrieval index</label>
<button>Ask</button></form>
<pre id="a"></pre>
<h2>Detect data race</h2>
<form onsubmit="detect(event)"><textarea id="code" rows="10" cols="80"></textarea>
<br><select id="lang"><option>C/C++</option><option>Fortran</option></select>
<button>Detect</button></form>
<pre id="d"></pre>
<script>
async function ask(e){e.preventDefault();
 const r=await fetch('/api/answer',{method:'POST',body:JSON.stringify({question:document.getElementById('q').value,retrieval:document.getElementById('rag').checked})});
 document.getElementById('a').textContent=JSON.stringify(await r.json(),null,1);}
async function detect(e){e.preventDefault();
 const r=await fetch('/api/detect',{method:'POST',body:JSON.stringify({code:document.getElementById('code').value,language:document.getElementById('lang').value})});
 document.getElementById('d').textContent=JSON.stringify(await r.json(),null,1);}
</script></body></html>
"""


class ServingSystem(Protocol):
    """The batched surface :class:`ServingFrontend` drives;
    :class:`repro.core.HPCGPTSystem` implements it."""

    def answer_batch(self, questions: list[str], version: str = "l2") -> list[str]: ...
    def answer_retrieval_batch(self, questions: list[str], version: str = "l2") -> list[str]: ...
    def detect_race_batch(self, codes: list[str], language: str = "C/C++") -> list[str]: ...
    def index_documents(self, documents: list, max_tokens: int = 128) -> dict: ...
    def retrieval_stats(self) -> dict: ...
    def finetuned(self, version: str = "l2"): ...
    def update_with(self, records: list, version: str = "l2", epochs: int | None = None): ...
    def threshold(self, version: str = "l2") -> float: ...
    def engine(self, version: str = "l2"): ...


class ServingFrontend:
    """Thread-safe facade between the HTTP handlers and the system.

    One :class:`MicroBatcher` serves answer and detect requests alike:
    each batch holds whatever requests queued while the previous batch
    ran, and :meth:`_dispatch_grouped` serves it with one batched call
    (``answer_batch``, ``answer_retrieval_batch`` or
    ``detect_race_batch``) per group of like requests.  One lock
    serialises *every* touch of the system — the batcher worker and the
    ``/health`` path — so lazy first-request builds can never interleave
    (even for systems without their own build lock) and the model only
    ever runs one forward at a time.
    """

    def __init__(self, system: ServingSystem) -> None:
        self.system = system
        self._system_lock = threading.Lock()
        self._batcher = MicroBatcher(self._dispatch_grouped)
        self._scan_queue = None  # lazily built on first /api/scan
        self._scan_queue_lock = threading.Lock()
        self._update_queue = None  # lazily built on first /api/update
        self._update_queue_lock = threading.Lock()
        # Last model served per version: lets /health answer while an
        # update job holds the system lock for a multi-minute retrain
        # (liveness probes must not time out mid-update).
        self._model_cache: dict[str, object] = {}
        # Scans and updates run on separate queue workers; this mutex
        # keeps them mutually exclusive.  A scan captures the engine and
        # its cache fingerprint (model + threshold) at start, so an
        # update landing mid-scan would have it score through stale
        # engine state and persist post-update verdicts under the
        # pre-update cache key.  Answer/detect traffic is unaffected.
        self._maintenance_lock = threading.Lock()

    # -- batch runner (batcher thread) --------------------------------------

    def _dispatch_grouped(self, items: list[tuple[str, tuple]]) -> list:
        """Serve a micro-batch of ``(payload, key)`` items under the
        system lock, with one batched call per key: ``("answer",
        version, retrieval)`` or ``("detect", language)``.

        Failures are isolated per group: a slot holding an ``Exception``
        is raised only for its own caller by :class:`MicroBatcher`, so
        one bad request cannot poison the rest of its micro-batch."""
        system = self.system
        with self._system_lock:
            results: list = [None] * len(items)
            groups: dict = {}
            for idx, (_, key) in enumerate(items):
                groups.setdefault(key, []).append(idx)
            for key, idxs in groups.items():
                payloads = [items[i][0] for i in idxs]
                try:
                    if key[0] == "detect":
                        outs = system.detect_race_batch(payloads, language=key[1])
                    else:
                        _, version, retrieval = key
                        batched = system.answer_retrieval_batch if retrieval else system.answer_batch
                        outs = batched(payloads, version=version)
                    if len(outs) != len(idxs):
                        raise RuntimeError(
                            f"batched call returned {len(outs)} results for {len(idxs)} items"
                        )
                except Exception as exc:  # noqa: BLE001 - isolate per group
                    outs = [exc] * len(idxs)
                for i, out in zip(idxs, outs):
                    results[i] = out
            return results

    # -- request API (handler threads) ---------------------------------------

    def answer(self, question: str, version: str = "l2", retrieval: bool = False) -> str:
        return self._batcher.submit((question, ("answer", version, bool(retrieval))))

    def detect(self, code: str, language: str = "C/C++") -> str:
        return self._batcher.submit((code, ("detect", language)))

    # -- §5 knowledge ingestion (retrieval index) -----------------------------

    def _call_retrieval(self, fn, *args, **kwargs):
        """Run a retrieval operation, preferring the system lock but not
        insisting on it: the system guards all retrieval state with its
        own lock, so when an update job holds the system lock for a
        multi-minute retrain, index reads/ingestion proceed instead of
        timing out (the same liveness pattern as /health)."""
        if self._system_lock.acquire(timeout=0.05):
            try:
                return fn(*args, **kwargs)
            finally:
                self._system_lock.release()
        return fn(*args, **kwargs)

    def ingest(self, documents: list, max_tokens: int | None = None) -> dict:
        """Chunk, embed, and index posted documents (the system's
        retrieval lock serialises this against concurrent
        retrieval-grounded answers)."""
        kwargs = {} if max_tokens is None else {"max_tokens": int(max_tokens)}
        return self._call_retrieval(self.system.index_documents, documents, **kwargs)

    def knowledge_stats(self) -> dict:
        return self._call_retrieval(self.system.retrieval_stats)

    def finetuned(self, version: str = "l2"):
        if self._system_lock.acquire(timeout=0.05):
            try:
                model = self.system.finetuned(version)
                self._model_cache[version] = model
                return model
            finally:
                self._system_lock.release()
        # Lock busy (e.g. an update retraining): serve the last-known
        # model so /health stays live.  Cold systems (nothing cached
        # yet) still wait for the first build.
        model = self._model_cache.get(version)
        if model is not None:
            return model
        with self._system_lock:
            model = self.system.finetuned(version)
            self._model_cache[version] = model
            return model

    # -- repository scans (async job queue) ----------------------------------

    def _scan_runner(self, path: str, options: dict) -> dict:
        """One scan job: build a pipeline from the request options and
        run it.  Only the engine phase takes the system lock (via
        ``llm_lock``), so answer/detect traffic keeps flowing while the
        walker, extractor, and tool ensemble work."""
        from repro.scan import ScanConfig, ScanPipeline

        config = ScanConfig(
            languages=tuple(options["languages"]) if options.get("languages") else None,
            tools_only=bool(options.get("tools_only", False)),
            use_cache=not options.get("no_cache", False),
        )
        pipeline = ScanPipeline(
            system=None if config.tools_only else self.system,
            config=config,
            llm_lock=self._system_lock,
        )
        with self._maintenance_lock:
            return pipeline.scan(path).to_dict()

    def scan_submit(self, path: str, options: dict):
        from repro.scan import JobQueue

        with self._scan_queue_lock:
            if self._scan_queue is None:
                self._scan_queue = JobQueue(self._scan_runner)
            return self._scan_queue.submit(path, options)

    def scan_job(self, job_id: str):
        with self._scan_queue_lock:
            if self._scan_queue is None:
                return None
        return self._scan_queue.get(job_id)

    # -- §5 continual updates (async job queue) ------------------------------

    def _update_runner(self, version: str, options: dict) -> dict:
        """One update job: resume training on the new records, then
        leave the system serving the updated model.  Holds the system
        lock end-to-end — answers served mid-retrain would mix weights
        from half-applied steps."""
        import dataclasses

        from repro.datagen.schema import InstructionRecord

        def parse(d: dict) -> InstructionRecord:
            rec = InstructionRecord.from_json(d)
            # Plain API payloads may carry task/language at the top
            # level instead of under "meta"; honour them — calibration
            # refits the detection threshold only over records tagged
            # task="datarace", so dropping the tag would silently
            # exclude new race examples from recalibration.
            updates = {
                field: str(d[field])
                for field in ("task", "language")
                if not getattr(rec, field) and d.get(field)
            }
            return dataclasses.replace(rec, **updates) if updates else rec

        records = [parse(d) for d in options["records"]]
        epochs = options.get("epochs")
        with self._maintenance_lock, self._system_lock:
            stats = self.system.update_with(records, version=version, epochs=epochs)
            threshold = self.system.threshold(version)
            # Rebuild eagerly so the first post-update request does not
            # pay the engine warm-up.
            self.system.engine(version)
        result = {"version": version, "n_records": len(records),
                  "threshold": float(threshold)}
        if stats is not None:
            result.update(
                steps=int(stats.steps),
                skipped_steps=int(stats.skipped_steps),
                mean_loss=float(stats.mean_loss()),
                seconds=float(stats.seconds),
            )
        return result

    def update_submit(self, version: str, options: dict):
        from repro.scan import JobQueue

        with self._update_queue_lock:
            if self._update_queue is None:
                self._update_queue = JobQueue(
                    self._update_runner, kind="update",
                    subject_key="version", result_key="result",
                )
            return self._update_queue.submit(version, options)

    def update_job(self, job_id: str):
        with self._update_queue_lock:
            if self._update_queue is None:
                return None
        return self._update_queue.get(job_id)

    def close(self) -> None:
        self._batcher.close()
        with self._scan_queue_lock:
            if self._scan_queue is not None:
                self._scan_queue.close()
        with self._update_queue_lock:
            if self._update_queue is not None:
                self._update_queue.close()


#: Largest request body the server reads.  Sized for a detect request
#: carrying one file at the scanner's size cap (2 MiB,
#: ``repro.scan.walker.DEFAULT_MAX_BYTES``) JSON-escaped at worst: six
#: bytes (``\u00XX``) per byte, plus 1 MiB for the other fields.
MAX_BODY_BYTES = 13 * 1024 * 1024

#: Most training epochs one ``POST /api/update`` may ask for.  The update
#: job holds the system lock while it trains, so every answer and detect
#: request waits for it; no preset's fine-tune runs more than 12 epochs.
MAX_UPDATE_EPOCHS = 16


#: Seconds a client told 429 (a full job backlog) should wait.
RETRY_AFTER_S = 5


class _BadRequest(Exception):
    """A request the handler refuses: it answers ``status`` (400 unless
    given) with the message, and any extra ``headers``."""

    def __init__(self, message: str, status: int = 400, headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _submit_job(submit, subject: str, options: dict):
    """``submit(subject, options)``; a full backlog is a 429."""
    from repro.scan.jobs import QueueFull

    try:
        return submit(subject, options)
    except QueueFull as exc:
        raise _BadRequest(str(exc), 429, {"Retry-After": str(RETRY_AFTER_S)}) from None


_KIND_NAMES = {str: "a string", bool: "true or false", list: "a list of strings"}


def _field(payload: dict, key: str, kind: type, default=None):
    """``payload[key]`` type-checked against ``kind`` (``str``, ``bool``,
    or ``list`` of strings); ``default`` when absent or null."""
    value = payload.get(key)
    if value is None:
        return default
    ok = isinstance(value, kind) and (
        kind is not list or all(isinstance(v, str) for v in value)
    )
    if not ok:
        raise _BadRequest(f"{key!r} must be {_KIND_NAMES[kind]}")
    return value


def _positive_int(payload: dict, key: str, maximum: int | None = None) -> int | None:
    """``payload[key]`` as a JSON integer in ``[1, maximum]``; ``None``
    when absent or null.  Booleans, fractions and strings are refused."""
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise _BadRequest(f"{key!r} must be an integer")
    if value < 1:
        raise _BadRequest(f"{key!r} must be >= 1")
    if maximum is not None and value > maximum:
        raise _BadRequest(f"{key!r} must be <= {maximum}")
    return value


def _version(payload: dict) -> str:
    version = _field(payload, "version", str, "l2")
    if version not in ("l1", "l2"):
        raise _BadRequest(f"unknown version {version!r}; have ['l1', 'l2']")
    return version


class HPCGPTRequestHandler(BaseHTTPRequestHandler):
    """Dispatches API requests to the bound :class:`ServingFrontend`.

    Each response leaves in one write, on a socket with Nagle's
    algorithm off: ``wfile`` is buffered, so the status line, headers
    and body collect until ``handle_one_request`` flushes them after
    the route returns.  Sent as two small writes on a kept-alive
    connection, the body would wait behind Nagle for the client's
    delayed ACK of the headers: at least 40 ms per request on Linux.
    (A body larger than the 8 KiB buffer still takes more than one
    write; with Nagle off those leave at once.)

    A route that raises :class:`_BadRequest` is answered with its
    status; any other exception is answered 500 with
    ``{"error": "ExcType: message"}``, and the connection stays usable.
    """

    frontend: ServingFrontend = None  # injected by make_server
    protocol_version = "HTTP/1.1"
    wbufsize = -1  # buffered: one write per response
    disable_nagle_algorithm = True

    # -- helpers -----------------------------------------------------------

    def _send(self, code: int, payload, content_type: str = "application/json",
              headers: dict | None = None) -> None:
        body = (
            payload.encode("utf-8")
            if isinstance(payload, str)
            else json.dumps(payload).encode("utf-8")
        )
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            raise _BadRequest("invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            # Left unread, so the connection cannot be reused either.
            self.close_connection = True
            raise _BadRequest(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}", status=413
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _BadRequest("invalid JSON body") from None
        if not isinstance(payload, dict):
            raise _BadRequest("JSON body must be an object")
        return payload

    def log_message(self, fmt, *args):  # pragma: no cover - silence
        pass

    # -- routes -------------------------------------------------------------

    def _dispatch(self, route) -> None:
        """Run ``route``; answer its failure instead of dropping the
        connection."""
        try:
            route()
        except _BadRequest as exc:
            self._send(exc.status, {"error": str(exc)}, headers=exc.headers)
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:
        self._dispatch(self._get)

    def _get(self) -> None:
        if self.path == "/":
            self._send(200, _GUI_HTML, content_type="text/html")
        elif self.path.startswith("/api/scan/"):
            job_id = self.path[len("/api/scan/"):]
            job = self.frontend.scan_job(job_id)
            if job is None:
                self._send(404, {"error": f"unknown scan job {job_id!r}"})
            else:
                self._send(200, job.to_dict())
        elif self.path.startswith("/api/update/"):
            job_id = self.path[len("/api/update/"):]
            job = self.frontend.update_job(job_id)
            if job is None:
                self._send(404, {"error": f"unknown update job {job_id!r}"})
            else:
                self._send(200, job.to_dict())
        elif self.path == "/api/knowledge":
            self._send(200, self.frontend.knowledge_stats())
        elif self.path == "/health":
            model = self.frontend.finetuned("l2")
            self._send(
                200,
                {
                    "status": "ok",
                    "model": model.config.name,
                    "parameters": model.num_parameters(),
                    "versions": ["l1", "l2"],
                },
            )
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        self._dispatch(self._post)

    def _post(self) -> None:
        routes = {
            "/api/answer": self._post_answer,
            "/api/detect": self._post_detect,
            "/api/knowledge": self._post_knowledge,
            "/api/scan": self._post_scan,
            "/api/update": self._post_update,
        }
        payload = self._read_json()
        route = routes.get(self.path)
        if route is None:
            self._send(404, {"error": f"unknown path {self.path}"})
        else:
            route(payload)

    def _post_answer(self, payload: dict) -> None:
        question = _field(payload, "question", str, "").strip()
        if not question:
            raise _BadRequest("missing 'question'")
        version = _version(payload)
        retrieval = _field(payload, "retrieval", bool, False)
        answer = self.frontend.answer(question, version=version, retrieval=retrieval)
        self._send(
            200,
            {
                "question": question,
                "answer": answer,
                "version": version,
                "retrieval": retrieval,
            },
        )

    def _post_detect(self, payload: dict) -> None:
        code = _field(payload, "code", str, "")
        if not code.strip():
            raise _BadRequest("missing 'code'")
        try:
            language = normalize_language(payload.get("language", "C/C++"))
        except UnknownLanguageError as exc:
            raise _BadRequest(str(exc)) from None
        verdict = self.frontend.detect(code, language=language)
        self._send(200, {"language": language, "data_race": verdict})

    def _post_knowledge(self, payload: dict) -> None:
        documents = payload.get("documents")
        if not isinstance(documents, list) or not documents:
            raise _BadRequest("missing 'documents' (non-empty list)")
        for i, doc in enumerate(documents):
            if isinstance(doc, str):
                if not doc.strip():
                    raise _BadRequest(f"documents[{i}] is empty")
            elif not isinstance(doc, dict) or not str(doc.get("text", "")).strip():
                raise _BadRequest(f"documents[{i}] needs a non-empty 'text' field")
        max_tokens = _positive_int(payload, "max_tokens")
        try:
            result = self.frontend.ingest(documents, max_tokens=max_tokens)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        self._send(200, result)

    def _post_scan(self, payload: dict) -> None:
        from pathlib import Path

        path = _field(payload, "path", str, "").strip()
        if not path:
            raise _BadRequest("missing 'path'")
        if not Path(path).exists():
            raise _BadRequest(f"scan path {path!r} does not exist")
        options = {
            "tools_only": _field(payload, "tools_only", bool, False),
            "no_cache": _field(payload, "no_cache", bool, False),
        }
        languages = _field(payload, "languages", list)
        if languages:
            try:
                options["languages"] = [normalize_language(l) for l in languages]
            except UnknownLanguageError as exc:
                raise _BadRequest(str(exc)) from None
        job = _submit_job(self.frontend.scan_submit, path, options)
        self._send(202, {"id": job.id, "status": job.status, "path": path})

    def _post_update(self, payload: dict) -> None:
        records = payload.get("records")
        if not isinstance(records, list) or not records:
            raise _BadRequest("missing 'records' (non-empty list)")
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or not rec.get("instruction") or "output" not in rec:
                raise _BadRequest(f"records[{i}] needs 'instruction' and 'output' fields")
        version = _version(payload)
        options: dict = {"records": records}
        epochs = _positive_int(payload, "epochs", MAX_UPDATE_EPOCHS)
        if epochs is not None:
            options["epochs"] = epochs
        job = _submit_job(self.frontend.update_submit, version, options)
        self._send(202, {"id": job.id, "status": job.status, "version": version})


def make_server(
    system: ServingSystem,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``system``.

    ``port=0`` picks a free port (inspect ``server.server_address``).
    The returned server exposes the micro-batching facade as
    ``server.frontend`` (``server.frontend.close()`` drains it).
    """
    frontend = ServingFrontend(system)
    handler = type("BoundHandler", (HPCGPTRequestHandler,), {"frontend": frontend})
    server = ThreadingHTTPServer((host, port), handler)
    server.frontend = frontend
    return server


def serve_forever(system, host: str = "127.0.0.1", port: int = 8080):
    """Blocking entry point used by the deployment example."""
    server = make_server(system, host, port)
    print(f"HPC-GPT serving on http://{host}:{server.server_address[1]}")
    server.serve_forever()


def start_background(system, host: str = "127.0.0.1") -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the server on a free port in a daemon thread (tests/examples)."""
    server = make_server(system, host, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
