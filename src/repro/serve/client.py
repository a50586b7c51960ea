"""Minimal HTTP client for the HPC-GPT API."""

from __future__ import annotations

import json
import time
import urllib.request


class HPCGPTClient:
    """Talks to a running HPC-GPT server."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")

    def _post(self, path: str, payload: dict) -> dict:
        req = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def health(self) -> dict:
        with urllib.request.urlopen(self.base_url + "/health", timeout=30) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def answer(self, question: str, version: str = "l2", retrieval: bool = False) -> str:
        """Task-1 answer; ``retrieval=True`` grounds it in the server's
        retrieval index first (hybrid §5 path, LM fallback)."""
        payload: dict = {"question": question, "version": version}
        if retrieval:
            payload["retrieval"] = True
        return self._post("/api/answer", payload)["answer"]

    def detect(self, code: str, language: str = "C/C++") -> str:
        return self._post("/api/detect", {"code": code, "language": language})["data_race"]

    # -- §5 knowledge ingestion --------------------------------------------

    def ingest(self, documents: list, max_tokens: int | None = None) -> dict:
        """Chunk, embed, and index new documents on the server (strings
        or ``{"text", "source", "facts"}`` dicts); the posted facts are
        answerable immediately via ``answer(..., retrieval=True)``.
        Returns ingestion stats (documents/chunks/added/index_size)."""
        payload: dict = {"documents": documents}
        if max_tokens is not None:
            payload["max_tokens"] = max_tokens
        return self._post("/api/knowledge", payload)

    def knowledge_stats(self) -> dict:
        """Retrieval index stats (chunk count, dim, fingerprint)."""
        with urllib.request.urlopen(self.base_url + "/api/knowledge", timeout=30) as resp:
            return json.loads(resp.read().decode("utf-8"))

    # -- async job polling (scans + updates) -------------------------------

    def _job_status(self, api: str, job_id: str) -> dict:
        with urllib.request.urlopen(
            f"{self.base_url}/api/{api}/{job_id}", timeout=30
        ) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _job_wait(self, api: str, job_id: str, timeout: float, poll_s: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            status = self._job_status(api, job_id)
            if status["status"] in ("done", "error"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{api} job {job_id} still {status['status']!r}")
            time.sleep(poll_s)

    # -- repository scans --------------------------------------------------

    def scan_start(self, path: str, **options) -> str:
        """Queue a repository scan; returns the job id."""
        return self._post("/api/scan", {"path": path, **options})["id"]

    def scan_wait(self, job_id: str, timeout: float = 600.0, poll_s: float = 0.2) -> dict:
        """Poll until the job finishes (or ``timeout`` elapses)."""
        return self._job_wait("scan", job_id, timeout, poll_s)

    # -- §5 continual updates ----------------------------------------------

    def update_start(self, records, version: str = "l2", epochs: int | None = None) -> str:
        """Queue a continual-learning update on new instruction records
        (dicts in the paper's training JSON, or ``InstructionRecord``
        objects); returns the job id."""
        payload_records = [
            r.to_json() if hasattr(r, "to_json") else r for r in records
        ]
        body: dict = {"records": payload_records, "version": version}
        if epochs is not None:
            body["epochs"] = epochs
        return self._post("/api/update", body)["id"]

    def update_wait(self, job_id: str, timeout: float = 600.0, poll_s: float = 0.2) -> dict:
        """Poll until the update finishes (or ``timeout`` elapses)."""
        return self._job_wait("update", job_id, timeout, poll_s)
