"""Async job queue for long-running server work (scans, §5 updates).

``POST /api/scan`` and ``POST /api/update`` must not block the HTTP
handler (a repository scan or a continual-learning update can take
minutes), and must not stampede the model: jobs run one at a time on a
single daemon worker, while submission and status polling are O(1)
dictionary operations.  Finished jobs keep their result until the queue
is closed (past :data:`MAX_FINISHED_JOBS` the oldest finished jobs are
evicted), and at most :data:`MAX_PENDING_JOBS` jobs wait to start: a
submission past that raises :class:`QueueFull` (the server answers 429).

:class:`JobQueue` is generic — a *kind* names the job-id prefix, a
*subject_key* names how the job's subject serialises (``"path"`` for
scans, ``"version"`` for updates), and a *result_key* names the result
field; the defaults are the scan queue's.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

QUEUED, RUNNING, DONE, ERROR = "queued", "running", "done", "error"

#: Jobs one queue holds submitted but not yet started.
MAX_PENDING_JOBS = 16
#: Finished jobs one queue keeps for status polls.
MAX_FINISHED_JOBS = 64
#: Seconds :meth:`JobQueue.close` waits for the running job.
CLOSE_TIMEOUT_S = 10.0


class QueueFull(RuntimeError):
    """A submission found :data:`MAX_PENDING_JOBS` jobs waiting to start."""


@dataclass
class Job:
    id: str
    subject: str
    options: dict = field(default_factory=dict)
    subject_key: str = "path"
    result_key: str = "report"
    status: str = QUEUED
    result: dict | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            self.subject_key: self.subject,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out[self.result_key] = self.result
        return out


class JobQueue:
    """One worker thread draining jobs through a runner callable.

    ``runner(subject, options) -> dict`` does the actual work and
    returns the JSON-ready result; exceptions mark the job ``error``
    (the queue itself never dies).
    """

    def __init__(
        self,
        runner: Callable[[str, dict], dict],
        kind: str = "scan",
        subject_key: str = "path",
        result_key: str = "report",
    ) -> None:
        self._runner = runner
        self._kind = kind
        self._subject_key = subject_key
        self._result_key = result_key
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []  # submission order, for eviction
        self._counter = itertools.count(1)
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._pending = 0  # submitted, not yet taken by the worker
        self._lock = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    # -- API -----------------------------------------------------------------

    def submit(self, subject: str, options: dict | None = None) -> Job:
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            if self._pending >= MAX_PENDING_JOBS:
                raise QueueFull(
                    f"{self._kind} backlog is full: {MAX_PENDING_JOBS} jobs waiting"
                )
            self._pending += 1
            job = Job(
                id=f"{self._kind}-{next(self._counter):06d}",
                subject=str(subject),
                options=dict(options or {}),
                subject_key=self._subject_key,
                result_key=self._result_key,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._evict_locked()
        self._queue.put(job.id)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=CLOSE_TIMEOUT_S)

    # -- worker --------------------------------------------------------------

    def _evict_locked(self) -> None:
        finished = [i for i in self._order
                    if self._jobs[i].status in (DONE, ERROR)]
        while len(finished) > MAX_FINISHED_JOBS:
            victim = finished.pop(0)
            self._jobs.pop(victim, None)
            self._order.remove(victim)

    def _loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                self._pending -= 1
                job = self._jobs.get(job_id)
            if job is None:  # evicted while queued (pathological backlog)
                continue
            job.status = RUNNING
            job.started_at = time.time()
            try:
                job.result = self._runner(job.subject, job.options)
                job.status = DONE
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = ERROR
            job.finished_at = time.time()
