"""Helpers for driving a :class:`repro.llm.engine.MicroBatcher` without
timing: hold its worker in a batch, queue items behind it, release."""

from __future__ import annotations

import threading
import time


def wait_queued(batcher, n: int, timeout: float = 5.0) -> None:
    """Block until ``n`` items wait in ``batcher``'s queue (the worker
    must be held inside a batch, or it would drain them)."""
    deadline = time.monotonic() + timeout
    while batcher._queue.qsize() < n:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{batcher._queue.qsize()} of {n} items queued")
        time.sleep(0.001)


def submit_in_threads(submit, items) -> tuple[dict, dict, list[threading.Thread]]:
    """Call ``submit(item)`` for each item on its own thread; returns the
    result and error dicts (keyed by item) the threads fill, and the
    started threads."""
    results: dict = {}
    errors: dict = {}

    def call(item):
        try:
            results[item] = submit(item)
        except Exception as exc:  # noqa: BLE001 - recorded for the test
            errors[item] = exc

    threads = [threading.Thread(target=call, args=(item,)) for item in items]
    for t in threads:
        t.start()
    return results, errors, threads


def join_all(threads, timeout: float = 5.0) -> None:
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), "a submitter is still blocked"
