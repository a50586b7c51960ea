"""Tests for the MicroBatcher serving queue.

Batch composition is checked without timing: a :class:`HeldRunner`
holds the worker inside its first batch while the test queues items
behind it, then releases it.
"""

import threading

import pytest

from repro.llm.engine import DEFAULT_BATCH_SIZE, MicroBatcher

from support.batching import join_all, submit_in_threads, wait_queued


class HeldRunner:
    """Records batch compositions, maps each item through ``fn``, and
    holds its first batch until :attr:`release` is set."""

    def __init__(self, fn=lambda item: f"out:{item}"):
        self.fn = fn
        self.batches: list[list] = []
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, items):
        self.batches.append(list(items))
        if len(self.batches) == 1:
            self.started.set()
            self.release.wait(5.0)
        return [self.fn(item) for item in items]


def hold(mb, runner):
    """Start a batch of one item, ``"first"``, and wait until it runs."""
    held = submit_in_threads(mb.submit, ["first"])
    assert runner.started.wait(5.0)
    return held


class TestGreedyDrain:
    def test_lone_item_runs_at_once(self):
        """A lone request runs as a batch of one, with no other request
        needed to start it."""
        runner = HeldRunner()
        mb = MicroBatcher(runner)
        try:
            results, errors, threads = hold(mb, runner)
            assert runner.batches == [["first"]]
            runner.release.set()
            join_all(threads)
            assert results == {"first": "out:first"} and not errors
        finally:
            mb.close()

    def test_items_queued_during_a_batch_share_the_next(self):
        runner = HeldRunner()
        mb = MicroBatcher(runner)
        try:
            _, _, first = hold(mb, runner)
            items = list(range(5))
            results, errors, threads = submit_in_threads(mb.submit, items)
            wait_queued(mb, len(items))
            runner.release.set()
            join_all(first + threads)
            assert runner.batches[0] == ["first"]
            assert sorted(runner.batches[1]) == items
            assert len(runner.batches) == 2
            assert results == {i: f"out:{i}" for i in items} and not errors
        finally:
            mb.close()

    def test_queue_past_the_cap_splits_into_full_batches(self):
        runner = HeldRunner()
        mb = MicroBatcher(runner)
        try:
            _, _, first = hold(mb, runner)
            items = list(range(DEFAULT_BATCH_SIZE + 3))
            results, errors, threads = submit_in_threads(mb.submit, items)
            wait_queued(mb, len(items))
            runner.release.set()
            join_all(first + threads)
            assert [len(b) for b in runner.batches] == [1, DEFAULT_BATCH_SIZE, 3]
            assert results == {i: f"out:{i}" for i in items} and not errors
        finally:
            mb.close()


class TestShutdown:
    def test_submit_after_close_raises(self):
        mb = MicroBatcher(lambda items: list(items))
        mb.close()
        with pytest.raises(RuntimeError, match="closed"):
            mb.submit("late")

    def test_concurrent_submitters_after_shutdown_all_fail_cleanly(self):
        mb = MicroBatcher(lambda items: list(items))
        mb.close()
        errors = []
        gate = threading.Barrier(6, timeout=5.0)

        def late(i):
            gate.wait()
            try:
                mb.submit(i)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=late, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert len(errors) == 6  # nobody hangs, everybody gets the error

    def test_close_idempotent(self):
        mb = MicroBatcher(lambda items: list(items))
        mb.close()
        mb.close()


class TestErrorIsolation:
    def test_per_slot_exception_only_fails_its_caller(self):
        """A runner returning an Exception in one slot fails only that
        caller; batchmates still get their results."""
        runner = HeldRunner(lambda i: ValueError(f"bad:{i}") if i == "poison" else f"ok:{i}")
        mb = MicroBatcher(runner)
        try:
            _, _, first = hold(mb, runner)
            items = ["a", "poison", "b", "c"]
            results, errors, threads = submit_in_threads(mb.submit, items)
            wait_queued(mb, len(items))
            runner.release.set()
            join_all(first + threads)
            assert sorted(runner.batches[1]) == sorted(items)
            assert {k: str(e) for k, e in errors.items()} == {"poison": "bad:poison"}
            assert results == {"a": "ok:a", "b": "ok:b", "c": "ok:c"}
        finally:
            mb.close()

    def test_raised_exception_fails_the_whole_batch(self):
        def run(items):
            raise RuntimeError("runner died")

        mb = MicroBatcher(run)
        try:
            with pytest.raises(RuntimeError, match="runner died"):
                mb.submit("x")
        finally:
            mb.close()

    def test_next_batch_unaffected_by_previous_failure(self):
        calls = {"n": 0}

        def run(items):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch dies")
            return [f"ok:{i}" for i in items]

        mb = MicroBatcher(run)
        try:
            with pytest.raises(RuntimeError):
                mb.submit("a")
            assert mb.submit("b") == "ok:b"
        finally:
            mb.close()

    def test_result_count_mismatch_is_error(self):
        mb = MicroBatcher(lambda items: [])
        try:
            with pytest.raises(RuntimeError):
                mb.submit(1)
        finally:
            mb.close()
