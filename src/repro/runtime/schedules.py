"""Schedule exploration strategies.

The seed machine explored interleavings with one policy only: pick a
uniformly random ready thread at every step.  Race manifestation is
schedule-dependent (``single`` winners, value-dependent branches,
dynamic work distribution), so the machine now exposes *strategies* —
pluggable pickers the scheduler consults at every scheduling point:

``random``
    The seed policy, bit-identical RNG consumption (default, and the
    one every cache fingerprint / parity corpus is defined against).
``round_robin``
    Least-recently-run thread first: maximal context switching, the
    classic way to perturb coarse-grained schedules.
``chunked``
    Run one thread for a burst of steps before switching: models
    coarse preemption, the opposite extreme of round-robin.
``adversarial``
    Preemption at conflicting accesses: when two ready threads are
    both *about to* touch the same location (with a write involved),
    alternate between them so the conflicting accesses land adjacently
    — the schedules most likely to manifest value-dependent races.

A strategy instance lives for one execution; ``pick`` sees the ready
threads, each carrying its ``tid`` and its pending (not yet performed)
``action`` — ``None`` for a thread about to resume after a block.

Every random draw goes through :func:`lemire_draws`, a buffered
emulation of NumPy's bounded integer sampling: the same values as one
``rng.integers(n)`` call per draw, at a fraction of the per-call cost.
"""

from __future__ import annotations

import numpy as np


def _pending_access(action) -> tuple | None:
    """(location, is_write) the action is about to perform, else None."""
    if action is None:
        return None
    kind = action[0]
    if kind in ("read_sca", "write_sca", "atomic_rmw_sca", "atomic_write_sca"):
        return ("sca", action[1]), kind != "read_sca"
    if kind in ("read_arr", "write_arr", "atomic_rmw_arr", "atomic_write_arr"):
        return ("arr", action[1], action[2]), kind != "read_arr"
    return None


_DRAW_BATCH = 256


def lemire_draws(rng: np.random.Generator):
    """``draw(n)`` returning exactly what ``int(rng.integers(n))`` would,
    call for call, for ``1 <= n <= 2**32``.

    NumPy answers a bounded draw below ``2**32`` with Lemire's method on
    32-bit words: ``m = word * n``, reject while ``m mod 2**32`` falls
    below ``2**32 mod n``, return ``m >> 32``; ``n == 1`` consumes
    nothing.  Fetching the words in bulk as ``uint32`` reads the same
    stream of ``next_uint32`` outputs, so the draws agree as long as
    nothing else consumes ``rng``.
    """
    words: list[int] = []
    pos = 0

    def draw(n: int) -> int:
        nonlocal words, pos
        if n == 1:
            return 0
        if not 1 < n <= 0x100000000:
            raise ValueError(f"draw bound {n} outside [1, 2**32]")
        while True:
            if pos == len(words):
                words = rng.integers(0, 1 << 32, size=_DRAW_BATCH, dtype=np.uint32).tolist()
                pos = 0
            m = words[pos] * n
            pos += 1
            low = m & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    return draw


class ScheduleStrategy:
    """Base picker; subclasses choose one thread from ``ready``."""

    name = "abstract"

    def __init__(self, rng: np.random.Generator) -> None:
        self._draw = lemire_draws(rng)

    def pick(self, ready: list):
        raise NotImplementedError


class RandomStrategy(ScheduleStrategy):
    """Uniform random ready thread — the seed scheduler, exactly
    (same RNG draw per scheduling point, so traces are bit-identical
    to the pre-strategy machine)."""

    name = "random"

    def pick(self, ready: list):
        return ready[self._draw(len(ready))]


class _LruMixin(ScheduleStrategy):
    """Shared least-recently-run bookkeeping."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._step = 0
        self._last_run: dict = {}
        # Seed-derived bias so different schedule seeds explore
        # different rotations of the same policy.
        self._offset = self._draw(1 << 16)

    def _lru(self, candidates: list):
        self._step += 1
        last = self._last_run
        chosen = min(
            range(len(candidates)),
            key=lambda i: (last.get(candidates[i].tid, -1),
                           (i + self._offset) % len(candidates)),
        )
        t = candidates[chosen]
        last[t.tid] = self._step
        return t


class RoundRobinStrategy(_LruMixin):
    """Always run the thread that has waited longest: maximal
    interleaving at memory-operation granularity."""

    name = "round_robin"

    def pick(self, ready: list):
        return self._lru(ready)


class ChunkedStrategy(ScheduleStrategy):
    """Run the current thread for a burst (chunk) of steps before
    picking a new one at random — coarse preemption, like an OS
    quantum much larger than one memory access."""

    name = "chunked"

    def __init__(self, rng: np.random.Generator, chunk: int | None = None) -> None:
        super().__init__(rng)
        self.chunk = int(chunk) if chunk else 4 + self._draw(13)
        self._current = None
        self._budget = 0

    def pick(self, ready: list):
        if self._current is not None and self._budget > 0:
            for t in ready:
                if t.tid == self._current:
                    self._budget -= 1
                    return t
        t = ready[self._draw(len(ready))]
        self._current = t.tid
        self._budget = self.chunk - 1
        return t


class AdversarialStrategy(_LruMixin):
    """Preempt at conflicting accesses.

    When at least two ready threads have pending accesses to the same
    location and one of those accesses is a write, restrict the pick to
    those threads and alternate among them (least-recently-run first):
    the conflicting accesses execute back to back, the interleaving
    most likely to flip value-dependent control flow and manifest the
    racy path.  With no pending conflict it degrades to round-robin,
    itself a strong perturbation of the seed's uniform policy.
    """

    name = "adversarial"

    def pick(self, ready: list):
        by_loc: dict = {}
        for t in ready:
            acc = _pending_access(t.action)
            if acc is not None:
                by_loc.setdefault(acc[0], []).append((t, acc[1]))
        for group in by_loc.values():
            if len(group) >= 2 and any(w for _, w in group):
                return self._lru([t for t, _ in group])
        return self._lru(ready)


SCHEDULE_STRATEGIES: dict[str, type] = {
    cls.name: cls
    for cls in (RandomStrategy, RoundRobinStrategy, ChunkedStrategy, AdversarialStrategy)
}


def make_strategy(name: str, rng: np.random.Generator) -> ScheduleStrategy:
    try:
        cls = SCHEDULE_STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULE_STRATEGIES))
        raise ValueError(f"unknown schedule strategy {name!r} (known: {known})") from None
    return cls(rng)
