"""Epoch-matrix vector clocks.

The seed runtime copied a dict-based :class:`VectorClock` for every
shared-memory event — an O(threads) allocation on the hottest path in
the system.  This module replaces that with FastTrack-style epochs:

* a per-trace :class:`ClockBank` interns every *distinct* clock snapshot
  as one row of an ``events x threads`` integer matrix (rows are shared
  by all events a thread performs between synchronisation points, so a
  tight loop allocates one row per sync interval, not per access);
* threads carry a :class:`EpochClock` — a flat ``list[int]`` indexed by
  bank column — whose tick/join are plain integer ops;
* events store a *row index*; :class:`ClockView` lazily rebuilds a
  dict-compatible :class:`VectorClock` only if someone asks for one.

Why epochs suffice: knowledge in this machine propagates exclusively by
full-vector joins (thread spawn, lock release→acquire, barrier merge,
team join), and a thread ticks its own component before any snapshot of
its clock escapes (release/barrier/join all tick).  Hence for events
``a``/``b`` on threads ``ta != tb``::

    a happens-before b  <=>  b.clock[ta] >= a.clock[ta]

so concurrency is two integer comparisons per pair — and, with the bank
matrix, one NumPy broadcast per memory location.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.vectorclock import VectorClock


class ClockBank:
    """Per-trace store of interned clock snapshots (the epoch matrix)."""

    __slots__ = ("tids", "cols", "rows", "views", "_matrix")

    def __init__(self) -> None:
        self.tids: list = []  # column -> thread id
        self.cols: dict = {}  # thread id -> column
        self.rows: list[tuple] = []  # row -> clock values (len <= n_cols)
        self.views: list[ClockView] = []  # row -> the one view all its events share
        self._matrix: np.ndarray | None = None

    def col(self, tid) -> int:
        """Column for ``tid``, allocating one on first sight."""
        c = self.cols.get(tid)
        if c is None:
            c = len(self.tids)
            self.cols[tid] = c
            self.tids.append(tid)
        return c

    @property
    def n_cols(self) -> int:
        return len(self.tids)

    def add_row(self, values: list[int]) -> int:
        row = len(self.rows)
        self.rows.append(tuple(values))
        self.views.append(ClockView(self, row))
        return row

    def component(self, row: int, col: int) -> int:
        """One matrix cell, tolerant of rows snapshotted before ``col``
        existed (absent components are zero)."""
        vals = self.rows[row]
        return vals[col] if col < len(vals) else 0

    def row_dict(self, row: int) -> dict:
        return {self.tids[i]: v for i, v in enumerate(self.rows[row]) if v}

    def matrix(self) -> np.ndarray:
        """The full ``rows x threads`` epoch matrix, zero-padded for
        columns that appeared after a row was interned.  Cached until
        more rows arrive."""
        m = self._matrix
        if m is None or m.shape[0] != len(self.rows) or m.shape[1] != len(self.tids):
            m = np.zeros((len(self.rows), len(self.tids)), dtype=np.int64)
            for i, vals in enumerate(self.rows):
                if vals:
                    m[i, : len(vals)] = vals
            self._matrix = m
        return m


class EpochClock:
    """A thread's working clock: flat ints over bank columns.

    Mutations invalidate the cached row, so consecutive events between
    synchronisation points share one interned snapshot.
    """

    __slots__ = ("bank", "values", "_row")

    def __init__(self, bank: ClockBank, values=None) -> None:
        self.bank = bank
        self.values: list[int] = list(values) if values is not None else []
        self._row: int | None = None

    def tick(self, tid) -> None:
        col = self.bank.col(tid)
        v = self.values
        if col >= len(v):
            v.extend([0] * (col + 1 - len(v)))
        v[col] += 1
        self._row = None

    def join(self, other_values) -> None:
        """In-place component-wise max with a raw value list/tuple."""
        v = self.values
        if len(other_values) > len(v):
            v.extend([0] * (len(other_values) - len(v)))
        changed = False
        for i, o in enumerate(other_values):
            if o > v[i]:
                v[i] = o
                changed = True
        if changed:
            self._row = None

    def copy(self) -> "EpochClock":
        return EpochClock(self.bank, self.values)

    def snapshot(self) -> list[int]:
        return list(self.values)

    def row(self) -> int:
        """Interned row for the current value — allocated at most once
        per sync interval (this is what replaces per-event ``vc.copy()``)."""
        r = self._row
        if r is None:
            r = self._row = self.bank.add_row(self.values)
        return r

    def get(self, tid) -> int:
        col = self.bank.cols.get(tid)
        if col is None or col >= len(self.values):
            return 0
        return self.values[col]


class ClockView(VectorClock):
    """Read-only :class:`VectorClock` facade over one bank row.

    Events expose this as ``event.vc`` so existing consumers
    (``happens_before``/``concurrent_with``/``get``/equality) keep
    working; the dict is materialised lazily, on first use.
    """

    __slots__ = ("bank", "row", "_dict")

    def __init__(self, bank: ClockBank, row: int) -> None:
        self.bank = bank
        self.row = row
        self._dict = None

    @property
    def clock(self) -> dict:
        d = self._dict
        if d is None:
            d = self._dict = self.bank.row_dict(self.row)
        return d

    def tick(self, tid) -> None:  # pragma: no cover - guarded misuse
        raise TypeError("ClockView is a read-only snapshot")

    def join(self, other) -> None:  # pragma: no cover - guarded misuse
        raise TypeError("ClockView is a read-only snapshot")
