"""The dict-vector-clock race checker, kept as the parity oracle for the
epoch-matrix :func:`repro.runtime.machine.hb_races`, plus a builder for
hand-written traces.

The oracle is the seed checker: pairwise ``combinations`` over full dict
vector clocks, with no use of the epoch shortcut.  Each event's dict
clock is rebuilt from its row of ``trace.clock_bank``.
"""

from __future__ import annotations

from itertools import combinations

from repro.runtime.clocks import ClockBank
from repro.runtime.interpreter import MemEvent, Trace
from repro.runtime.machine import RaceReport, _group_by_loc, events_conflict

from support.vectorclock import VectorClock


def event_clock(bank: ClockBank, row: int) -> VectorClock:
    """The dict vector clock of one epoch-matrix row."""
    return VectorClock({bank.tids[i]: v for i, v in enumerate(bank.rows[row]) if v})


def hb_races_reference(
    trace: Trace,
    include_lane_events: bool = True,
    max_reports: int = 10,
) -> list[RaceReport]:
    """The seed checker: pairwise ``combinations`` over dict vector
    clocks.  The parity oracle for the epoch-matrix path (and the
    benchmark baseline)."""
    bank = trace.clock_bank
    clocks: dict[int, VectorClock] = {}  # row -> clock, shared like the rows

    def vc(e: MemEvent) -> VectorClock:
        c = clocks.get(e.clock_row)
        if c is None:
            c = clocks[e.clock_row] = event_clock(bank, e.clock_row)
        return c

    by_loc = _group_by_loc(trace, include_lane_events)
    reports: list[RaceReport] = []
    for loc, events in by_loc.items():
        writes_present = any(e.is_write for e in events)
        if not writes_present or len({e.tid for e in events}) < 2:
            continue
        for a, b in combinations(events, 2):
            if not events_conflict(a, b):
                continue
            if vc(a).concurrent_with(vc(b)):
                reports.append(RaceReport(loc, a, b))
                if len(reports) >= max_reports:
                    return reports
    return reports


def build_trace(events) -> Trace:
    """A :class:`Trace` from hand-written events.

    Each item is a dict of :class:`MemEvent` fields in which ``clock``
    (thread id -> logical time) stands for ``clock_row``; the clock is
    interned as a row of the trace's bank.  ``seq`` defaults to the
    event's position and ``locks`` to none.
    """
    bank = ClockBank()
    out: list[MemEvent] = []
    for seq, fields in enumerate(events):
        fields = dict(fields)
        clock = fields.pop("clock")
        bank.col(fields["tid"])
        for tid in clock:
            bank.col(tid)
        fields.setdefault("seq", seq)
        fields["locks"] = frozenset(fields.get("locks", ()))
        row = bank.add_row([clock.get(tid, 0) for tid in bank.tids])
        out.append(MemEvent(clock_row=row, **fields))
    return Trace(events=out, clock_bank=bank)
