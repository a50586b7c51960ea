"""The machine facade: run a program under several explored schedules and
provide the happens-before race oracle that dynamic detectors build on.

The race check is epoch-based (see :mod:`repro.runtime.clocks`): for
machine-produced traces every event carries a row index into the trace's
epoch matrix, and per-location concurrency becomes one NumPy broadcast
(or a few integer comparisons for small groups) instead of pairwise
dict-clock algebra.  :func:`hb_races_reference` keeps the seed
dict-``VectorClock`` + ``combinations`` implementation alive as the
parity oracle and benchmark baseline; hand-built traces (no clock bank)
fall back to it transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from repro.openmp.ast_nodes import Program
from repro.runtime.interpreter import CompiledProgram, MemEvent, Trace, execute
from repro.runtime.schedules import SCHEDULE_STRATEGIES


@dataclass(frozen=True)
class MachineConfig:
    """Exploration parameters.

    ``strategies`` cycle over the schedule budget: schedule ``k`` runs
    strategy ``strategies[k % len(strategies)]`` with seed
    ``base_seed + k``.  The default single ``random`` strategy is the
    seed machine exactly.
    """

    n_threads: int = 2
    n_schedules: int = 2
    base_seed: int = 0
    strategies: tuple[str, ...] = ("random",)

    def __post_init__(self) -> None:
        if self.n_threads < 1 or self.n_schedules < 1:
            raise ValueError("threads and schedules must be >= 1")
        if not isinstance(self.strategies, tuple):
            object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.strategies:
            raise ValueError("need at least one schedule strategy")
        for name in self.strategies:
            if name not in SCHEDULE_STRATEGIES:
                known = ", ".join(sorted(SCHEDULE_STRATEGIES))
                raise ValueError(
                    f"unknown schedule strategy {name!r} (known: {known})"
                )


@dataclass(frozen=True)
class RaceReport:
    """A pair of conflicting, unordered accesses."""

    loc: tuple
    first: MemEvent
    second: MemEvent


def events_conflict(a: MemEvent, b: MemEvent) -> bool:
    """Same location, different threads, at least one write, not both
    atomic (atomic-atomic pairs are well-defined)."""
    if a.loc != b.loc or a.tid == b.tid:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.atomic and b.atomic:
        return False
    return True


def _group_by_loc(trace: Trace, include_lane_events: bool) -> dict[tuple, list[MemEvent]]:
    by_loc: dict[tuple, list[MemEvent]] = {}
    for e in trace.events:
        if e.lane and not include_lane_events:
            continue
        by_loc.setdefault(e.loc, []).append(e)
    return by_loc


def hb_races_reference(
    trace: Trace,
    include_lane_events: bool = True,
    max_reports: int = 10,
) -> list[RaceReport]:
    """The seed checker: pairwise ``combinations`` over dict vector
    clocks.  Kept verbatim as the parity oracle for the epoch-matrix
    path (and as the benchmark baseline); also the fallback for traces
    assembled by hand without a clock bank."""
    by_loc = _group_by_loc(trace, include_lane_events)
    reports: list[RaceReport] = []
    for loc, events in by_loc.items():
        writes_present = any(e.is_write for e in events)
        if not writes_present or len({e.tid for e in events}) < 2:
            continue
        for a, b in combinations(events, 2):
            if not events_conflict(a, b):
                continue
            if a.vc.concurrent_with(b.vc):
                reports.append(RaceReport(loc, a, b))
                if len(reports) >= max_reports:
                    return reports
    return reports


# Below this group size the NumPy broadcast costs more than it saves;
# the scalar epoch test (two integer comparisons per pair) wins.
_VECTORIZE_MIN_EVENTS = 24


def _scalar_group_races(
    bank, loc, events: list[MemEvent], reports: list[RaceReport], max_reports: int
) -> bool:
    """Epoch check for one small location group; True when truncated."""
    rows = bank.rows
    cols = bank.cols
    n = len(events)
    ecols = [cols[e.tid] for e in events]
    eps = [bank.component(e.clock_row, c) for e, c in zip(events, ecols)]
    for i in range(n):
        a = events[i]
        ra, ca, ea = rows[a.clock_row], ecols[i], eps[i]
        for j in range(i + 1, n):
            b = events[j]
            cb = ecols[j]
            if ca == cb or not (a.is_write or b.is_write) or (a.atomic and b.atomic):
                continue
            # concurrent <=> neither event's thread component reached
            # the other's epoch (see repro.runtime.clocks).
            rb = rows[b.clock_row]
            if (rb[ca] if ca < len(rb) else 0) >= ea:
                continue
            if (ra[cb] if cb < len(ra) else 0) >= eps[j]:
                continue
            reports.append(RaceReport(loc, a, b))
            if len(reports) >= max_reports:
                return True
    return False


def _vector_group_races(
    bank, loc, events: list[MemEvent], reports: list[RaceReport], max_reports: int
) -> bool:
    """Epoch check for one large location group, fully vectorised."""
    matrix = bank.matrix()
    sub = matrix[[e.clock_row for e in events]]
    tc = np.asarray([bank.cols[e.tid] for e in events])
    g = len(events)
    eps = sub[np.arange(g), tc]
    know = sub[:, tc]  # know[x, y] = clock of event x for event y's thread
    # hb[i, j]: event j's clock reached i's epoch => i happens-before j
    hb = know.T >= eps[:, None]
    conc = ~(hb | hb.T)
    writes = np.asarray([e.is_write for e in events])
    atomics = np.asarray([e.atomic for e in events])
    racy = (
        conc
        & (tc[:, None] != tc[None, :])
        & (writes[:, None] | writes[None, :])
        & ~(atomics[:, None] & atomics[None, :])
    )
    # argwhere over the upper triangle walks pairs in combinations()
    # order, so reports match the reference bit for bit.
    for i, j in np.argwhere(np.triu(racy, k=1)):
        reports.append(RaceReport(loc, events[i], events[j]))
        if len(reports) >= max_reports:
            return True
    return False


def hb_races(
    trace: Trace,
    include_lane_events: bool = True,
    max_reports: int = 10,
) -> list[RaceReport]:
    """Happens-before race detection over one trace.

    ``include_lane_events=False`` models thread-level tools (TSan,
    Inspector) that observe SIMD lanes as a single host thread.
    Events are grouped per location; within a group conflicting pairs
    are checked for concurrency via the trace's epoch matrix (vectorised
    for large groups).  Report contents, ordering, and ``max_reports``
    truncation are identical to :func:`hb_races_reference`.
    """
    bank = trace.clock_bank
    if bank is None:
        return hb_races_reference(trace, include_lane_events, max_reports)

    reports: list[RaceReport] = []
    for loc, events in _group_by_loc(trace, include_lane_events).items():
        if not any(e.is_write for e in events) or len({e.tid for e in events}) < 2:
            continue
        check = (
            _vector_group_races
            if len(events) >= _VECTORIZE_MIN_EVENTS
            else _scalar_group_races
        )
        if check(bank, loc, events, reports, max_reports):
            return reports
    return reports


class Machine:
    """Runs programs across schedules."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()

    def schedule_plan(self) -> list[tuple[str, int]]:
        """(strategy, seed) per explored schedule, strategies cycling."""
        cfg = self.config
        return [
            (cfg.strategies[k % len(cfg.strategies)], cfg.base_seed + k)
            for k in range(cfg.n_schedules)
        ]

    def iter_traces(self, program: Program) -> Iterator[Trace]:
        """Lazily execute one schedule at a time, in plan order — the
        short-circuit substrate for :meth:`any_hb_race`.  The program is
        compiled once, by the first execution, and every schedule reuses
        the closures."""
        code = CompiledProgram(program)
        for strategy, seed in self.schedule_plan():
            yield execute(
                code,
                n_threads=self.config.n_threads,
                schedule_seed=seed,
                strategy=strategy,
            )

    def traces(self, program: Program) -> list[Trace]:
        return list(self.iter_traces(program))

    def any_hb_race(self, program: Program, include_lane_events: bool = True) -> bool:
        """Ground-truth-style oracle: does any explored schedule exhibit a
        happens-before race (lanes counted as parallel by default)?
        Stops executing schedules at the first racy one."""
        for trace in self.iter_traces(program):
            if hb_races(trace, include_lane_events=include_lane_events, max_reports=1):
                return True
        return False
