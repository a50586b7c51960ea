"""The machine facade: run a program under several explored schedules and
provide the happens-before race oracle that dynamic detectors build on.

The race check is epoch-based (see :mod:`repro.runtime.clocks`): every
event carries a row index into the trace's epoch matrix, and
per-location concurrency becomes one NumPy broadcast (or a few integer
comparisons for small groups) instead of pairwise dict-clock algebra.
A dict-clock checker in the test suite is the parity oracle: both must
give identical reports.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.openmp.ast_nodes import Program
from repro.runtime.interpreter import CompiledProgram, MemEvent, Trace, execute


@dataclass(frozen=True)
class MachineConfig:
    """Exploration parameters: schedule ``k`` runs with seed
    ``base_seed + k``."""

    n_threads: int = 2
    n_schedules: int = 2
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_threads < 1 or self.n_schedules < 1:
            raise ValueError("threads and schedules must be >= 1")


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
    # order, so reports match the scalar path bit for bit.
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
    for large groups).  Reports come in ``combinations()`` order per
    location, locations in order of first access, and stop at
    ``max_reports``.
    """
    bank = trace.clock_bank
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


class ScheduleTraces:
    """One program's traces, in plan order, each executed on first read.

    Reading schedule ``k`` runs it once, through this module's
    :func:`execute`, and keeps the trace, so every iteration shares
    each execution.  A schedule that raises keeps its exception: every
    later read raises it again without re-running.  The program is
    compiled once, by the first execution.

    Iteration may stop before the plan does, so this is an iterable,
    not a sequence of ``n_schedules``: when a reader first asks for a
    schedule past 0 of a schedule-invariant program
    (:attr:`CompiledProgram.schedule_invariant`), one lane-inclusive
    race check of schedule 0 runs; if it finds no race, no later
    schedule can change any tool's verdict, and none is run.
    """

    def __init__(self, code: CompiledProgram, n_threads: int, plan: list[int]) -> None:
        self._code = code
        self._n_threads = n_threads
        self._plan = plan
        self._runs: list[Trace | Exception | None] = [None] * len(plan)
        self._settled: bool | None = None

    def _run(self, k: int) -> Trace:
        run = self._runs[k]
        if run is None:
            try:
                run = execute(
                    self._code,
                    n_threads=self._n_threads,
                    schedule_seed=self._plan[k],
                )
            except Exception as exc:  # noqa: BLE001 - kept for every reader
                run = exc
            self._runs[k] = run
        if isinstance(run, Exception):
            raise run
        return run

    def _settled_on_first(self) -> bool:
        """Whether schedule 0 decides every verdict (see class doc)."""
        if self._settled is None:
            self._settled = self._code.schedule_invariant and not hb_races(
                self._run(0), include_lane_events=True, max_reports=1
            )
        return self._settled

    def __iter__(self) -> Iterator[Trace]:
        for k in range(len(self._plan)):
            if k == 1 and self._settled_on_first():
                return
            yield self._run(k)


class Machine:
    """Runs programs across schedules."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()

    def schedule_plan(self) -> list[int]:
        """The seed of each explored schedule, in plan order."""
        cfg = self.config
        return [cfg.base_seed + k for k in range(cfg.n_schedules)]

    def traces(self, program: Program) -> ScheduleTraces:
        """The program's traces in plan order, each run on first read;
        a schedule-invariant program whose schedule 0 is race-free
        yields only that one (see :class:`ScheduleTraces`)."""
        return ScheduleTraces(CompiledProgram(program), self.config.n_threads, self.schedule_plan())
