"""Lazy schedule exploration and report-truncation semantics."""

import pytest

import repro.runtime.machine as machine_mod
from repro.openmp import parse_c
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.machine import hb_races

from support.any_race import any_hb_race
from support.hb_oracle import hb_races_reference

RACY = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 8; i++) { s = s + 1; }
"""

RACE_FREE = """
int i;
double a[16];
#pragma omp parallel for
for (i = 0; i < 16; i++) { a[i] = i; }
"""

# Race-free too, but the lock lets the schedule pick who enters first,
# so no schedule settles the others.
LOCKED = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 8; i++) {
  #pragma omp critical
  { s = s + 1; }
}
"""


class _CountingExecute:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return execute(*args, **kwargs)


class TestShortCircuit:
    def test_any_hb_race_stops_at_first_racy_schedule(self, monkeypatch):
        counter = _CountingExecute()
        monkeypatch.setattr(machine_mod, "execute", counter)
        m = Machine(MachineConfig(n_threads=2, n_schedules=6))
        assert any_hb_race(m, parse_c(RACY))
        assert counter.calls == 1  # eager seed code executed all 6 up front

    def test_race_free_program_still_explores_all_schedules(self, monkeypatch):
        counter = _CountingExecute()
        monkeypatch.setattr(machine_mod, "execute", counter)
        m = Machine(MachineConfig(n_threads=2, n_schedules=6))
        assert not any_hb_race(m, parse_c(LOCKED))
        assert counter.calls == 6

    def test_race_free_sync_free_program_settles_on_schedule_0(self, monkeypatch):
        counter = _CountingExecute()
        monkeypatch.setattr(machine_mod, "execute", counter)
        m = Machine(MachineConfig(n_threads=2, n_schedules=6))
        assert not any_hb_race(m, parse_c(RACE_FREE))
        assert counter.calls == 1

    def test_traces_is_lazy(self, monkeypatch):
        counter = _CountingExecute()
        monkeypatch.setattr(machine_mod, "execute", counter)
        m = Machine(MachineConfig(n_threads=2, n_schedules=4))
        it = iter(m.traces(parse_c(RACY)))
        assert counter.calls == 0
        next(it)
        assert counter.calls == 1
        next(it)
        assert counter.calls == 2

    def test_traces_has_full_length_and_memoises(self, monkeypatch):
        counter = _CountingExecute()
        monkeypatch.setattr(machine_mod, "execute", counter)
        m = Machine(MachineConfig(n_threads=2, n_schedules=3))
        traces = m.traces(parse_c(RACY))
        assert counter.calls == 0
        assert len(list(traces)) == 3 and counter.calls == 3
        once, twice = list(traces), list(traces)
        assert all(a is b for a, b in zip(once, twice)) and counter.calls == 3
        # Each schedule is the one a direct execute() gives.
        for trace, seed in zip(traces, m.schedule_plan()):
            direct = execute(parse_c(RACY), n_threads=2, schedule_seed=seed)
            assert trace.events == direct.events

    def test_failing_schedule_raises_again_without_rerunning(self, monkeypatch):
        calls = []

        def flaky(code, **kwargs):
            calls.append(kwargs["schedule_seed"])
            if kwargs["schedule_seed"] == 1:
                raise RuntimeError("schedule 1 failed")
            return execute(code, **kwargs)

        monkeypatch.setattr(machine_mod, "execute", flaky)
        traces = Machine(MachineConfig(n_threads=2, n_schedules=3)).traces(parse_c(LOCKED))
        firsts = []
        for _ in range(3):
            it = iter(traces)
            firsts.append(next(it))
            with pytest.raises(RuntimeError, match="schedule 1 failed"):
                next(it)
        assert firsts[0] is firsts[1] is firsts[2]
        assert calls == [0, 1]


class TestMaxReports:
    @pytest.fixture(scope="class")
    def hot_trace(self):
        # 2 threads x 40 unsynchronised RMWs on one scalar: hundreds of
        # racy pairs at a single location.
        src = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 40; i++) { s = s + 1; }
"""
        return execute(parse_c(src), n_threads=2, schedule_seed=0)

    def test_exactly_max_reports_returned(self, hot_trace):
        assert len(hb_races(hot_trace, max_reports=1000)) == 1000
        for cap in (1, 5, 10):
            assert len(hb_races(hot_trace, max_reports=cap)) == cap

    def test_truncation_is_deterministic_and_matches_reference(self, hot_trace):
        for cap in (3, 17):
            once = [(r.loc, r.first.seq, r.second.seq) for r in hb_races(hot_trace, max_reports=cap)]
            twice = [(r.loc, r.first.seq, r.second.seq) for r in hb_races(hot_trace, max_reports=cap)]
            ref = [(r.loc, r.first.seq, r.second.seq) for r in hb_races_reference(hot_trace, max_reports=cap)]
            assert once == twice == ref

    def test_reports_are_seq_ordered_pairs(self, hot_trace):
        for r in hb_races(hot_trace, max_reports=20):
            assert r.first.seq < r.second.seq
            assert r.first.loc == r.second.loc == r.loc


class TestLaneFiltering:
    @pytest.fixture(scope="class")
    def simd_trace(self):
        # Dependence distance 1 < safelen: lanes race with each other,
        # but a thread-level tool sees one host thread.
        src = """
int i;
double a[16];
#pragma omp simd
for (i = 1; i < 16; i++) { a[i] = a[i-1] + 1; }
"""
        return execute(parse_c(src), n_threads=2, schedule_seed=0)

    def test_lane_race_visible_to_oracle(self, simd_trace):
        assert all(e.lane for e in simd_trace.events)
        assert hb_races(simd_trace, include_lane_events=True, max_reports=1)

    def test_lane_only_race_suppressed_for_thread_level_tools(self, simd_trace):
        assert hb_races(simd_trace, include_lane_events=False) == []

    def test_lane_filter_matches_reference(self, simd_trace):
        for lanes in (True, False):
            got = [(r.first.seq, r.second.seq) for r in hb_races(simd_trace, lanes)]
            ref = [(r.first.seq, r.second.seq) for r in hb_races_reference(simd_trace, lanes)]
            assert got == ref
