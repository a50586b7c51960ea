"""Epoch-matrix checker vs the seed dict-clock checker: exact parity.

``hb_races`` (vectorised over the trace's ClockBank) must reproduce the
dict-clock oracle ``hb_races_reference`` bit for bit: same reports,
same order, same truncation — across racy and race-free programs, both
lane modes, and both group-size code paths (scalar and NumPy)."""

import dataclasses

import numpy as np
import pytest

from repro.detectors.romp import ROMPDetector
from repro.detectors.tsan import ThreadSanitizerDetector
from repro.drb import DRBSuite
from repro.runtime import execute
from repro.runtime import machine as machine_mod
from repro.runtime.machine import hb_races

from support.hb_oracle import build_trace, hb_races_reference


@pytest.fixture(scope="module")
def suite():
    return DRBSuite.evaluation(seed=0)


def report_sig(reports):
    return [(r.loc, r.first.seq, r.second.seq) for r in reports]


# One spec per category x language covers every construct the suite
# generates (simd lanes, target device threads, critical, atomics, ...).
def corpus(suite):
    seen = set()
    for spec in suite.specs:
        key = (spec.language, spec.category)
        if key in seen:
            continue
        seen.add(key)
        yield spec


def test_full_construct_corpus_parity(suite):
    checked = 0
    for spec in corpus(suite):
        for seed in (0, 1):
            trace = execute(spec.parse(), n_threads=2, schedule_seed=seed)
            for lanes in (True, False):
                for cap in (1, 10, 10_000):
                    got = report_sig(hb_races(trace, lanes, max_reports=cap))
                    want = report_sig(hb_races_reference(trace, lanes, max_reports=cap))
                    assert got == want, (spec.id, seed, lanes, cap)
            checked += 1
    assert checked >= 30  # both languages, every category


def test_memoised_reports_equal_unmemoised(suite):
    """A repeated check of one trace comes from its memo and equals a
    check of the same events with an empty memo, and the oracle; a caller
    that mutates its list leaves the memo alone."""
    for spec in corpus(suite):
        trace = execute(spec.parse(), n_threads=2, schedule_seed=0)
        for lanes in (True, False):
            for cap in (1, 10_000):
                hb_races(trace, lanes, max_reports=cap).clear()
                memoised = report_sig(hb_races(trace, lanes, max_reports=cap))
                fresh = dataclasses.replace(trace, race_memo={})
                assert memoised == report_sig(hb_races(fresh, lanes, max_reports=cap))
                assert memoised == report_sig(hb_races_reference(trace, lanes, max_reports=cap))
        assert len(trace.race_memo) == 4


def test_tsan_and_romp_share_one_check_of_schedule_0(suite, monkeypatch):
    """ROMP's schedule-0 check is TSan's (no lanes, first report): the
    second tool gets the memo, though each still calls ``hb_races``."""
    checks, calls = [], []
    check, memo_call = machine_mod._check_trace, machine_mod.hb_races
    monkeypatch.setattr(machine_mod, "_check_trace", lambda *a: checks.append(a[1:]) or check(*a))
    for module in ("repro.detectors.tsan", "repro.detectors.romp"):
        monkeypatch.setattr(f"{module}.hb_races", lambda *a, **k: calls.append(k) or memo_call(*a, **k))
    spec = next(s for s in suite.specs if ROMPDetector().supports(s) and s.language == "C/C++")
    first = execute(spec.parse(), n_threads=2, schedule_seed=0)
    ThreadSanitizerDetector().detect(spec, [first])
    ROMPDetector().detect(spec, [first])
    assert len(calls) == 2
    assert checks == [(False, 1)]


def test_vectorized_path_parity_on_contended_scalar():
    """A single hot location with hundreds of events exercises the
    NumPy branch (the scalar branch handles small groups)."""
    from repro.openmp import parse_c

    src = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 200; i++) { s = s + 1; }
"""
    trace = execute(parse_c(src), n_threads=4, schedule_seed=0)
    assert len(trace.events) >= 400
    for cap in (5, 50, 10_000):
        assert report_sig(hb_races(trace, max_reports=cap)) == report_sig(
            hb_races_reference(trace, max_reports=cap)
        )


def test_events_share_rows_between_sync_points():
    """The epoch matrix interns one row per sync interval — a loop body
    with many accesses must not allocate a row per event."""
    from repro.openmp import parse_c

    src = """
int i;
double a[64];
#pragma omp parallel for
for (i = 1; i < 64; i++) { a[i] = a[i-1] + 1; }
"""
    trace = execute(parse_c(src), n_threads=2, schedule_seed=0)
    bank = trace.clock_bank
    assert len(trace.events) > 100
    # No synchronisation inside the loop: one clock per thread, so the
    # bank holds a handful of rows, not one per event.
    assert len(bank.rows) <= 4


def test_matrix_shape_and_padding():
    from repro.openmp import parse_c

    src = """
double s;
#pragma omp parallel
{
  #pragma omp critical
  { s = s + 1; }
}
"""
    trace = execute(parse_c(src), n_threads=3, schedule_seed=0)
    bank = trace.clock_bank
    m = bank.matrix()
    assert m.shape == (len(bank.rows), len(bank.tids))
    assert m.dtype == np.int64
    # Every event row agrees with the interned snapshot, zero-padded.
    for e in trace.events:
        vals = bank.rows[e.clock_row]
        assert list(m[e.clock_row, : len(vals)]) == list(vals)
        assert not m[e.clock_row, len(vals):].any()


def test_hand_built_traces_check_through_their_bank():
    """Hand-written traces get their clock rows from the builder and
    check like machine traces, agreeing with the oracle."""

    def ev(tid, clock):
        return dict(tid=tid, is_write=True, loc=("sca", "s"), clock=clock)

    racy = build_trace([ev(0, {0: 1}), ev(1, {1: 1})])
    ordered = build_trace([ev(0, {0: 1}), ev(1, {0: 1, 1: 1})])
    assert report_sig(hb_races(racy)) == [(("sca", "s"), 0, 1)]
    assert hb_races(ordered) == []
    for trace in (racy, ordered):
        assert report_sig(hb_races(trace)) == report_sig(hb_races_reference(trace))
