"""Exact detector-verdict parity: the epoch-matrix checker must leave
every dynamic tool's verdict bit-identical to the seed dict-clock
implementation (TSan, ROMP, Inspector, and the HB oracle).

The full-suite version of this corpus runs in
``benchmarks/bench_runtime_throughput.py``; here a one-spec-per-
(category, language) slice keeps tier-1 fast while covering every
construct the generator emits."""

import pytest

from repro.detectors.base import Verdict
from repro.detectors.inspector import IntelInspectorDetector
from repro.detectors.romp import ROMPDetector, _ordered_only_conflicts
from repro.detectors.tsan import ThreadSanitizerDetector
from repro.drb import DRBSuite
from repro.runtime import Machine, MachineConfig
from repro.runtime.machine import hb_races

from support.any_race import any_hb_race
from support.every_schedule import EverySchedule
from support.hb_oracle import hb_races_reference
from support.romp_oracle import ordered_only_conflicts_reference


@pytest.fixture(scope="module")
def corpus():
    suite = DRBSuite.evaluation(seed=0)
    seen: set = set()
    specs = []
    for spec in suite.specs:
        key = (spec.language, spec.category)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    # Every planned schedule: the machine's own traces may stop after
    # schedule 0, a choice made by the checker under test.
    machine = Machine(MachineConfig(n_threads=2, n_schedules=2))
    return [(spec, list(EverySchedule(spec.parse(), machine))) for spec in specs]


def seed_tsan_verdict(traces) -> Verdict:
    for trace in traces:
        if hb_races_reference(trace, include_lane_events=False, max_reports=1):
            return Verdict.RACE
    return Verdict.NO_RACE


def seed_romp_verdict(traces) -> Verdict:
    trace = next(iter(traces))
    if hb_races_reference(trace, include_lane_events=False, max_reports=1):
        return Verdict.RACE
    if ordered_only_conflicts_reference(trace):
        return Verdict.RACE
    return Verdict.NO_RACE


def test_tsan_verdicts_bit_identical(corpus):
    det = ThreadSanitizerDetector()
    for spec, traces in corpus:
        if not det.supports(spec):
            continue
        assert det.detect(spec, traces) == seed_tsan_verdict(traces), spec.id


def test_romp_verdicts_bit_identical(corpus):
    det = ROMPDetector()
    for spec, traces in corpus:
        if not det.supports(spec):
            continue
        assert det.detect(spec, traces) == seed_romp_verdict(traces), spec.id


def test_inspector_verdicts_stable(corpus):
    """Inspector's lockset discipline never consulted clocks; its
    verdict must be unchanged by the clock representation swap (its
    events still carry locks/atomic/region exactly as before)."""
    det = IntelInspectorDetector()
    for spec, traces in corpus:
        verdict = det.detect(spec, traces)
        assert verdict in (Verdict.RACE, Verdict.NO_RACE)
        assert det.detect(spec, traces) == verdict, spec.id


def test_oracle_matches_reference_checker(corpus):
    for spec, traces in corpus:
        fast = any(bool(hb_races(t, max_reports=1)) for t in traces)
        slow = any(bool(hb_races_reference(t, max_reports=1)) for t in traces)
        assert fast == slow, spec.id
        machine = Machine(MachineConfig(n_threads=2, n_schedules=2))
        assert any_hb_race(machine, spec.parse()) == fast, spec.id


def test_romp_ordered_pass_matches_reference_on_whole_suite():
    """The ordered-only pass groups only events holding ``$ordered``;
    the reference compares every conflicting pair.  Every trace of the
    suite at the scan default of 4 schedules must agree."""
    machine = Machine(MachineConfig(n_threads=2, n_schedules=4))
    checked = positive = 0
    for spec in DRBSuite.evaluation(seed=0).specs:
        for trace in EverySchedule(spec.parse(), machine):
            want = ordered_only_conflicts_reference(trace)
            assert _ordered_only_conflicts(trace) == want, spec.id
            checked += 1
            positive += want
    assert (checked, positive) == (1372, 44)
