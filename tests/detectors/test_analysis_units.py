"""Unit tests for detector internals: LLOV's dependence test and
Inspector's lockset check on hand-crafted traces."""

import pytest

from repro.detectors.inspector import lockset_races
from repro.detectors.llov import _affine_pair_dependence
from repro.openmp.analysis import Affine, AccessInfo

from support.hb_oracle import build_trace


def access(coef, const, write=True):
    return AccessInfo(
        array="a", scalar="", is_write=write,
        affine=Affine(coef, const), index_expr=None,
    )


class TestAffineDependence:
    def test_unit_distance(self):
        # a[i] written, a[i-1] read: i1 = i2 - 1 has solutions.
        assert _affine_pair_dependence(access(1, 0), access(1, -1, write=False), 0, 16, 1)

    def test_same_subscript_no_cross_iteration(self):
        # a[i] vs a[i]: only i1 == i2 solves it -> no dependence.
        assert not _affine_pair_dependence(access(1, 0), access(1, 0, write=False), 0, 16, 1)

    def test_gcd_infeasible(self):
        # 2i1 vs 2i2+1: parity mismatch, gcd test rejects.
        assert not _affine_pair_dependence(access(2, 0), access(2, 1, write=False), 0, 16, 1)

    def test_mirror(self):
        # a[n-1-i] vs a[i].
        assert _affine_pair_dependence(access(-1, 15), access(1, 0, write=False), 0, 16, 1)

    def test_strided_loop(self):
        # step 2: i in {0,2,...}; write a[i], read a[i-2] -> dependence.
        assert _affine_pair_dependence(access(1, 0), access(1, -2, write=False), 0, 16, 2)

    def test_out_of_range_offset(self):
        # Read offset far beyond the iteration space: no coexistence.
        assert not _affine_pair_dependence(access(1, 0), access(1, 100, write=False), 0, 16, 1)


def ev(seq, tid, write, loc, locks=(), atomic=False, lane=False, region=0):
    return dict(
        seq=seq, tid=tid, is_write=write, loc=loc, clock={tid: seq + 1},
        locks=locks, atomic=atomic, lane=lane, region=region,
    )


class TestLockset:
    def test_unprotected_conflict_reported(self):
        tr = build_trace([ev(0, 0, True, ("sca", "s")), ev(1, 1, True, ("sca", "s"))])
        assert lockset_races(tr) == 1

    def test_common_lock_suppresses(self):
        tr = build_trace([
            ev(0, 0, True, ("sca", "s"), locks={"L"}),
            ev(1, 1, True, ("sca", "s"), locks={"L"}),
        ])
        assert lockset_races(tr) == 0

    def test_disjoint_locks_reported(self):
        tr = build_trace([
            ev(0, 0, True, ("sca", "s"), locks={"L1"}),
            ev(1, 1, True, ("sca", "s"), locks={"L2"}),
        ])
        assert lockset_races(tr) == 1

    def test_all_atomic_safe(self):
        tr = build_trace([
            ev(0, 0, True, ("sca", "s"), atomic=True),
            ev(1, 1, True, ("sca", "s"), atomic=True),
        ])
        assert lockset_races(tr) == 0

    def test_mixed_atomic_plain_reported(self):
        tr = build_trace([
            ev(0, 0, True, ("sca", "s"), atomic=True),
            ev(1, 1, True, ("sca", "s")),
        ])
        assert lockset_races(tr) == 1

    def test_read_only_location_safe(self):
        tr = build_trace([
            ev(0, 0, False, ("arr", "a", 3)),
            ev(1, 1, False, ("arr", "a", 3)),
        ])
        assert lockset_races(tr) == 0

    def test_single_thread_safe(self):
        tr = build_trace([ev(0, 0, True, ("sca", "s")), ev(1, 0, True, ("sca", "s"))])
        assert lockset_races(tr) == 0

    def test_regions_partition_fork_join(self):
        # Same location, different parallel regions: joined in between.
        tr = build_trace([
            ev(0, 0, True, ("sca", "s"), region=0),
            ev(1, 1, True, ("sca", "s"), region=1),
        ])
        assert lockset_races(tr) == 0

    def test_lane_events_invisible(self):
        tr = build_trace([
            ev(0, ("lane", 0), True, ("arr", "a", 1), lane=True),
            ev(1, ("lane", 1), False, ("arr", "a", 1), lane=True),
        ])
        assert lockset_races(tr) == 0

    def test_max_reports_caps(self):
        events = []
        for k in range(5):
            events.append(ev(2 * k, 0, True, ("arr", "a", k)))
            events.append(ev(2 * k + 1, 1, True, ("arr", "a", k)))
        assert lockset_races(build_trace(events), max_reports=3) == 3
