"""Tests for vector clocks, including hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support.vectorclock import VectorClock


class TestBasics:
    def test_tick_and_get(self):
        vc = VectorClock()
        vc.tick("a")
        vc.tick("a")
        assert vc.get("a") == 2 and vc.get("b") == 0

    def test_join_is_componentwise_max(self):
        a = VectorClock({"x": 3, "y": 1})
        b = VectorClock({"y": 5, "z": 2})
        a.join(b)
        assert (a.get("x"), a.get("y"), a.get("z")) == (3, 5, 2)

    def test_happens_before_ordering(self):
        a = VectorClock({"t": 1})
        b = VectorClock({"t": 2})
        assert a.happens_before(b)
        assert not b.happens_before(a)
        assert not a.happens_before(a)

    def test_concurrent(self):
        a = VectorClock({"t1": 1})
        b = VectorClock({"t2": 1})
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_equality_treats_missing_as_zero(self):
        assert VectorClock({"a": 0}) == VectorClock({})

    def test_copy_is_independent(self):
        a = VectorClock({"t": 1})
        b = a.copy()
        b.tick("t")
        assert a.get("t") == 1 and b.get("t") == 2


clocks = st.dictionaries(st.sampled_from("abcd"), st.integers(0, 5), max_size=4)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(clocks, clocks)
    def test_antisymmetry(self, x, y):
        a, b = VectorClock(x), VectorClock(y)
        assert not (a.happens_before(b) and b.happens_before(a))

    @settings(max_examples=80, deadline=None)
    @given(clocks, clocks, clocks)
    def test_transitivity(self, x, y, z):
        a, b, c = VectorClock(x), VectorClock(y), VectorClock(z)
        if a.happens_before(b) and b.happens_before(c):
            assert a.happens_before(c)

    @settings(max_examples=80, deadline=None)
    @given(clocks, clocks)
    def test_join_dominates_both(self, x, y):
        a, b = VectorClock(x), VectorClock(y)
        j = a.copy()
        j.join(b)
        for t in set(x) | set(y):
            assert j.get(t) >= a.get(t) and j.get(t) >= b.get(t)

    @settings(max_examples=80, deadline=None)
    @given(clocks, clocks)
    def test_trichotomy_exclusive(self, x, y):
        a, b = VectorClock(x), VectorClock(y)
        states = [a.happens_before(b), b.happens_before(a), a.concurrent_with(b), a == b]
        assert sum(bool(s) for s in states) == 1
