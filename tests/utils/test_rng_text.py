"""Tests for the seeded RNG hub and text helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import RngHub, derive_rng
from repro.utils.text import (
    jaccard_similarity,
    normalize_ws,
    stable_hash,
    tokenize_words,
    word_count,
)


class TestRng:
    def test_derive_is_deterministic(self):
        a = derive_rng(7, "scope").random(5)
        b = derive_rng(7, "scope").random(5)
        np.testing.assert_array_equal(a, b)

    def test_scopes_independent(self):
        a = derive_rng(7, "alpha").random(5)
        b = derive_rng(7, "beta").random(5)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = derive_rng(7, "s").random(5)
        b = derive_rng(8, "s").random(5)
        assert not np.array_equal(a, b)

    def test_hub_memoises(self):
        hub = RngHub(3)
        assert hub.get("x") is hub.get("x")
        assert hub.get("x") is not hub.fresh("x")

    def test_hub_fresh_restarts_stream(self):
        hub = RngHub(3)
        first = hub.fresh("x").random()
        again = hub.fresh("x").random()
        assert first == again

    def test_hub_spawn_namespaces(self):
        a = RngHub(3).spawn("child").get("x").random()
        b = RngHub(3).spawn("other").get("x").random()
        assert a != b


class TestText:
    def test_normalize_ws(self):
        assert normalize_ws("  a \t b\n\nc ") == "a b c"

    def test_tokenize_keeps_symbols(self):
        toks = tokenize_words("translate Java to C# on H100-SXM5-80GB")
        assert "C#" in toks and "H100-SXM5-80GB" in toks

    def test_word_count(self):
        assert word_count("one two three") == 3
        assert word_count("") == 0

    def test_jaccard(self):
        assert jaccard_similarity("a b c", "a b c") == 1.0
        assert jaccard_similarity("a b", "c d") == 0.0
        assert jaccard_similarity("", "") == 1.0
        assert jaccard_similarity("a", "") == 0.0

    def test_stable_hash_stability(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=60), st.text(max_size=60))
    def test_jaccard_symmetric_bounded(self, a, b):
        s = jaccard_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == jaccard_similarity(b, a)
