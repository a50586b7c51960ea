"""Tests for seeded RNG derivation and the text helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import derive_rng
from repro.utils.text import (
    jaccard_similarity,
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


class TestText:
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
