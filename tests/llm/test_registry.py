"""Tests for the model registry (base-model construction and caching)."""

import numpy as np
import pytest

from repro.llm import ModelConfig, ModelRegistry, PretrainConfig
from repro.llm.registry import BASE_RECIPES


TINY = ModelConfig(vocab_size=330, dim=16, n_layers=1, n_heads=2, hidden_dim=32, max_seq_len=64)
FAST = PretrainConfig(n_sentences=120, steps=15, batch_size=4, seq_len=32)


class TestRegistry:
    def test_available_models(self):
        assert sorted(BASE_RECIPES) == ["llama-13b-sim", "llama2-13b-sim"]

    def test_unknown_model_rejected(self):
        reg = ModelRegistry(TINY, FAST, cache_dir=None)
        with pytest.raises(KeyError):
            reg.base_model("gpt-5")

    def test_base_models_differ(self):
        reg = ModelRegistry(TINY, FAST, cache_dir=None)
        a = reg.base_model("llama-13b-sim")
        b = reg.base_model("llama2-13b-sim")
        assert not np.allclose(a.tok_emb.weight.data, b.tok_emb.weight.data)

    def test_memoised_in_process(self):
        reg = ModelRegistry(TINY, FAST, cache_dir=None)
        assert reg.base_model("llama-13b-sim") is reg.base_model("llama-13b-sim")

    def test_disk_cache_roundtrip(self, tmp_path):
        reg1 = ModelRegistry(TINY, FAST, cache_dir=tmp_path)
        m1 = reg1.base_model("llama-13b-sim")
        # Fresh registry, same cache dir: must load identical weights
        # without retraining (observable through identical parameters).
        reg2 = ModelRegistry(TINY, FAST, cache_dir=tmp_path)
        m2 = reg2.base_model("llama-13b-sim")
        for (n1, p1), (n2, p2) in zip(
            sorted(m1.state_dict().items()), sorted(m2.state_dict().items())
        ):
            assert n1 == n2
            np.testing.assert_array_equal(p1, p2)

    def test_tokenizer_shared_and_cached(self, tmp_path):
        reg = ModelRegistry(TINY, FAST, cache_dir=tmp_path)
        t1 = reg.tokenizer()
        assert reg.tokenizer() is t1
        reg2 = ModelRegistry(TINY, FAST, cache_dir=tmp_path)
        t2 = reg2.tokenizer()
        assert t2.encode("the river crosses") == t1.encode("the river crosses")

    def test_extra_texts_change_cache_key(self, tmp_path):
        reg1 = ModelRegistry(TINY, FAST, cache_dir=tmp_path)
        reg2 = ModelRegistry(TINY, FAST, extra_tokenizer_texts=["#pragma omp parallel"],
                             cache_dir=tmp_path)
        assert reg1._cache_key("x") != reg2._cache_key("x")


class TestCacheKeyCoversFullConfig:
    """Regression: the key used to omit lr/seq_len (and the per-recipe
    corpus_scale/seed), so changing them silently served stale
    checkpoints."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lr", 9e-3),
            ("seq_len", 24),
            ("batch_size", 8),
            ("steps", 16),
            ("n_sentences", 121),
            ("corpus_scale", 1.7),
            ("seed", 99),
            ("schedule", "cosine"),
        ],
    )
    def test_every_pretrain_field_changes_key(self, field, value):
        import dataclasses

        base = ModelRegistry(TINY, FAST, cache_dir=None)
        changed = ModelRegistry(
            TINY, dataclasses.replace(FAST, **{field: value}), cache_dir=None
        )
        assert base._cache_key("llama-13b-sim") != changed._cache_key("llama-13b-sim")

    def test_model_fields_change_key(self):
        import dataclasses

        base = ModelRegistry(TINY, FAST, cache_dir=None)
        for field, value in (("hidden_dim", 40), ("max_seq_len", 96)):
            changed = ModelRegistry(
                dataclasses.replace(TINY, **{field: value}), FAST, cache_dir=None
            )
            assert base._cache_key("llama-13b-sim") != changed._cache_key("llama-13b-sim")

    def test_recipes_produce_distinct_keys(self):
        reg = ModelRegistry(TINY, FAST, cache_dir=None)
        assert reg._cache_key("llama-13b-sim") != reg._cache_key("llama2-13b-sim")

    def test_changed_lr_actually_retrains(self, tmp_path):
        import dataclasses

        reg1 = ModelRegistry(TINY, FAST, cache_dir=tmp_path)
        m1 = reg1.base_model("llama-13b-sim")
        reg2 = ModelRegistry(
            TINY, dataclasses.replace(FAST, lr=FAST.lr * 4), cache_dir=tmp_path
        )
        m2 = reg2.base_model("llama-13b-sim")
        # With the old key this loaded m1's checkpoint verbatim.
        assert not np.allclose(m1.tok_emb.weight.data, m2.tok_emb.weight.data)
