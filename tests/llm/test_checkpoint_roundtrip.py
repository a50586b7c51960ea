"""Checkpoint round-trip: a reloaded model must behave identically."""

import numpy as np
import pytest

from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.nn import load_state, save_state
from repro.utils.rng import derive_rng

CFG = ModelConfig(vocab_size=320, dim=16, n_layers=2, n_heads=2, hidden_dim=32, max_seq_len=96)


@pytest.fixture(scope="module")
def tok():
    return train_tokenizer_on(
        build_general_corpus(PretrainConfig(n_sentences=120)), vocab_size=320
    )


def generate(model, tok, prompt_ids, max_new_tokens):
    return InferenceEngine(model, tok).generate_batch([prompt_ids], max_new_tokens)[0]


class TestRoundTrip:
    def test_generation_identical_after_reload(self, tok, tmp_path):
        model = CausalLM(CFG, derive_rng(1, "ckpt"))
        save_state(model, tmp_path / "m.npz", extra={"step": 7})

        reloaded = CausalLM(CFG, derive_rng(999, "other-init"))
        meta = load_state(reloaded, tmp_path / "m.npz")
        assert int(meta["step"]) == 7

        prompt = tok.encode("the river crosses", bos=True)
        a = generate(model, tok, prompt, 10)
        b = generate(reloaded, tok, prompt, 10)
        assert a == b

    def test_logits_bitwise_equal(self, tok, tmp_path):
        model = CausalLM(CFG, derive_rng(2, "ckpt2"))
        save_state(model, tmp_path / "m.npz")
        reloaded = CausalLM(CFG, derive_rng(3, "x"))
        load_state(reloaded, tmp_path / "m.npz")
        ids = np.array([[1, 8, 9, 10]])
        from repro.tensor import no_grad

        with no_grad():
            la = model.forward(ids).numpy()
            lb = reloaded.forward(ids).numpy()
        np.testing.assert_array_equal(la, lb)
