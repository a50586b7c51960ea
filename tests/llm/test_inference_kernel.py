"""The no_grad forward of :class:`CausalLM` is a plain-NumPy kernel: its
logits must equal the training graph's bit for bit, it must read the
weights at call time, and it owns padding, per-row positions and the
KV cache (the Tensor modules no longer take them)."""

import numpy as np
import pytest

from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.nn import LoRAConfig, apply_lora, merge_lora
from repro.nn.attention import padding_causal_mask
from repro.tensor import no_grad
from repro.utils.rng import derive_rng

SMALL = ModelConfig(vocab_size=300, dim=16, n_layers=2, n_heads=2, hidden_dim=32, max_seq_len=64)


@pytest.fixture(scope="module")
def tok():
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    return train_tokenizer_on(corpus, vocab_size=300)


def make_model(seed: int = 0) -> CausalLM:
    return CausalLM(SMALL, derive_rng(seed, "tests/llm/kernel"))


def random_ids(shape, seed: int = 1) -> np.ndarray:
    return derive_rng(seed, "tests/llm/kernel/ids").integers(0, SMALL.vocab_size, size=shape)


class TestGraphParity:
    """The kernel's parity oracle: the training graph."""

    @pytest.mark.parametrize("length", [1, 7, SMALL.max_seq_len - 1])
    def test_logits_array_equal_graph(self, length):
        model = make_model()
        ids = random_ids((3, length))
        graph = model.forward(ids).numpy()
        with no_grad():
            kernel = model.forward(ids).numpy()
        np.testing.assert_array_equal(kernel, graph)

    def test_hidden_array_equal_graph(self):
        model = make_model()
        ids = random_ids((2, 9))
        graph = model.forward(ids, return_hidden=True).numpy()
        with no_grad():
            kernel = model.forward(ids, return_hidden=True).numpy()
        np.testing.assert_array_equal(kernel, graph)

    def test_unmerged_lora_model_array_equal_graph(self):
        """A model whose Linears are still LoRALinear runs the adapter
        path in the kernel too (here with a non-zero update)."""
        model = make_model()
        apply_lora(model, LoRAConfig(rank=2), derive_rng(3, "tests/llm/kernel/lora"))
        for name, p in model.named_parameters():
            if name.endswith("lora_b"):
                p.data = derive_rng(4, name).standard_normal(p.shape).astype(np.float32)
        ids = random_ids((2, 11))
        graph = model.forward(ids).numpy()
        with no_grad():
            kernel = model.forward(ids).numpy()
        np.testing.assert_array_equal(kernel, graph)

    def test_q_tail_equals_last_rows_of_full(self):
        model = make_model()
        ids = random_ids((2, 12))
        with no_grad():
            full = model.forward(ids).numpy()
            tail = model.forward(ids, q_tail=3).numpy()
        assert tail.shape == (2, 3, SMALL.vocab_size)
        np.testing.assert_allclose(tail, full[:, -3:], atol=1e-5)

    def test_inference_arguments_need_no_grad(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.forward(random_ids((1, 4)), q_tail=1)
        with pytest.raises(ValueError):
            model.forward(random_ids((1, 4)), caches=model.new_caches())


class TestInputChecks:
    def test_token_id_out_of_range(self):
        model = make_model()
        with no_grad(), pytest.raises(IndexError):
            model.forward(np.array([[1, SMALL.vocab_size]]))
        with no_grad(), pytest.raises(IndexError):
            model.forward(np.array([[-1, 2]]))

    def test_positions_outside_rope_table(self):
        model = make_model()
        with no_grad(), pytest.raises(ValueError):
            model.forward(np.array([[1, 2]]), positions=np.array([[0, SMALL.max_seq_len]]))
        with no_grad(), pytest.raises(ValueError):
            model.forward(np.array([[1, 2]]), positions=np.array([-1, 0]))

    def test_sequence_past_rope_table(self):
        model = make_model()
        with no_grad():
            caches = model.new_caches()
            model.forward(random_ids((1, SMALL.max_seq_len)), caches=caches)
            with pytest.raises(ValueError):
                model.forward(np.array([[1]]), caches=caches)


class TestPaddingPositionsAndCache:
    def test_padded_rows_match_each_row_alone(self):
        """A left-padded row, with its own positions, computes the same
        logits as the row alone."""
        model = make_model()
        short, long = random_ids((1, 3), seed=5), random_ids((1, 6), seed=6)
        pads = np.array([3, 0])
        ids = np.concatenate([np.zeros_like(long), long], axis=0)
        ids[0, 3:] = short[0]
        positions = np.maximum(np.arange(6)[None, :] - pads[:, None], 0)
        with no_grad():
            ref_short = model.forward(short).numpy()
            ref_long = model.forward(long).numpy()
            out = model.forward(
                ids, attn_mask=padding_causal_mask(pads, 6, 6), positions=positions
            ).numpy()
        np.testing.assert_allclose(out[0, 3:], ref_short[0], atol=1e-5)
        np.testing.assert_allclose(out[1], ref_long[0], atol=1e-5)

    def test_explicit_positions_match_cache_offset(self):
        model = make_model()
        ids = random_ids((1, 8))
        with no_grad():
            caches = model.new_caches()
            model.forward(ids[:, :3], caches=caches)
            by_offset = model.forward(ids[:, 3:], caches=caches).numpy()
            caches = model.new_caches()
            model.forward(ids[:, :3], caches=caches)
            by_positions = model.forward(
                ids[:, 3:], caches=caches, positions=np.arange(3, 8)
            ).numpy()
        np.testing.assert_array_equal(by_positions, by_offset)

    def test_kv_cache_matches_full_forward(self):
        model = make_model()
        ids = random_ids((2, 6))
        with no_grad():
            full = model.forward(ids).numpy()
            caches = model.new_caches()
            steps = [model.forward(ids[:, t : t + 1], caches=caches).numpy() for t in range(6)]
        np.testing.assert_allclose(np.concatenate(steps, axis=1), full, atol=1e-4)


class TestWeightsReadAtCallTime:
    def test_load_state_dict_reaches_next_margins(self, tok):
        model = make_model(seed=0)
        engine = InferenceEngine(model, tok)
        questions = ["is there a data race in the loop", "the river"]
        before = engine.yes_no_margins(questions)
        other = make_model(seed=1)
        model.load_state_dict(other.state_dict())
        after = engine.yes_no_margins(questions)
        assert after != before
        assert after == InferenceEngine(other, tok).yes_no_margins(questions)

    def test_merge_lora_reaches_next_forward(self):
        model = make_model()
        apply_lora(model, LoRAConfig(rank=2), derive_rng(3, "tests/llm/kernel/lora"))
        for name, p in model.named_parameters():
            if name.endswith("lora_b"):
                p.data = np.full(p.shape, 0.5, dtype=np.float32)
        ids = random_ids((1, 5))
        with no_grad():
            unmerged = model.forward(ids).numpy()
            merge_lora(model)
            merged = model.forward(ids).numpy()
        np.testing.assert_allclose(merged, unmerged, atol=1e-4)
        graph = model.forward(ids).numpy()
        np.testing.assert_array_equal(merged, graph)
