"""The no_grad forward of :class:`CausalLM` is a plain-NumPy kernel: its
logits must equal the training graph's bit for bit, it must read the
weights at call time, and it owns padding, per-row positions and the
KV cache (the Tensor modules no longer take them).  Its scoring prefill
(``forward(ids, lengths=...)``) must match each prompt's own forward."""

import functools
import threading
import tracemalloc

import numpy as np
import pytest

from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.engine import clamp_prompt
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
        with pytest.raises(ValueError):
            model.forward(random_ids(4), lengths=[4])


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


def packed(prompts):
    return np.concatenate(prompts), np.array([len(p) for p in prompts])


def alone(model, prompt) -> np.ndarray:
    """A prompt's next-token logits from its own full forward."""
    with no_grad():
        return model.forward(np.asarray(prompt)).numpy()[0, -1]


class TestScoringPrefill:
    """``forward(ids, lengths=...)``: packed prompts, no padding."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_logits_match_each_prompt_alone(self, tok, n_layers):
        """Lengths around the query block (32) and the context, an
        over-long prompt the engine clamps, more prompts than one chunk,
        all in shuffled order."""
        cfg = ModelConfig(vocab_size=300, dim=16, n_layers=n_layers, n_heads=2,
                          hidden_dim=32, max_seq_len=64)
        model = CausalLM(cfg, derive_rng(n_layers, "tests/llm/kernel/depth"))
        lengths = [1, 2, 31, 32, 33, 63, 90] + [5, 17, 40, 63, 1, 33, 12, 50, 28, 2, 61]
        rng = derive_rng(7, "tests/llm/kernel/score")
        rng.shuffle(lengths)
        prompts = [random_ids(n, seed=i).tolist() for i, n in enumerate(lengths)]
        got = InferenceEngine(model, tok).next_token_logits(prompts)
        for row, p in zip(got, prompts):
            np.testing.assert_allclose(row, alone(model, clamp_prompt(p, 0, 64)), atol=1e-5)

    def test_permuted_input_gives_permuted_rows(self):
        model = make_model()
        prompts = [random_ids(n, seed=n + i) for i, n in enumerate([9, 40, 3, 40, 63, 1, 33])]
        perm = derive_rng(2, "tests/llm/kernel/perm").permutation(len(prompts))
        with no_grad():
            ids, lens = packed(prompts)
            out = model.forward(ids, lengths=lens).numpy()
            ids, lens = packed([prompts[i] for i in perm])
            permuted = model.forward(ids, lengths=lens).numpy()
        np.testing.assert_array_equal(permuted, out[perm])

    def test_unmerged_lora_model(self):
        model = make_model()
        apply_lora(model, LoRAConfig(rank=2), derive_rng(3, "tests/llm/kernel/lora"))
        for name, p in model.named_parameters():
            if name.endswith("lora_b"):
                p.data = derive_rng(4, name).standard_normal(p.shape).astype(np.float32)
        prompts = [random_ids(n, seed=n) for n in (3, 35, 20)]
        ids, lens = packed(prompts)
        with no_grad():
            got = model.forward(ids, lengths=lens).numpy()
        for row, p in zip(got, prompts):
            np.testing.assert_allclose(row, alone(model, p), atol=1e-5)

    def test_input_checks(self):
        model = make_model()
        with no_grad():
            with pytest.raises(IndexError):
                model.forward(np.array([1, SMALL.vocab_size, 2]), lengths=[2, 1])
            with pytest.raises(IndexError):
                model.forward(np.array([1, -1]), lengths=[2])
            with pytest.raises(ValueError):  # a position past the RoPE table
                model.forward(random_ids(SMALL.max_seq_len + 1), lengths=[SMALL.max_seq_len + 1])
            for lens in ([2, 3], [4, 0], []):
                with pytest.raises(ValueError):
                    model.forward(random_ids(4), lengths=lens)
            with pytest.raises(ValueError):
                model.forward(random_ids((1, 4)), lengths=[4])

    def test_nothing_an_earlier_call_left_reaches_a_later_one(self):
        """A NaN embedding row poisons every logit of the prompts that
        hold its token (and, through the tied head, its own logit
        everywhere); the next call's rows, whose pad columns the poisoned
        keys and values occupied, still match their own forwards."""
        model = make_model()
        model.tok_emb.weight.data[5] = np.nan
        poisoned = [np.full(60, 5), random_ids(60, seed=1) % 5]
        clean = [random_ids(n, seed=n) % 5 for n in (3, 20, 40, 61)]
        with no_grad():
            ids, lens = packed(poisoned)
            first = model.forward(ids, lengths=lens).numpy()
            ids, lens = packed(clean)
            got = model.forward(ids, lengths=lens).numpy()
        assert np.isnan(first[0]).all()
        assert np.isnan(got[:, 5]).all() and np.isfinite(np.delete(got, 5, axis=1)).all()
        for row, p in zip(got, clean):
            np.testing.assert_allclose(row, alone(model, p), atol=1e-5)

    def test_two_threads_get_the_serial_results(self, tok):
        model = make_model()
        engine = InferenceEngine(model, tok)
        sets = [[random_ids(n, seed=10 * t + n).tolist() for n in (5, 60, 31, 2) * (t + 1)]
                for t in range(2)]
        serial = [engine.next_token_logits(prompts) for prompts in sets]
        results: list = [[], []]
        start = threading.Barrier(2)

        def score(t):
            start.wait()
            for _ in range(20):
                results[t].append(engine.next_token_logits(sets[t]))

        threads = [threading.Thread(target=score, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for t in range(2):
            assert len(results[t]) == 20
            for got in results[t]:
                np.testing.assert_array_equal(got, serial[t])

    def test_a_forward_wrapper_sees_one_prefill_per_chunk(self, tok, monkeypatch):
        """A wrapper that reads ``args[0]`` as caches and counts ``rows x
        shape[-1]`` tokens, like perfbench's, counts real tokens only."""
        seen = []
        forward = CausalLM.forward

        @functools.wraps(forward)
        def wrapper(self, ids, *args, **kwargs):
            caches = kwargs.get("caches", args[0] if args else None)
            shape = ids.shape
            rows = shape[0] if len(shape) > 1 else 1
            seen.append((caches, rows * shape[-1]))
            return forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(CausalLM, "forward", wrapper)
        lengths = [7, 3, 50, 20] * 5
        prompts = [random_ids(n, seed=i).tolist() for i, n in enumerate(lengths)]
        InferenceEngine(make_model(), tok).next_token_logits(prompts)
        chunks = [sorted(lengths)[:16], sorted(lengths)[16:]]
        assert seen == [(None, sum(chunk)) for chunk in chunks]

    def test_a_warm_call_allocates_nothing_big(self, tok):
        """The activations live in per-thread buffers reused across calls:
        a warm call's peak allocation stays below one (tokens, dim)
        activation (what remains is index arrays and NumPy's fixed-size
        ufunc buffers)."""
        cfg = ModelConfig(vocab_size=300, dim=64, n_layers=2, n_heads=4,
                          hidden_dim=176, max_seq_len=128)
        model = CausalLM(cfg, derive_rng(0, "tests/llm/kernel/wide"))
        lengths = [127, 120, 100, 90, 127, 64, 127, 110] * 2
        prompts = [random_ids(n, seed=i).tolist() for i, n in enumerate(lengths)]
        engine = InferenceEngine(model, tok)
        engine.next_token_logits(prompts)
        tracemalloc.start()
        try:
            engine.next_token_logits(prompts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(lengths) * cfg.dim * 4
