"""The no_grad forward of :class:`CausalLM` runs plain-NumPy kernels: a
prefill over packed prompts (``forward(ids, lengths=...)``, filling KV
caches when given them) and a decode step against those caches
(``forward(ids, caches)``).  Their logits must match the graph's at the
same positions, they must read the weights at call time, and the
prefill's reused buffers must carry nothing from one call to the next."""

import functools
import threading
import tracemalloc

import numpy as np
import pytest

from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.engine import clamp_prompt
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.nn import LoRAConfig, apply_lora, merge_lora
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


def with_lora_update(model: CausalLM) -> CausalLM:
    """``model`` with unmerged LoRA adapters whose update is non-zero."""
    apply_lora(model, LoRAConfig(rank=2), derive_rng(3, "tests/llm/kernel/lora"))
    for name, p in model.named_parameters():
        if name.endswith("lora_b"):
            p.data = derive_rng(4, name).standard_normal(p.shape).astype(np.float32)
    return model


def graph_logits(model, seq) -> np.ndarray:
    """The graph's next-token logits after ``seq``."""
    with no_grad():
        return model.forward(np.asarray(seq)).numpy()[0, -1]


class TestGraphParity:
    """The kernels' oracle is the graph: the prefill's logits and every
    decode step's stay within 1e-5 of the graph's at the same position."""

    def decode_and_compare(self, model, lengths, drops=None, steps=5):
        """Prefill prompts of ``lengths`` into caches, then decode ``steps``
        tokens of each row's own continuation; ``drops`` maps a step to
        the rows :meth:`KVCache.keep` keeps before it."""
        drops = drops or {}
        seqs = [random_ids(n + steps, seed=10 + i) for i, n in enumerate(lengths)]
        live = list(range(len(lengths)))
        with no_grad():
            caches = model.new_caches(len(lengths), SMALL.max_seq_len)
            ids = np.concatenate([s[:n] for s, n in zip(seqs, lengths)])
            got = model.forward(ids, caches, lengths=lengths).numpy()
            for r, (s, n) in enumerate(zip(seqs, lengths)):
                np.testing.assert_allclose(got[r], graph_logits(model, s[:n]), atol=1e-5)
            assert caches[0].lens.tolist() == list(lengths)
            for t in range(steps):
                if t in drops:
                    for cache in caches:
                        cache.keep(drops[t])
                    live = [live[r] for r in drops[t]]
                step = np.array([[seqs[i][lengths[i] + t]] for i in live])
                got = model.forward(step, caches).numpy()
                assert got.shape == (len(live), SMALL.vocab_size)
                for r, i in enumerate(live):
                    want = graph_logits(model, seqs[i][: lengths[i] + t + 1])
                    np.testing.assert_allclose(got[r], want, atol=1e-5)
        return caches

    def test_mixed_lengths_prefill_and_decode(self):
        lengths = [1, SMALL.max_seq_len - 6, 7, 33, 2]
        caches = self.decode_and_compare(make_model(), lengths)
        assert caches[0].lens.tolist() == [n + 5 for n in lengths]

    def test_prefill_at_the_context_end(self):
        """Lengths 1 and ``max_seq_len - 1`` in one prefill; the long row
        then takes the last position the RoPE table holds."""
        self.decode_and_compare(make_model(), [1, SMALL.max_seq_len - 1], steps=1)

    def test_rows_dropped_mid_decode(self):
        """Rows that leave (finished, as the engine drops them) take their
        keys and values with them; the rest decode on unchanged."""
        caches = self.decode_and_compare(
            make_model(), [4, 30, 1, 17, 9], drops={1: [0, 2, 3, 4], 3: [1, 3]}
        )
        assert caches[0].k.shape[0] == caches[0].lens.size == 2

    def test_unmerged_lora_model(self):
        """A model whose Linears are still LoRALinear runs the adapter
        path in both kernels."""
        self.decode_and_compare(with_lora_update(make_model()), [3, 20, 11])

    def test_no_grad_graph_equals_graph(self):
        """Without ``lengths`` or ``caches`` a no_grad forward is the
        graph, records nothing for backward, and gives the same arrays."""
        model = make_model()
        ids = random_ids((2, 9))
        logits = model.forward(ids).numpy()
        hidden = model.forward(ids, return_hidden=True).numpy()
        with no_grad():
            out = model.forward(ids)
            np.testing.assert_array_equal(out.numpy(), logits)
            np.testing.assert_array_equal(model.forward(ids, return_hidden=True).numpy(), hidden)
        assert not out.requires_grad

    def test_inference_arguments_need_no_grad(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.forward(random_ids((1, 4)), model.new_caches(1, 8))
        with pytest.raises(ValueError):
            model.forward(random_ids(4), lengths=[4])
        with no_grad(), pytest.raises(ValueError):
            model.forward(random_ids(4), lengths=[4], return_hidden=True)


class TestInputChecks:
    def test_token_id_out_of_range(self):
        model = make_model()
        with no_grad():
            for bad in (SMALL.vocab_size, -1):
                with pytest.raises(IndexError):
                    model.forward(np.array([[1, bad]]))
                caches = model.new_caches(2, 8)
                model.forward(np.array([1, 2, 3]), caches, lengths=[2, 1])
                with pytest.raises(IndexError):
                    model.forward(np.array([[1], [bad]]), caches)

    def test_step_past_rope_table(self):
        model = make_model()
        with no_grad():
            caches = model.new_caches(1, SMALL.max_seq_len)
            model.forward(random_ids(SMALL.max_seq_len), caches, lengths=[SMALL.max_seq_len])
            with pytest.raises(ValueError):
                model.forward(np.array([[1]]), caches)

    def test_malformed_step_ids(self):
        model = make_model()
        with no_grad():
            caches = model.new_caches(2, 8)
            model.forward(np.array([1, 2, 3]), caches, lengths=[2, 1])
            for ids in ([1, 2], [[1, 2], [3, 4]], [[1]], [[1], [2], [3]]):
                with pytest.raises(ValueError):
                    model.forward(np.array(ids), caches)
            with pytest.raises(ValueError):  # one cache per block
                model.forward(np.array([[1], [2]]), caches[:1])
            with pytest.raises(ValueError):  # a prefill into filled caches
                model.forward(np.array([1, 2, 3]), caches, lengths=[2, 1])


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
        ids = random_ids(5)
        with no_grad():
            unmerged = model.forward(ids, lengths=[5]).numpy()
            merge_lora(model)
            merged = model.forward(ids, lengths=[5]).numpy()
        np.testing.assert_allclose(merged, unmerged, atol=1e-4)
        np.testing.assert_allclose(merged[0], graph_logits(model, ids), atol=1e-5)


def packed(prompts):
    return np.concatenate(prompts), np.array([len(p) for p in prompts])


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
            np.testing.assert_allclose(row, graph_logits(model, clamp_prompt(p, 0, 64)), atol=1e-5)

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
        model = with_lora_update(make_model())
        prompts = [random_ids(n, seed=n) for n in (3, 35, 20)]
        ids, lens = packed(prompts)
        with no_grad():
            got = model.forward(ids, lengths=lens).numpy()
        for row, p in zip(got, prompts):
            np.testing.assert_allclose(row, graph_logits(model, p), atol=1e-5)

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
            np.testing.assert_allclose(row, graph_logits(model, p), atol=1e-5)

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


class TestGenerationCalls:
    def test_a_forward_wrapper_sees_one_prefill_then_decode_steps(self, tok, monkeypatch):
        """A wrapper that, like perfbench's, reads ``args[0]`` as caches
        and calls a one-token step against filled caches decode, sees one
        packed prefill of the real tokens, then one step per new token
        over the rows still decoding."""
        seen = []
        forward = CausalLM.forward

        @functools.wraps(forward)
        def wrapper(self, ids, *args, **kwargs):
            caches = kwargs.get("caches", args[0] if args else None)
            shape = ids.shape
            decode = bool(caches) and shape[-1] == 1 and caches[0].length > 0
            rows = shape[0] if len(shape) > 1 else 1
            seen.append(("decode" if decode else "prefill", rows * shape[-1]))
            return forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(CausalLM, "forward", wrapper)
        prompts = [random_ids(n, seed=n).tolist() for n in (7, 3, 20)]
        outs = InferenceEngine(make_model(), tok).generate_batch(prompts, 4, stop_at_eos=False)
        assert [len(o) for o in outs] == [4, 4, 4]
        assert seen == [("prefill", 30)] + [("decode", 3)] * 3
