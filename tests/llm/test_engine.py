"""Tests for the batched inference engine: batched-vs-sequential parity,
the context-overflow regression, and growable KV caches."""

import numpy as np
import pytest

from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.engine import clamp_prompt
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.utils.rng import derive_rng

SMALL = ModelConfig(vocab_size=300, dim=16, n_layers=2, n_heads=2, hidden_dim=32, max_seq_len=64)


@pytest.fixture(scope="module")
def tok():
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    return train_tokenizer_on(corpus, vocab_size=300)


@pytest.fixture(scope="module")
def model():
    return CausalLM(SMALL, derive_rng(0, "tests/llm/engine"))


@pytest.fixture(scope="module")
def engine(model, tok):
    return InferenceEngine(model, tok)


@pytest.fixture(scope="module")
def mixed_prompts(tok):
    texts = [
        "the river",
        "a small bird sings in the morning over the quiet water",
        "water",
        "the mountain wind moves the old trees and the river flows",
        "morning light",
    ]
    return [tok.encode(t, bos=True) for t in texts]


class TestGenerateBatchParity:
    def test_greedy_batch_equals_sequential(self, engine, mixed_prompts):
        batched = engine.generate_batch(mixed_prompts, max_new_tokens=10)
        sequential = [engine.generate_batch([p], max_new_tokens=10)[0] for p in mixed_prompts]
        assert batched == sequential

    def test_greedy_parity_without_eos_stop(self, engine, mixed_prompts):
        batched = engine.generate_batch(mixed_prompts, 12, stop_at_eos=False)
        sequential = [engine.generate_batch([p], 12, stop_at_eos=False)[0] for p in mixed_prompts]
        assert batched == sequential

    def test_shared_engine_matches_fresh_engine(self, engine, model, tok, mixed_prompts):
        """A shared engine and a fresh one decode a batch of one alike."""
        fresh = InferenceEngine(model, tok)
        assert engine.generate_batch([mixed_prompts[1]], 6) == fresh.generate_batch(
            [mixed_prompts[1]], 6
        )

    def test_generate_many_chunks(self, engine, mixed_prompts):
        whole = engine.generate_batch(mixed_prompts, max_new_tokens=4)
        chunked = engine.generate_many(mixed_prompts, max_new_tokens=4, batch_size=2)
        assert whole == chunked

    def test_generate_many_batch_of_one_matches_whole(self, engine, mixed_prompts):
        whole = engine.generate_batch(mixed_prompts, 5, stop_at_eos=False)
        assert engine.generate_many(mixed_prompts, 5, stop_at_eos=False, batch_size=1) == whole

    def test_without_eos_stop_every_row_gets_max_new_tokens(self, engine, mixed_prompts):
        outs = engine.generate_batch(mixed_prompts, 7, stop_at_eos=False)
        assert [len(o) for o in outs] == [7] * len(mixed_prompts)

    def test_ties_go_to_the_lowest_id(self, tok, mixed_prompts):
        """A model with every weight zero gives every token the same logit,
        so each step must pick id 0 (pad, not EOS) in every row."""
        flat = CausalLM(SMALL, derive_rng(1, "tests/llm/engine/zero"))
        for p in flat.parameters():
            p.data[...] = 0.0
        outs = InferenceEngine(flat, tok).generate_batch(mixed_prompts[:3], 4)
        assert outs == [[0, 0, 0, 0]] * 3

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_max_new_tokens_rejected(self, engine, mixed_prompts, n):
        with pytest.raises(ValueError, match="max_new_tokens"):
            engine.generate_batch(mixed_prompts, max_new_tokens=n)
        with pytest.raises(ValueError, match="max_new_tokens"):
            engine.generate_many(mixed_prompts, max_new_tokens=n)

    def test_empty_prompt_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.generate_batch([[1, 2], []])
        with pytest.raises(ValueError):
            engine.generate_batch([])


class TestScoreBatchParity:
    def test_margins_match_sequential_within_tolerance(self, engine):
        instructions = [
            "is there a data race in this loop?",
            "the quick brown fox jumps over the lazy dog " * 8,  # forces truncation
            "short",
            "does the reduction clause protect the accumulation here?",
        ]
        batched = engine.yes_no_margins(instructions)
        sequential = [engine.yes_no_margins([s])[0] for s in instructions]
        np.testing.assert_allclose(batched, sequential, atol=1e-5)

    def test_margins_batch_size_invariant(self, engine):
        instructions = ["alpha beta", "gamma", "delta epsilon zeta eta theta"]
        prompts = [engine.chat.prompt_ids(s) for s in instructions]
        a = engine.next_token_logits(prompts, batch_size=1)
        b = engine.next_token_logits(prompts, batch_size=3)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_next_token_logits_match_direct_forward(self, engine, model, mixed_prompts):
        from repro.tensor import no_grad

        batched = engine.next_token_logits(mixed_prompts)
        with no_grad():
            for i, p in enumerate(mixed_prompts):
                direct = model.forward(np.asarray(p)).numpy()[0, -1]
                np.testing.assert_allclose(batched[i], direct, atol=1e-5)


class TestTailEncodedMargins:
    """``yes_no_margins`` encodes instructions from the tail; its margins
    must equal, float for float, those of the fully encoded prompts."""

    @staticmethod
    def _full_prompt_margins(engine, instructions):
        tok = engine.tokenizer
        logits = engine.next_token_logits([engine.chat.prompt_ids(i) for i in instructions])
        return [float(m) for m in logits[:, tok.encode(" yes")[0]] - logits[:, tok.encode(" no")[0]]]

    def test_suite_kernels_match_full_encoding(self, engine):
        from repro.datagen.prompts import race_instruction
        from repro.drb import DRBSuite

        specs = DRBSuite.evaluation().specs
        oversize = [s for s in specs if "oversize" in s.features]
        short = [s for s in specs if "oversize" not in s.features][::40]
        assert len(oversize) == 14
        instructions = [race_instruction(s.source, s.language) for s in oversize + short]
        instructions += ["short", "", "  padded  ", "x" * 500]
        assert engine.yes_no_margins(instructions) == self._full_prompt_margins(
            engine, instructions
        )

    def test_context_edge_lengths_match_full_encoding(self, engine, tok):
        """Bodies of every length around the context, where the tail
        prompt and the full prompt first differ before clamping."""
        words = "the river flows past the old hill ".split(" ")
        instructions = [" ".join(words * 20)[:cut] for cut in range(40, 160, 2)]
        lengths = {len(tok.encode(engine.chat.render_prompt(i))) for i in instructions}
        assert min(lengths) < SMALL.max_seq_len - 1 < max(lengths)
        assert engine.yes_no_margins(instructions) == self._full_prompt_margins(
            engine, instructions
        )


class TestContextOverflowRegression:
    def test_max_new_tokens_at_context_edge(self, model, tok):
        """max_new_tokens >= max_seq_len - 1 with an over-long prompt used
        to keep the whole prompt and crash the RoPE table mid-prefill."""
        long_prompt = tok.encode("the river flows past the hill " * 30, bos=True)
        assert len(long_prompt) > SMALL.max_seq_len
        for n in (SMALL.max_seq_len - 1, SMALL.max_seq_len, SMALL.max_seq_len + 40):
            out = InferenceEngine(model, tok).generate_batch(
                [long_prompt], max_new_tokens=n, stop_at_eos=False
            )[0]
            assert 0 < len(out) <= n
            # The decode can never exceed the model context.
            assert len(out) < SMALL.max_seq_len

    def test_clamp_prompt_cases(self):
        ids = list(range(100))
        # Short prompts pass through untouched.
        assert clamp_prompt(ids[:10], 32, 64) == ids[:10]
        # Normal over-long prompt keeps the most recent window.
        assert clamp_prompt(ids, 16, 64) == ids[-47:]
        # Degenerate budgets still leave at least one token and room to decode.
        assert clamp_prompt(ids, 63, 64) == ids[-1:]
        assert clamp_prompt(ids, 1000, 64) == ids[-1:]
        assert len(clamp_prompt(ids, 0, 64)) == 63
