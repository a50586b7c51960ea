"""Tests for Linear/Embedding/RMSNorm, RoPE, attention, and the block."""

import numpy as np
import pytest

from repro.nn import (
    Embedding,
    Linear,
    MultiHeadAttention,
    RMSNorm,
    RotaryEmbedding,
    SwiGLU,
    TransformerBlock,
    causal_mask,
    padding_causal_mask,
)
from repro.nn.attention import KVCache
from repro.tensor import Tensor, no_grad
from repro.utils.rng import derive_rng

RNG = derive_rng(5, "tests/nn")


def randn(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestLayers:
    def test_linear_matches_manual(self):
        lin = Linear(4, 2, RNG)
        x = randn(3, 4)
        np.testing.assert_allclose(
            lin(Tensor(x)).numpy(), x @ lin.weight.data.T, rtol=1e-5
        )

    def test_embedding_range_check(self):
        emb = Embedding(10, 4, RNG)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_rmsnorm_gain(self):
        norm = RMSNorm(8)
        norm.weight.data *= 2.0
        out = norm(Tensor(randn(2, 8))).numpy()
        rms = np.sqrt((out ** 2).mean(axis=-1))
        np.testing.assert_allclose(rms, 2.0 * np.ones(2), rtol=1e-3)


class TestRoPE:
    def test_rotation_preserves_norm(self):
        rope = RotaryEmbedding(8, 32)
        x = Tensor(randn(1, 2, 5, 8))
        out = rope.rotate(x).numpy()
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x.numpy(), axis=-1), rtol=1e-4
        )

    def test_position_zero_is_identity(self):
        rope = RotaryEmbedding(4, 16)
        x = Tensor(randn(1, 1, 1, 4))
        np.testing.assert_allclose(rope.rotate(x, offset=0).numpy(), x.numpy(), atol=1e-6)

    def test_relative_property(self):
        # <R(p)q, R(p+d)k> depends only on d: shifting both by s is invariant.
        rope = RotaryEmbedding(8, 64)
        q = randn(1, 1, 1, 8)
        k = randn(1, 1, 1, 8)

        def score(offset):
            rq = rope.rotate(Tensor(q), offset=offset).numpy()
            rk = rope.rotate(Tensor(k), offset=offset + 3).numpy()
            return float((rq * rk).sum())

        assert score(0) == pytest.approx(score(11), rel=1e-4)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(7, 16)

    def test_overflow_rejected(self):
        rope = RotaryEmbedding(4, 8)
        with pytest.raises(ValueError):
            rope.rotate(Tensor(randn(1, 1, 9, 4)))

    def test_positions_match_offset(self):
        rope = RotaryEmbedding(8, 32)
        x = Tensor(randn(1, 2, 5, 8))
        by_offset = rope.rotate(x, offset=3).numpy()
        by_positions = rope.rotate(x, positions=np.arange(3, 8)).numpy()
        np.testing.assert_allclose(by_offset, by_positions, atol=1e-6)

    def test_per_row_positions(self):
        """A (B, T) position grid rotates each row by its own offsets."""
        rope = RotaryEmbedding(8, 32)
        x = randn(2, 2, 4, 8)
        positions = np.stack([np.arange(4), np.arange(5, 9)])
        both = rope.rotate(Tensor(x), positions=positions).numpy()
        row0 = rope.rotate(Tensor(x[:1]), offset=0).numpy()
        row1 = rope.rotate(Tensor(x[1:]), offset=5).numpy()
        np.testing.assert_allclose(both[0], row0[0], atol=1e-6)
        np.testing.assert_allclose(both[1], row1[0], atol=1e-6)

    def test_positions_out_of_table_rejected(self):
        rope = RotaryEmbedding(4, 8)
        x = Tensor(randn(1, 1, 2, 4))
        with pytest.raises(ValueError):
            rope.rotate(x, positions=np.array([7, 8]))
        with pytest.raises(ValueError):
            rope.rotate(x, positions=np.array([-1, 0]))


class TestKVCache:
    def test_buffer_matches_concatenate_reference(self):
        cache = KVCache()
        ref_k, ref_v = [], []
        rng = derive_rng(11, "kvcache")
        for t in (3, 1, 1, 5, 1):
            k = rng.standard_normal((2, 2, t, 4)).astype(np.float32)
            v = rng.standard_normal((2, 2, t, 4)).astype(np.float32)
            ref_k.append(k)
            ref_v.append(v)
            got_k, got_v = cache.append(k, v)
            np.testing.assert_array_equal(got_k, np.concatenate(ref_k, axis=2))
            np.testing.assert_array_equal(got_v, np.concatenate(ref_v, axis=2))
        assert cache.length == 11
        np.testing.assert_array_equal(cache.k, np.concatenate(ref_k, axis=2))

    def test_capacity_grows_geometrically(self):
        cache = KVCache()
        one = np.ones((1, 1, 1, 2), dtype=np.float32)
        cache.append(one, one)
        first_cap = cache.capacity
        assert first_cap >= 1
        for _ in range(first_cap + 1):
            cache.append(one, one)
        # One growth step at least doubles, so appends are O(1) amortised.
        assert cache.capacity >= 2 * first_cap

    def test_reserve_preallocates_once(self):
        cache = KVCache()
        cache.reserve(100)
        one = np.ones((1, 1, 1, 2), dtype=np.float32)
        cache.append(one, one)
        assert cache.capacity >= 100
        buf_id = id(cache._k)
        for _ in range(99):
            cache.append(one, one)
        assert id(cache._k) == buf_id  # never reallocated
        assert cache.length == 100

    def test_empty_cache_properties(self):
        cache = KVCache()
        assert cache.length == 0 and cache.capacity == 0
        assert cache.k is None and cache.v is None


class TestPaddingMask:
    def test_blocks_pads_and_future(self):
        mask = padding_causal_mask(np.array([0, 2]), 4, 4)
        assert mask.shape == (2, 1, 4, 4)
        # Row 0 (no padding) is the plain causal mask.
        np.testing.assert_array_equal(mask[0, 0], causal_mask(4))
        # Row 1: the first two key slots are pads, blocked for every query.
        assert (mask[1, 0, :, :2] < -1e8).all()
        assert mask[1, 0, 3, 2] == 0 and mask[1, 0, 3, 3] == 0
        # Causality still holds on the real slots.
        assert mask[1, 0, 2, 3] < -1e8

    def test_decode_step_mask(self):
        mask = padding_causal_mask(np.array([1]), 1, 5, offset=4)
        np.testing.assert_array_equal(
            mask[0, 0, 0] < -1e8, np.array([True, False, False, False, False])
        )

    def test_batched_padded_attention_matches_single(self):
        """A left-padded row computes the same outputs as the row alone."""
        attn = MultiHeadAttention(16, 4, RNG)
        rope = RotaryEmbedding(4, 32)
        short = randn(1, 3, 16)
        long = randn(1, 6, 16)
        with no_grad():
            ref_short = attn(Tensor(short), rope).numpy()
            ref_long = attn(Tensor(long), rope).numpy()
            pads = np.array([3, 0])
            x = np.concatenate([np.zeros_like(long), long], axis=0)
            x[0, 3:] = short[0]
            positions = np.maximum(np.arange(6)[None, :] - pads[:, None], 0)
            mask = padding_causal_mask(pads, 6, 6)
            out = attn(Tensor(x), rope, attn_mask=mask, positions=positions).numpy()
        np.testing.assert_allclose(out[0, 3:], ref_short[0], atol=1e-5)
        np.testing.assert_allclose(out[1], ref_long[0], atol=1e-5)


class TestCausalMask:
    def test_square_mask(self):
        m = causal_mask(3)
        assert m.shape == (3, 3)
        assert m[0, 1] < -1e8 and m[1, 0] == 0 and m[2, 2] == 0

    def test_offset_mask_allows_history(self):
        m = causal_mask(1, k_len=5, offset=4)
        np.testing.assert_array_equal(m, np.zeros((1, 5), dtype=np.float32))


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadAttention(16, 4, RNG)
        rope = RotaryEmbedding(4, 32)
        out = attn(Tensor(randn(2, 6, 16)), rope)
        assert out.shape == (2, 6, 16)

    def test_causality(self):
        """Changing a future token must not change earlier outputs."""
        attn = MultiHeadAttention(16, 4, RNG)
        rope = RotaryEmbedding(4, 32)
        x = randn(1, 5, 16)
        base = attn(Tensor(x), rope).numpy()
        x2 = x.copy()
        x2[0, 4] += 10.0
        pert = attn(Tensor(x2), rope).numpy()
        np.testing.assert_allclose(base[0, :4], pert[0, :4], atol=1e-5)
        assert not np.allclose(base[0, 4], pert[0, 4])

    def test_kv_cache_matches_full_forward(self):
        attn = MultiHeadAttention(16, 4, RNG)
        rope = RotaryEmbedding(4, 32)
        x = randn(1, 6, 16)
        with no_grad():
            full = attn(Tensor(x), rope).numpy()
            cache = KVCache()
            outs = []
            for t in range(6):
                outs.append(attn(Tensor(x[:, t : t + 1]), rope, cache=cache).numpy())
            inc = np.concatenate(outs, axis=1)
        np.testing.assert_allclose(full, inc, atol=1e-4)

    def test_dim_heads_mismatch(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, RNG)

    def test_grads_flow_to_all_projections(self):
        attn = MultiHeadAttention(8, 2, RNG)
        rope = RotaryEmbedding(4, 16)
        out = attn(Tensor(randn(1, 3, 8)), rope)
        (out ** 2).sum().backward()
        for proj in (attn.wq, attn.wk, attn.wv, attn.wo):
            assert proj.weight.grad is not None
            assert np.abs(proj.weight.grad).max() > 0


class TestBlock:
    def test_block_shape_and_residual(self):
        block = TransformerBlock(16, 4, 32, RNG)
        rope = RotaryEmbedding(4, 32)
        x = randn(2, 4, 16)
        out = block(Tensor(x), rope)
        assert out.shape == (2, 4, 16)
        # Residual path: output differs from input but is correlated.
        assert not np.allclose(out.numpy(), x)

    def test_swiglu_shape(self):
        mlp = SwiGLU(8, 16, RNG)
        assert mlp(Tensor(randn(3, 8))).shape == (3, 8)
