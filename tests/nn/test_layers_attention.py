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
)
from repro.tensor import Tensor
from repro.tensor.ops import rotate_pairs
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
        np.testing.assert_allclose(rope.rotate(x).numpy(), x.numpy(), atol=1e-6)

    def test_relative_property(self):
        # <R(p)q, R(p+d)k> depends only on d: shifting both by s is invariant.
        rope = RotaryEmbedding(8, 64)
        q = randn(1, 1, 1, 8)
        k = randn(1, 1, 1, 8)

        def score(offset):
            rq = rotate_pairs(q, *rope.at(np.array([offset])))
            rk = rotate_pairs(k, *rope.at(np.array([offset + 3])))
            return float((rq * rk).sum())

        assert score(0) == pytest.approx(score(11), rel=1e-4)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(7, 16)

    def test_overflow_rejected(self):
        rope = RotaryEmbedding(4, 8)
        with pytest.raises(ValueError):
            rope.rotate(Tensor(randn(1, 1, 9, 4)))

    def test_rotate_matches_table_rows(self):
        """The graph's rotation is the kernel's at positions 0..T-1."""
        rope = RotaryEmbedding(8, 32)
        x = randn(1, 2, 5, 8)
        by_graph = rope.rotate(Tensor(x)).numpy()
        by_positions = rotate_pairs(x, *rope.at(np.arange(5)))
        np.testing.assert_array_equal(by_graph, by_positions)

    def test_per_row_positions(self):
        """A (B, 1, T) position grid rotates each row by its own offsets."""
        rope = RotaryEmbedding(8, 32)
        x = randn(2, 2, 4, 8)
        positions = np.stack([np.arange(4), np.arange(5, 9)])[:, None]
        both = rotate_pairs(x, *rope.at(positions))
        row0 = rope.rotate(Tensor(x[:1])).numpy()
        row1 = rotate_pairs(x[1:], *rope.at(np.arange(5, 9)))
        np.testing.assert_allclose(both[0], row0[0], atol=1e-6)
        np.testing.assert_allclose(both[1], row1[0], atol=1e-6)

    def test_positions_out_of_table_rejected(self):
        rope = RotaryEmbedding(4, 8)
        with pytest.raises(ValueError):
            rope.at(np.array([7, 8]))
        with pytest.raises(ValueError):
            rope.at(np.array([-1, 0]))


class TestCausalMask:
    def test_square_mask(self):
        m = causal_mask(3)
        assert m.shape == (3, 3)
        assert m[0, 1] < -1e8 and m[1, 0] == 0 and m[2, 2] == 0


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
