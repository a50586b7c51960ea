"""Tests for fused functional ops (masked softmax, cross-entropy, RMSNorm,
SiLU, ...)."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    cat,
    cross_entropy_logits,
    embedding,
    fused_cross_entropy,
    masked_softmax,
    rms_norm,
    silu,
    stack,
    take_rows,
    where,
)
from repro.utils.rng import derive_rng

from tests.tensor.gradcheck import check_grads


RNG = derive_rng(2, "tests/ops")


def randn(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestActivations:
    def test_silu_forward_matches_reference(self):
        a = randn(10)
        ref = a / (1.0 + np.exp(-a))
        np.testing.assert_allclose(silu(Tensor(a)).numpy(), ref, rtol=1e-5)

    def test_silu_stable_for_large_inputs(self):
        a = np.array([-100.0, 100.0], dtype=np.float32)
        out = silu(Tensor(a)).numpy()
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 100.0], atol=1e-4)

    def test_silu_grad(self):
        check_grads(lambda a: silu(a).sum(), [randn(6)])


class TestMaskedSoftmax:
    """The attention-probabilities kernel, ``softmax(x * scale + mask)``."""

    def test_rows_sum_to_one(self):
        s = masked_softmax(Tensor(randn(4, 7)), None).numpy()
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-5)
        assert (s >= 0).all()

    def test_matches_reference_softmax(self):
        a = randn(3, 5)
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        ref = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(masked_softmax(Tensor(a), None).numpy(), ref, rtol=1e-5)

    def test_stable_for_large_scores(self):
        big = Tensor(np.array([[1e4, 1e4 + 1.0]], dtype=np.float32))
        s = masked_softmax(big, None).numpy()
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s, [[1 / (1 + np.e), np.e / (1 + np.e)]], rtol=1e-5)

    def test_masked_columns_get_no_probability(self):
        a = randn(2, 6)
        allowed = np.array([[1, 1, 0, 1, 0, 0], [0, 1, 1, 1, 1, 1]], dtype=bool)
        mask = np.where(allowed, np.float32(0.0), np.float32(-1e9))
        s = masked_softmax(Tensor(a), mask).numpy()
        assert (s[~allowed] == 0.0).all()
        for row in range(2):
            kept = a[row][allowed[row]]
            e = np.exp(kept - kept.max())
            np.testing.assert_allclose(s[row][allowed[row]], e / e.sum(), rtol=1e-5)

    def test_input_is_not_modified(self):
        a = randn(3, 4)
        before = a.copy()
        masked_softmax(Tensor(a), None)
        masked_softmax(Tensor(a), np.zeros((3, 4), dtype=np.float32))
        np.testing.assert_array_equal(a, before)

    def test_grad(self):
        check_grads(lambda a: (masked_softmax(a, None) ** 2).sum(), [randn(3, 5)])

    def test_grad_with_mask(self):
        mask = np.triu(np.full((4, 4), -1e9, dtype=np.float32), k=1)
        check_grads(lambda a: (masked_softmax(a, mask) ** 2).sum(), [randn(2, 4, 4)])


class TestCrossEntropy:
    def test_matches_manual_nll(self):
        logits = randn(5, 8)
        targets = np.array([0, 3, 7, 2, 5])
        loss = cross_entropy_logits(Tensor(logits), targets).item()
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        ref = -np.log(p[np.arange(5), targets]).mean()
        assert loss == pytest.approx(ref, rel=1e-4)

    def test_ignore_index_masks_loss_and_grad(self):
        logits = Tensor(randn(4, 6), requires_grad=True)
        targets = np.array([1, -100, 2, -100])
        loss = cross_entropy_logits(logits, targets)
        loss.backward()
        assert np.allclose(logits.grad[1], 0.0)
        assert np.allclose(logits.grad[3], 0.0)
        assert not np.allclose(logits.grad[0], 0.0)

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor(randn(2, 3)), np.array([-100, -100]))

    def test_grad_matches_numeric(self):
        targets = np.array([1, 0, 2])

        def build(a):
            return cross_entropy_logits(a, targets)

        check_grads(build, [randn(3, 4)])

    def test_3d_logits(self):
        logits = Tensor(randn(2, 3, 5), requires_grad=True)
        targets = RNG.integers(0, 5, size=(2, 3))
        loss = cross_entropy_logits(logits, targets)
        loss.backward()
        assert logits.grad.shape == (2, 3, 5)


class TestFusedCrossEntropy:
    """The Trainer's objective must agree with the reference kernel."""

    def test_forward_identical_to_reference(self):
        logits = randn(6, 9)
        targets = np.array([0, 3, 8, 2, 5, 1])
        ref = cross_entropy_logits(Tensor(logits.copy()), targets).item()
        fused = fused_cross_entropy(Tensor(logits.copy()), targets).item()
        # Same shift and summation order: bit-identical, not just close.
        assert fused == ref

    def test_grad_matches_reference(self):
        logits = randn(4, 3, 7)
        targets = RNG.integers(0, 7, size=(4, 3))
        targets[0, :2] = -100
        a = Tensor(logits.copy(), requires_grad=True)
        b = Tensor(logits.copy(), requires_grad=True)
        cross_entropy_logits(a, targets).backward()
        fused_cross_entropy(b, targets).backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-7)

    def test_grad_matches_numeric(self):
        targets = np.array([1, 0, 2])
        check_grads(lambda a: fused_cross_entropy(a, targets), [randn(3, 4)])

    def test_ignore_index_masks_grad(self):
        logits = Tensor(randn(4, 6), requires_grad=True)
        targets = np.array([1, -100, 2, -100])
        fused_cross_entropy(logits, targets).backward()
        assert np.allclose(logits.grad[1], 0.0)
        assert np.allclose(logits.grad[3], 0.0)
        assert not np.allclose(logits.grad[0], 0.0)

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            fused_cross_entropy(Tensor(randn(2, 3)), np.array([-100, -100]))

    def test_double_backward_rejected(self):
        # The fused backward consumes its exp buffer; a second traversal
        # must fail loudly rather than return corrupt gradients.
        logits = Tensor(randn(3, 5), requires_grad=True)
        loss = fused_cross_entropy(logits, np.array([0, 1, 2]))
        loss.backward()
        with pytest.raises(RuntimeError, match="twice"):
            loss.backward()

    def test_backward_scales_by_upstream(self):
        logits = randn(3, 5)
        targets = np.array([0, 1, 2])
        a = Tensor(logits.copy(), requires_grad=True)
        b = Tensor(logits.copy(), requires_grad=True)
        fused_cross_entropy(a, targets).backward()
        fused_cross_entropy(b, targets).backward(np.asarray(8.0, dtype=np.float32))
        np.testing.assert_allclose(b.grad, 8.0 * a.grad, rtol=1e-6)


class TestTakeRows:
    """Unique-index row gather (the supervised-position fast path)."""

    def test_forward_matches_getitem(self):
        x = randn(8, 5)
        idx = np.array([1, 4, 6])
        np.testing.assert_array_equal(take_rows(Tensor(x), idx).numpy(), x[idx])

    def test_grad_matches_getitem_backward(self):
        x = randn(8, 5)
        idx = np.array([0, 3, 7])
        a = Tensor(x.copy(), requires_grad=True)
        b = Tensor(x.copy(), requires_grad=True)
        (take_rows(a, idx) * 2.0).sum().backward()
        (b[idx] * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_grad_matches_numeric(self):
        idx = np.array([2, 0, 5])
        check_grads(lambda a: (take_rows(a, idx) ** 2).sum(), [randn(6, 3)])


class TestEmbeddingNormEtc:
    def test_embedding_lookup(self):
        w = randn(10, 4)
        ids = np.array([[1, 2], [9, 1]])
        np.testing.assert_allclose(embedding(Tensor(w), ids).numpy(), w[ids])

    def test_embedding_grad_scatters_and_accumulates(self):
        w = Tensor(randn(5, 3), requires_grad=True)
        ids = np.array([1, 1, 4])
        embedding(w, ids).sum().backward()
        np.testing.assert_allclose(w.grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(w.grad[4], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(w.grad[0], [0.0, 0.0, 0.0])

    def test_rms_norm_unit_rms(self):
        x = randn(4, 8)
        out = rms_norm(Tensor(x), Tensor(np.ones(8, dtype=np.float32))).numpy()
        rms = np.sqrt((out ** 2).mean(axis=-1))
        np.testing.assert_allclose(rms, np.ones(4), rtol=1e-3)

    def test_rms_norm_grad(self):
        check_grads(
            lambda x, w: (rms_norm(x, w) ** 2).sum(),
            [randn(3, 6), np.ones(6, dtype=np.float32) + 0.1 * randn(6)],
        )

    def test_where_grad_partitions(self):
        a = Tensor(randn(5), requires_grad=True)
        b = Tensor(randn(5), requires_grad=True)
        cond = np.array([True, False, True, False, True])
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, cond.astype(np.float32))
        np.testing.assert_allclose(b.grad, (~cond).astype(np.float32))


class TestCatStack:
    def test_cat_forward(self):
        a, b = randn(2, 3), randn(2, 5)
        np.testing.assert_allclose(
            cat([Tensor(a), Tensor(b)], axis=1).numpy(), np.concatenate([a, b], axis=1)
        )

    def test_cat_grad(self):
        check_grads(
            lambda a, b: (cat([a, b], axis=1) ** 2).sum(), [randn(2, 3), randn(2, 2)]
        )

    def test_stack_forward_and_grad(self):
        check_grads(
            lambda a, b: (stack([a, b], axis=0) ** 2).sum(), [randn(3), randn(3)]
        )

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            cat([], axis=0)
        with pytest.raises(ValueError):
            stack([], axis=0)
