"""Unit tests for the core autodiff Tensor: arithmetic, broadcasting,
reductions, shape ops, and graph mechanics."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.utils.rng import derive_rng

from tests.tensor.gradcheck import check_grads


RNG = derive_rng(1, "tests/tensor")


def randn(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestForward:
    def test_add_matches_numpy(self):
        a, b = randn(3, 4), randn(3, 4)
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).numpy(), a + b, rtol=1e-6)

    def test_add_broadcast(self):
        a, b = randn(3, 4), randn(4)
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).numpy(), a + b, rtol=1e-6)

    def test_scalar_radd(self):
        a = randn(2, 2)
        np.testing.assert_allclose((2.0 + Tensor(a)).numpy(), 2.0 + a, rtol=1e-6)

    def test_mul_div_sub(self):
        a, b = randn(5), randn(5) + 3.0
        np.testing.assert_allclose((Tensor(a) * Tensor(b)).numpy(), a * b, rtol=1e-6)
        np.testing.assert_allclose((Tensor(a) / Tensor(b)).numpy(), a / b, rtol=1e-5)
        np.testing.assert_allclose((Tensor(a) - Tensor(b)).numpy(), a - b, rtol=1e-6)

    def test_rsub_rtruediv(self):
        a = randn(4) + 2.5
        np.testing.assert_allclose((1.0 - Tensor(a)).numpy(), 1.0 - a, rtol=1e-6)
        np.testing.assert_allclose((1.0 / Tensor(a)).numpy(), 1.0 / a, rtol=1e-5)

    def test_matmul_2d(self):
        a, b = randn(3, 4), randn(4, 5)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b, rtol=1e-5)

    def test_matmul_batched(self):
        a, b = randn(2, 3, 4), randn(2, 4, 5)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b, rtol=1e-5)

    def test_matmul_broadcast_batch(self):
        a, b = randn(2, 3, 4), randn(4, 5)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b, rtol=1e-5)

    def test_pow_exp_log_sqrt(self):
        a = np.abs(randn(6)) + 0.5
        np.testing.assert_allclose((Tensor(a) ** 3).numpy(), a ** 3, rtol=1e-5)
        np.testing.assert_allclose(Tensor(a).exp().numpy(), np.exp(a), rtol=1e-5)
        np.testing.assert_allclose(Tensor(a).log().numpy(), np.log(a), rtol=1e-5)
        np.testing.assert_allclose(Tensor(a).sqrt().numpy(), np.sqrt(a), rtol=1e-5)

    def test_reductions(self):
        a = randn(3, 4)
        np.testing.assert_allclose(Tensor(a).sum().numpy(), a.sum(), rtol=1e-5)
        np.testing.assert_allclose(Tensor(a).sum(axis=0).numpy(), a.sum(axis=0), rtol=1e-5)
        np.testing.assert_allclose(
            Tensor(a).mean(axis=1, keepdims=True).numpy(),
            a.mean(axis=1, keepdims=True),
            rtol=1e-5,
        )
        np.testing.assert_allclose(Tensor(a).max(axis=1).numpy(), a.max(axis=1), rtol=1e-6)

    def test_reshape_transpose_getitem(self):
        a = randn(2, 3, 4)
        np.testing.assert_allclose(Tensor(a).reshape(6, 4).numpy(), a.reshape(6, 4))
        np.testing.assert_allclose(Tensor(a).transpose(2, 0, 1).numpy(), a.transpose(2, 0, 1))
        np.testing.assert_allclose(Tensor(a).swapaxes(0, 1).numpy(), a.swapaxes(0, 1))
        np.testing.assert_allclose(Tensor(a)[1, :, 2].numpy(), a[1, :, 2])

    def test_clip(self):
        a = randn(10)
        np.testing.assert_allclose(Tensor(a).clip(-0.5, 0.5).numpy(), np.clip(a, -0.5, 0.5))

    def test_item_scalar_only(self):
        assert Tensor(3.0).item() == pytest.approx(3.0)
        with pytest.raises(ValueError):
            Tensor(randn(3)).item()


class TestBackward:
    def test_add_broadcast_grad(self):
        check_grads(lambda a, b: ((a + b) * (a + b)).sum(), [randn(3, 4), randn(4)])

    def test_mul_grad(self):
        check_grads(lambda a, b: (a * b).sum(), [randn(2, 3), randn(2, 3)])

    def test_div_grad(self):
        check_grads(
            lambda a, b: (a / b).sum(),
            [randn(4), np.abs(randn(4)).astype(np.float32) + 1.0],
        )

    def test_matmul_grad_2d(self):
        check_grads(lambda a, b: (a @ b).sum(), [randn(3, 4), randn(4, 2)])

    def test_matmul_grad_batched(self):
        check_grads(lambda a, b: (a @ b).sum(), [randn(2, 3, 4), randn(2, 4, 2)])

    def test_matmul_grad_broadcast(self):
        check_grads(lambda a, b: (a @ b).sum(), [randn(2, 3, 4), randn(4, 2)])

    def test_matmul_vec(self):
        check_grads(lambda a, b: (a @ b).sum(), [randn(3, 4), randn(4)])
        check_grads(lambda a, b: (a @ b).sum(), [randn(4), randn(4, 3)])

    def test_pow_grad(self):
        check_grads(lambda a: (a ** 3).sum(), [randn(5)])

    def test_exp_log_grad(self):
        check_grads(lambda a: a.exp().sum(), [randn(5) * 0.5])
        check_grads(lambda a: a.log().sum(), [np.abs(randn(5)) + 1.0])

    def test_sum_axis_grad(self):
        check_grads(lambda a: (a.sum(axis=1) ** 2).sum(), [randn(3, 4)])

    def test_mean_grad(self):
        check_grads(lambda a: (a.mean(axis=0) ** 2).sum(), [randn(3, 4)])

    def test_max_grad(self):
        a = randn(3, 4)
        # Perturb to make the max unique per row (ties break FD checking).
        a += np.arange(12).reshape(3, 4) * 0.01
        check_grads(lambda t: (t.max(axis=1) ** 2).sum(), [a])

    def test_reshape_transpose_grad(self):
        check_grads(lambda a: (a.reshape(6, 4).transpose() ** 2).sum(), [randn(2, 3, 4)])

    @pytest.mark.parametrize("axes", [(0, 2, 1, 3), (2, 0, 1)])
    def test_transpose_grad_is_inverse_permuted_upstream(self, axes):
        x = Tensor(randn(*(2, 3, 4, 5)[: len(axes)]), requires_grad=True)
        y = x.transpose(*axes)
        upstream = randn(*y.shape)
        y.backward(upstream)
        np.testing.assert_array_equal(x.grad, upstream.transpose(np.argsort(axes)))

    def test_getitem_grad(self):
        check_grads(lambda a: (a[1:, ::2] ** 2).sum(), [randn(4, 6)])

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0], rtol=1e-6)

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        ((a + b) * (a + b)).sum().backward()  # d((7x)^2)/dx = 98x = 294
        np.testing.assert_allclose(x.grad, [294.0], rtol=1e-5)

    def test_backward_twice_accumulates(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0, 4.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None


class TestGraphMechanics:
    def test_no_grad_blocks_tracking(self):
        x = Tensor(randn(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward(np.ones(3))

    def test_backward_requires_scalar(self):
        x = Tensor(randn(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(randn(2)).backward()

    def test_detach_cuts_graph(self):
        x = Tensor(randn(3), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).numpy().sum() == 4.0
        t = Tensor.from_rng(derive_rng(0, "x"), (3, 3), scale=0.1, requires_grad=True)
        assert t.requires_grad and t.shape == (3, 3)

    def test_scalar_exponent_only(self):
        with pytest.raises(TypeError):
            Tensor(randn(2)) ** Tensor(randn(2))
