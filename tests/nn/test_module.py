"""Tests for Module/Parameter bookkeeping."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter
from repro.utils.rng import derive_rng


class Net(Module):
    def __init__(self):
        super().__init__()
        rng = derive_rng(0, "net")
        self.fc1 = Linear(4, 8, rng)
        self.fc2 = Linear(8, 2, rng)
        self.scale = Parameter(np.ones(1, dtype=np.float32))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestModule:
    def test_named_parameters_dotted(self):
        names = [n for n, _ in Net().named_parameters()]
        assert sorted(names) == ["fc1.weight", "fc2.weight", "scale"]

    def test_num_parameters(self):
        net = Net()
        assert net.num_parameters() == 4 * 8 + 8 * 2 + 1

    def test_state_dict_roundtrip(self):
        a, b = Net(), Net()
        b.fc1.weight.data += 1.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.fc1.weight.data, b.fc1.weight.data)

    def test_state_dict_is_a_copy(self):
        net = Net()
        sd = net.state_dict()
        sd["fc1.weight"] += 99.0
        assert not np.allclose(net.fc1.weight.data, sd["fc1.weight"])

    def test_load_strict_mismatch_raises(self):
        net = Net()
        sd = net.state_dict()
        del sd["scale"]
        with pytest.raises(KeyError):
            net.load_state_dict(sd)
        sd = net.state_dict()
        sd["extra"] = np.ones(1, dtype=np.float32)
        with pytest.raises(KeyError):
            net.load_state_dict(sd)

    def test_load_shape_mismatch_raises(self):
        net = Net()
        sd = net.state_dict()
        sd["scale"] = np.ones(3, dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(sd)

    def test_freeze_unfreeze(self):
        net = Net()
        net.freeze()
        assert net.num_parameters(trainable_only=True) == 0
        net.unfreeze()
        assert net.num_parameters(trainable_only=True) == net.num_parameters()

    def test_train_eval_mode_propagates(self):
        net = Net()
        net.eval()
        assert not net.training and not net.fc1.training
        net.train()
        assert net.training and net.fc2.training

    def test_zero_grad_clears_all(self):
        net = Net()
        x = np.ones((2, 4), dtype=np.float32)
        from repro.tensor import Tensor

        net(Tensor(x)).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())
