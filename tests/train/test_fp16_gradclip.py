"""Edge-case coverage for the fp16 loss scaler and the grad clipper
(the satellite checklist of the unified-trainer PR)."""

import numpy as np
import pytest

from repro.nn import GradClipper
from repro.nn.module import Parameter
from repro.train import Fp16Config, LossScaler


def param_with_grad(values):
    p = Parameter(np.zeros(len(values), dtype=np.float32))
    p.grad = np.asarray(values, dtype=np.float32)
    return p


class TestLossScalerBackoff:
    def test_overflow_halves_scale_and_skips(self):
        scaler = LossScaler(Fp16Config(init_scale=256.0))
        p = param_with_grad([np.inf, 1.0])
        assert not scaler.unscale_and_check([p])
        assert scaler.scale == 128.0 and scaler.skipped == 1

    def test_nan_also_triggers_skip(self):
        scaler = LossScaler(Fp16Config(init_scale=64.0))
        p = param_with_grad([np.nan])
        assert not scaler.unscale_and_check([p])
        assert scaler.scale == 32.0

    def test_backoff_floors_at_min_scale(self):
        scaler = LossScaler(Fp16Config(init_scale=4.0, min_scale=2.0))
        for _ in range(5):
            scaler.unscale_and_check([param_with_grad([np.inf])])
        assert scaler.scale == 2.0
        assert scaler.skipped == 5

    def test_skip_resets_growth_streak(self):
        scaler = LossScaler(Fp16Config(init_scale=8.0, growth_interval=3))
        for _ in range(2):
            assert scaler.unscale_and_check([param_with_grad([1.0])])
        assert not scaler.unscale_and_check([param_with_grad([np.inf])])
        # Two more good steps: streak restarted, so no growth yet.
        for _ in range(2):
            assert scaler.unscale_and_check([param_with_grad([1.0])])
        assert scaler.scale == 4.0  # halved once, never regrown


class TestLossScalerGrowth:
    def test_regrows_after_good_streak(self):
        scaler = LossScaler(Fp16Config(init_scale=8.0, growth_interval=2))
        for _ in range(4):
            assert scaler.unscale_and_check([param_with_grad([1.0])])
        assert scaler.scale == 32.0  # doubled twice

    def test_growth_caps_at_max_scale(self):
        scaler = LossScaler(Fp16Config(init_scale=8.0, growth_interval=1,
                                       max_scale=16.0))
        for _ in range(5):
            scaler.unscale_and_check([param_with_grad([1.0])])
        assert scaler.scale == 16.0

    def test_unscale_divides_by_current_scale(self):
        scaler = LossScaler(Fp16Config(init_scale=8.0))
        p = param_with_grad([8.0, 16.0])
        scaler.unscale_and_check([p])
        np.testing.assert_allclose(p.grad, [1.0, 2.0])

    def test_none_grads_skipped_quietly(self):
        scaler = LossScaler(Fp16Config(init_scale=8.0))
        p = Parameter(np.zeros(2, dtype=np.float32))  # grad is None
        assert scaler.unscale_and_check([p])


class TestDisabledFp16Passthrough:
    def test_scale_is_one_and_nonfinite_is_skipped(self):
        scaler = LossScaler(Fp16Config(enabled=False))
        assert scaler.loss_factor() == 1.0
        p = param_with_grad([np.inf, 2.0])
        assert not scaler.unscale_and_check([p])  # skipped with fp16 off too
        assert scaler.scale == 1.0 and scaler.skipped == 1
        assert p.grad[1] == 2.0  # divided by 1.0: unchanged
        for _ in range(3):  # good steps never grow a disabled scale
            assert scaler.unscale_and_check([param_with_grad([1.0])])
        assert not scaler.unscale_and_check([param_with_grad([np.nan])])
        assert scaler.scale == 1.0 and scaler.skipped == 2

    def test_state_roundtrip(self):
        scaler = LossScaler(Fp16Config(init_scale=64.0, growth_interval=5))
        scaler.unscale_and_check([param_with_grad([1.0])])
        scaler.unscale_and_check([param_with_grad([np.inf])])
        state = scaler.state_dict()
        fresh = LossScaler(Fp16Config(init_scale=64.0, growth_interval=5))
        fresh.load_state_dict(state)
        assert fresh.scale == scaler.scale
        assert fresh.skipped == scaler.skipped
        assert fresh.state_dict() == state


class TestGradClipper:
    def test_no_clip_below_max_norm(self):
        clipper = GradClipper(max_norm=10.0)
        p = param_with_grad([3.0, 4.0])  # norm 5 < 10
        before = p.grad.copy()
        norm = clipper.clip([p])
        assert norm == pytest.approx(5.0)
        np.testing.assert_array_equal(p.grad, before)  # untouched

    def test_clips_above_max_norm(self):
        clipper = GradClipper(max_norm=1.0)
        p = param_with_grad([3.0, 4.0])
        norm = clipper.clip([p])
        assert norm == pytest.approx(5.0)  # returns the pre-clip norm
        np.testing.assert_allclose(p.grad, [0.6, 0.8], rtol=1e-6)

    def test_none_grads_ignored(self):
        clipper = GradClipper(max_norm=1.0)
        p = Parameter(np.zeros(2, dtype=np.float32))
        assert clipper.clip([p]) == 0.0

    def test_zero_or_negative_max_norm_rejected(self):
        with pytest.raises(ValueError):
            GradClipper(0.0)
        with pytest.raises(ValueError):
            GradClipper(-1.0)
