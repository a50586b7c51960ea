"""fp16 mixed-precision simulation.

The paper trains with fp16 "to reduce memory requirements".  On a NumPy
substrate we simulate the numerically relevant parts:

* **weight rounding** — after each optimizer step the fp32 master
  weights are rounded through float16, introducing fp16 quantisation
  exactly where real mixed-precision training does;
* **loss scaling** — the loss is scaled before backward and gradients
  unscaled before the step; steps producing non-finite gradients are
  skipped and the scale halved (dynamic loss scaling), doubling back
  after a streak of good steps.  The skip does not depend on fp16: with
  it disabled the scale stays 1.0, but a non-finite step is still
  skipped, so NaN never reaches the weights.

This is training-wide machinery (pretraining, SFT, and continual
updates all run through it via :class:`repro.train.Trainer`), so it
lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module, Parameter


@dataclass(frozen=True)
class Fp16Config:
    enabled: bool = True
    init_scale: float = 1024.0
    growth_interval: int = 100
    min_scale: float = 1.0
    max_scale: float = 65536.0


def round_to_fp16(model: Module, trainable_only: bool = True) -> None:
    """Round parameters through float16 (in place)."""
    params = model.trainable_parameters() if trainable_only else model.parameters()
    for p in params:
        p.data = p.data.astype(np.float16).astype(np.float32)


class LossScaler:
    """Dynamic loss scaling for the simulated fp16 regime."""

    def __init__(self, config: Fp16Config | None = None) -> None:
        self.config = config or Fp16Config()
        self.scale = self.config.init_scale if self.config.enabled else 1.0
        self._good_steps = 0
        self.skipped = 0

    def loss_factor(self) -> float:
        return self.scale

    def unscale_and_check(self, params: list[Parameter]) -> bool:
        """Divide grads by the scale; returns False (skip step) when any
        gradient is non-finite, with fp16 on or off.  Only the dynamic
        scale depends on fp16: disabled, it stays 1.0."""
        finite = True
        inv = 1.0 / self.scale
        for p in params:
            if p.grad is None:
                continue
            p.grad *= inv
            if not np.isfinite(p.grad).all():
                finite = False
        if not finite:
            self.skipped += 1
            if self.config.enabled:
                self.scale = max(self.scale / 2.0, self.config.min_scale)
                self._good_steps = 0
            return False
        if self.config.enabled:
            self._good_steps += 1
            if self._good_steps >= self.config.growth_interval:
                self.scale = min(self.scale * 2.0, self.config.max_scale)
                self._good_steps = 0
        return True

    # -- resumable state ----------------------------------------------------

    def state_dict(self) -> dict:
        """Everything a resumed run needs to continue the scaling
        trajectory bit-exactly."""
        return {
            "scale": float(self.scale),
            "good_steps": int(self._good_steps),
            "skipped": int(self.skipped),
        }

    def load_state_dict(self, state: dict) -> None:
        self.scale = float(state["scale"])
        self._good_steps = int(state["good_steps"])
        self.skipped = int(state["skipped"])
