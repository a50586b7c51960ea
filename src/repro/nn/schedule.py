"""Learning-rate schedules."""

from __future__ import annotations

import math


class ConstantLR:
    """Fixed learning rate (the paper trains at a constant 2e-5)."""

    def __init__(self, lr: float) -> None:
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class CosineLR:
    """Linear warmup to ``lr`` over ``warmup_steps`` (none by default),
    then cosine decay to 0 at ``total_steps``."""

    def __init__(self, lr: float, total_steps: int, warmup_steps: int = 0) -> None:
        if warmup_steps < 0 or total_steps <= warmup_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        self.lr = lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps

    def __call__(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        frac = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        return 0.5 * self.lr * (1 + math.cos(math.pi * min(frac, 1.0)))
