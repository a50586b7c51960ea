"""AdamW and global-norm gradient clipping: the optimizer recipe every
model in the repo trains with.

AdamW follows Loshchilov & Hutter's decoupled weight decay, the standard
recipe for LLM fine-tuning (and what HuggingFace `Trainer` — the paper's
stack — uses by default, with its betas and eps as constants).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay over the trainable ``params``."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer got no trainable parameters")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    # -- resumable state ----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat array mapping of the step counter and both moment
        buffers, keyed like ``"m.3"``.  Slot order follows
        ``self.params``, which is deterministic (module definition
        order), so a checkpoint written by one process resumes
        bit-exactly in another."""
        out: dict[str, np.ndarray] = {"t": np.asarray(self.t, dtype=np.int64)}
        out.update({f"m.{i}": m.copy() for i, m in enumerate(self._m)})
        out.update({f"v.{i}": v.copy() for i, v in enumerate(self._v)})
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "t" not in state:
            raise KeyError("optimizer state missing 't'")
        self.t = int(np.asarray(state["t"]).reshape(()))
        self._load_slots(self._m, state, "m")
        self._load_slots(self._v, state, "v")

    @staticmethod
    def _load_slots(
        slots: list[np.ndarray], state: dict[str, np.ndarray], prefix: str
    ) -> None:
        for i, buf in enumerate(slots):
            key = f"{prefix}.{i}"
            if key not in state:
                raise KeyError(f"optimizer state missing {key!r}")
            arr = np.asarray(state[key], dtype=buf.dtype)
            if arr.shape != buf.shape:
                raise ValueError(
                    f"optimizer state shape mismatch for {key}: "
                    f"have {buf.shape}, got {arr.shape}"
                )
            slots[i] = arr.copy()


class GradClipper:
    """Clip gradients to a maximum global L2 norm (training stability)."""

    def __init__(self, max_norm: float = 1.0) -> None:
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def clip(self, params: list[Parameter]) -> float:
        """Scale all grads in place if needed; returns the pre-clip norm."""
        total = 0.0
        grads = [p.grad for p in params if p.grad is not None]
        for g in grads:
            total += float((g.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > self.max_norm and norm > 0:
            scale = self.max_norm / norm
            for g in grads:
                g *= scale
        return norm
