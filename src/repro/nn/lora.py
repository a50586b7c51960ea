"""LoRA — low-rank adaptation (Hu et al., 2021), as used by the paper.

``LoRALinear`` wraps a frozen :class:`~repro.nn.layers.Linear` with a
trainable rank-``r`` update ``W' = W + (alpha/r) * B @ A``.  ``A`` is
Gaussian-initialised and ``B`` starts at zero so the wrapped layer's
initial function is exactly the base layer's — the fine-tune departs from
the base model smoothly, which is the property the paper's training
recipe (LoRA + PEFT) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor


@dataclass(frozen=True)
class LoRAConfig:
    """Hyper-parameters of the adaptation.

    Attributes
    ----------
    rank:
        Rank of the update (``r`` in the paper). ``0`` disables LoRA
        (full fine-tuning).
    alpha:
        Scaling numerator; the effective scale is ``alpha / rank``.
    target_modules:
        Dotted-name *suffixes* of Linear layers to wrap (LLaMA practice:
        the attention projections).
    """

    rank: int = 4
    alpha: float = 8.0
    target_modules: tuple[str, ...] = field(
        default=("attn.wq", "attn.wk", "attn.wv", "attn.wo")
    )
    #: Also train RMSNorm gains (common PEFT practice alongside LoRA; at
    #: tiny model scale this is what lets the output distribution move).
    train_norms: bool = True

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("LoRA rank must be >= 0")
        if self.alpha <= 0:
            raise ValueError("LoRA alpha must be positive")


class LoRALinear(Module):
    """A frozen Linear plus a trainable low-rank residual."""

    def __init__(self, base: Linear, config: LoRAConfig, rng: np.random.Generator) -> None:
        super().__init__()
        if config.rank <= 0:
            raise ValueError("LoRALinear requires rank >= 1")
        self.base = base
        self.config = config
        base.freeze()
        r = config.rank
        self.lora_a = Parameter(
            (rng.standard_normal((r, base.in_features)) / np.sqrt(base.in_features)).astype(
                np.float32
            ),
            name="lora_a",
        )
        self.lora_b = Parameter(np.zeros((base.out_features, r), dtype=np.float32), name="lora_b")
        self.scaling = config.alpha / r

    def forward(self, x: Tensor) -> Tensor:
        out = self.base(x)
        update = (x @ self.lora_a.T) @ self.lora_b.T
        return out + update * self.scaling

    def merged_weight(self) -> np.ndarray:
        """The equivalent dense weight ``W + scale * B A`` (for export)."""
        return self.base.weight.data + self.scaling * (self.lora_b.data @ self.lora_a.data)


def _resolve_parent(root: Module, dotted: str) -> tuple[Module, str]:
    parts = dotted.split(".")
    node: Module = root
    for p in parts[:-1]:
        node = getattr(node, p)
    return node, parts[-1]


def apply_lora(model: Module, config: LoRAConfig, rng: np.random.Generator) -> list[str]:
    """Wrap every targeted Linear in ``model`` with a LoRALinear, freezing
    everything else.  Returns the dotted names that were wrapped.

    With ``config.rank == 0`` the model is left unchanged and fully
    trainable (the full-fine-tuning ablation).
    """
    if config.rank == 0:
        return []
    model.freeze()
    wrapped: list[str] = []
    targets = []
    for name, mod in list(model.named_modules()):
        if not isinstance(mod, Linear):
            continue
        if any(name == t or name.endswith("." + t) for t in config.target_modules):
            targets.append(name)
    for name in targets:
        parent, attr = _resolve_parent(model, name)
        base = getattr(parent, attr)
        setattr(parent, attr, LoRALinear(base, config, rng))
        wrapped.append(name)
    if config.train_norms:
        from repro.nn.layers import RMSNorm

        for _, mod in model.named_modules():
            if isinstance(mod, RMSNorm):
                mod.unfreeze()
    return wrapped


def merge_lora(model: Module) -> int:
    """Fold every LoRALinear back into a dense Linear in place; returns the
    number of merged layers.  Used before serving to remove adapter
    overhead."""
    merged = 0
    for name, mod in list(model.named_modules()):
        for attr, child in list(mod._modules.items()):
            if isinstance(child, LoRALinear):
                dense = child.base
                dense.weight.data = child.merged_weight()
                dense.unfreeze()
                setattr(mod, attr, dense)
                merged += 1
    return merged
