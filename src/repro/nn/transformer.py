"""Transformer block: pre-norm attention + SwiGLU MLP (LLaMA layout)."""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadAttention, RotaryEmbedding
from repro.nn.layers import Linear, RMSNorm
from repro.nn.module import Module
from repro.tensor import Tensor, silu


class SwiGLU(Module):
    """LLaMA's gated MLP: ``down( silu(gate(x)) * up(x) )``."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.gate = Linear(dim, hidden_dim, rng)
        self.up = Linear(dim, hidden_dim, rng)
        self.down = Linear(hidden_dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.down(silu(self.gate(x)) * self.up(x))


class TransformerBlock(Module):
    """Pre-norm residual block: x + attn(norm(x)); x + mlp(norm(x))."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.attn_norm = RMSNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.mlp_norm = RMSNorm(dim)
        self.mlp = SwiGLU(dim, hidden_dim, rng)

    def forward(self, x: Tensor, rope: RotaryEmbedding) -> Tensor:
        x = x + self.attn(self.attn_norm(x), rope)
        return x + self.mlp(self.mlp_norm(x))
