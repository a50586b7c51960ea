"""Multi-head self-attention with rotary position embeddings (RoPE).

This matches the LLaMA attention layout: no biases, RoPE applied to the
query/key halves pairwise, and a causal additive mask.  The module is
the training graph and the reference for inference, which runs in
:class:`repro.llm.model.CausalLM`'s NumPy kernels over packed tokens and
the per-row KV caches below.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, masked_softmax
from repro.tensor.ops import rope_rotate

NEG_INF = np.float32(-1e9)
ROPE_BASE = 10000.0  # LLaMA's RoPE frequency base


def causal_mask(size: int) -> np.ndarray:
    """Additive causal mask of shape ``(size, size)``: query ``i`` may
    attend to keys ``<= i``.  Entries are 0 where attention is allowed
    and ``-1e9`` where it is blocked."""
    pos = np.arange(size)
    return np.where(pos[None, :] <= pos[:, None], np.float32(0.0), NEG_INF)


class RotaryEmbedding:
    """Precomputed RoPE cos/sin tables.

    RoPE rotates each consecutive pair of channels by a position-dependent
    angle; relative offsets then appear as phase differences inside the
    attention dot product.
    """

    def __init__(self, head_dim: int, max_seq_len: int) -> None:
        if head_dim % 2 != 0:
            raise ValueError("RoPE requires an even head dimension")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        inv_freq = 1.0 / (ROPE_BASE ** (np.arange(0, head_dim, 2) / head_dim))
        t = np.arange(max_seq_len)
        freqs = np.outer(t, inv_freq)  # (T, head_dim/2)
        self.cos = np.cos(freqs).astype(np.float32)
        self.sin = np.sin(freqs).astype(np.float32)

    def at(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cos/sin rows of integer ``positions`` (any shape)."""
        positions = np.asarray(positions)
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) >= self.max_seq_len
        ):
            raise ValueError(
                f"positions outside [0, {self.max_seq_len}) for the RoPE table"
            )
        return self.cos[positions], self.sin[positions]

    def row_tables(self, n_heads: int) -> tuple[np.ndarray, np.ndarray]:
        """Cos/sin tables of shape (max_seq_len, n_heads * head_dim) that
        rotate a whole row of heads at once: channel pair (e, o) maps to
        (e*c + o*(-s), o*c + e*s), bit-equal to rotate_pairs'
        (e*c - o*s, e*s + o*c)."""
        cos = np.tile(np.repeat(self.cos, 2, axis=1), n_heads)
        sin = np.tile(np.repeat(self.sin, 2, axis=1), n_heads)
        sin[:, 0::2] *= -1
        return cos, sin

    def rotate(self, x: Tensor) -> Tensor:
        """Rotate ``x`` of shape (B, H, T, head_dim) by positions 0..T-1."""
        return rope_rotate(x, *self.at(np.arange(x.shape[2])))


class KVCache:
    """One layer's keys and values for incremental decoding.

    ``k`` and ``v`` are (rows, capacity, heads, head_dim) arrays
    allocated once; row ``r`` holds its tokens in columns
    ``0..lens[r] - 1``, so rows of different lengths need no padding.
    The columns past a row's end hold finite values, which the causal
    mask keeps out of its attention.
    """

    def __init__(self, rows: int, capacity: int, heads: int, head_dim: int) -> None:
        self.k = np.zeros((rows, capacity, heads, head_dim), dtype=np.float32)
        self.v = np.zeros_like(self.k)
        self.lens = np.zeros(rows, dtype=np.int64)

    @property
    def length(self) -> int:
        """The longest row's token count: 0 before a prefill."""
        return int(self.lens.max(initial=0))

    def keep(self, rows) -> None:
        """Keep only ``rows`` (indices, in their new order)."""
        self.k, self.v, self.lens = self.k[rows], self.v[rows], self.lens[rows]


class MultiHeadAttention(Module):
    """LLaMA-style causal self-attention."""

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def _split_heads(self, x: Tensor, b: int, t: int) -> Tensor:
        return x.reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, rope: RotaryEmbedding) -> Tensor:
        """Causal self-attention over (B, T, D) activations ``x``."""
        b, t, _ = x.shape
        q = rope.rotate(self._split_heads(self.wq(x), b, t))
        k = rope.rotate(self._split_heads(self.wk(x), b, t))
        v = self._split_heads(self.wv(x), b, t)
        # 1/sqrt(d) is folded into q (T_q x head_dim) rather than the
        # scores (T_q x T_k) — one full pass less over the big tensor.
        scale = np.float32(1.0 / np.sqrt(self.head_dim))
        scores = (q * scale) @ k.swapaxes(-1, -2)  # (B, H, T, T)
        probs = masked_softmax(scores, causal_mask(t)[None, None, :, :])
        ctx = probs @ v  # (B, H, T, head_dim)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, t, self.dim)
        return self.wo(ctx)
