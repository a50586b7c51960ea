"""Multi-head self-attention with rotary position embeddings (RoPE).

This matches the LLaMA attention layout: no biases, RoPE applied to the
query/key halves pairwise, and a causal additive mask.  The module is
the training graph; inference (padding masks, per-row positions and the
KV cache below) runs in :meth:`repro.llm.model.CausalLM.forward`'s NumPy
kernel.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, masked_softmax
from repro.tensor.ops import rope_rotate

NEG_INF = np.float32(-1e9)
ROPE_BASE = 10000.0  # LLaMA's RoPE frequency base


def causal_mask(q_len: int, k_len: int | None = None, offset: int = 0) -> np.ndarray:
    """Additive causal mask of shape ``(q_len, k_len)``.

    Query position ``i`` (absolute position ``offset + i``) may attend to
    key positions ``<= offset + i``.  Entries are 0 where attention is
    allowed and ``-1e9`` where it is blocked.
    """
    k_len = q_len + offset if k_len is None else k_len
    qpos = np.arange(q_len)[:, None] + offset
    kpos = np.arange(k_len)[None, :]
    return np.where(kpos <= qpos, np.float32(0.0), NEG_INF)


def padding_causal_mask(
    pads: np.ndarray, q_len: int, k_len: int, offset: int = 0
) -> np.ndarray:
    """Additive mask of shape ``(B, 1, q_len, k_len)`` for a left-padded
    batch: row ``b``'s query ``i`` (absolute buffer column ``offset + i``)
    may attend to buffer column ``j`` when ``j <= offset + i`` (causal)
    and ``j >= pads[b]`` (not a pad slot)."""
    pads = np.asarray(pads)
    qpos = np.arange(q_len)[None, :, None] + offset
    kpos = np.arange(k_len)[None, None, :]
    allowed = (kpos <= qpos) & (kpos >= pads[:, None, None])
    return np.where(allowed, np.float32(0.0), NEG_INF)[:, None, :, :]


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
    """Per-layer accumulated keys/values for incremental decoding.

    Arrays are plain NumPy (generation runs under ``no_grad``) of logical
    shape (B, H, T_total, head_dim), stored in a preallocated buffer that
    grows geometrically — appending a token is O(1) amortised instead of
    the O(T) concatenate-per-token (O(T^2) per decode) it replaces.
    """

    _MIN_CAPACITY = 32

    def __init__(self) -> None:
        self._k: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._len = 0
        self._reserved = 0

    @property
    def k(self) -> np.ndarray | None:
        return None if self._k is None else self._k[:, :, : self._len]

    @property
    def v(self) -> np.ndarray | None:
        return None if self._v is None else self._v[:, :, : self._len]

    @property
    def length(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        return 0 if self._k is None else self._k.shape[2]

    def reserve(self, total_len: int) -> None:
        """Hint the final sequence length so the buffer allocates once."""
        self._reserved = max(self._reserved, int(total_len))

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, h, t, hd = k.shape
        needed = self._len + t
        if self._k is None or needed > self._k.shape[2]:
            cap = max(needed, self._reserved, 2 * self.capacity, self._MIN_CAPACITY)
            grown_k = np.empty((b, h, cap, hd), dtype=k.dtype)
            grown_v = np.empty((b, h, cap, hd), dtype=v.dtype)
            if self._len:
                grown_k[:, :, : self._len] = self._k[:, :, : self._len]
                grown_v[:, :, : self._len] = self._v[:, :, : self._len]
            self._k, self._v = grown_k, grown_v
        self._k[:, :, self._len : needed] = k
        self._v[:, :, self._len : needed] = v
        self._len = needed
        return self._k[:, :, :needed], self._v[:, :, :needed]


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
