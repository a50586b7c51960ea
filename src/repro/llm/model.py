"""The causal LM: token embedding -> N transformer blocks -> RMSNorm ->
tied-embedding logits.  Architecture mirrors LLaMA at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Embedding, RMSNorm, TransformerBlock
from repro.nn.attention import KVCache, RotaryEmbedding, causal_mask
from repro.nn.lora import LoRALinear
from repro.nn.module import Module
from repro.tensor import Tensor, is_grad_enabled
from repro.tensor.ops import _sigmoid, rms_inv, rotate_pairs, softmax_


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of a causal LM.

    The defaults give a ~0.6M-parameter model that pretrains in seconds on
    CPU while retaining the full LLaMA architecture (RoPE, RMSNorm,
    SwiGLU, tied embeddings).
    """

    vocab_size: int = 512
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    hidden_dim: int = 176  # ~ 8/3 * dim, rounded like LLaMA
    max_seq_len: int = 256
    name: str = "tiny-llama-sim"

    def __post_init__(self) -> None:
        if self.dim % self.n_heads:
            raise ValueError("dim must be divisible by n_heads")
        if (self.dim // self.n_heads) % 2:
            raise ValueError("head dim must be even for RoPE")


class CausalLM(Module):
    """LLaMA-architecture autoregressive transformer."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.tok_emb = Embedding(config.vocab_size, config.dim, rng)
        self.rope = RotaryEmbedding(config.dim // config.n_heads, config.max_seq_len)
        for i in range(config.n_layers):
            setattr(
                self,
                f"block{i}",
                TransformerBlock(config.dim, config.n_heads, config.hidden_dim, rng),
            )
        self.norm = RMSNorm(config.dim)

    # -- caches -------------------------------------------------------------

    def new_caches(self, reserve: int = 0) -> list[KVCache]:
        """One empty KV cache per block (incremental decoding state).

        ``reserve`` hints the final sequence length so each cache's
        buffer allocates once instead of growing during decode.
        """
        caches = [KVCache() for _ in range(self.config.n_layers)]
        if reserve:
            for cache in caches:
                cache.reserve(reserve)
        return caches

    def _blocks(self) -> list[TransformerBlock]:
        return [getattr(self, f"block{i}") for i in range(self.config.n_layers)]

    # -- forward -------------------------------------------------------------

    def forward(
        self,
        ids: np.ndarray,
        caches: list[KVCache] | None = None,
        attn_mask: np.ndarray | None = None,
        positions: np.ndarray | None = None,
        q_tail: int | None = None,
        return_hidden: bool = False,
    ) -> Tensor:
        """Return logits of shape (B, T, vocab) — or (B, q_tail, vocab).

        With grad enabled this builds the training graph, which takes
        ``ids`` and ``return_hidden`` only.  Under ``no_grad`` it runs
        :meth:`_infer`, a plain-NumPy kernel that performs the graph's
        array operations in the graph's order over each parameter's
        current ``.data`` (logits are bit-identical), and accepts:

        caches:
            Per-layer KV caches for incremental decoding.
        attn_mask:
            Additive attention mask broadcastable to (B, H, T_q, T_k);
            defaults to causal.
        positions:
            Per-token absolute RoPE positions, shape (B, T) or (T,) — the
            batched engine's left-padded rows; defaults to the positions
            after the cached ones.
        q_tail:
            Only the last ``q_tail`` positions run through the final
            block's queries, the norm, and the LM head.  Next-token
            scoring and prefill need just the last position's logits.
            KV caches still record every position.

        ``return_hidden`` returns the final *normed hidden states* (B, T,
        dim) instead of logits, skipping the LM head: the trainer projects
        only supervised positions through it (see :meth:`output_logits`).
        """
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        if not is_grad_enabled():
            return Tensor(self._infer(ids, caches, attn_mask, positions, q_tail, return_hidden))
        if caches is not None or attn_mask is not None or positions is not None or q_tail:
            raise ValueError("caches, attn_mask, positions and q_tail need no_grad")
        x = self.tok_emb(ids)
        for block in self._blocks():
            x = block(x, self.rope)
        x = self.norm(x)
        if return_hidden:
            return x
        return self.output_logits(x)

    def _infer(self, ids, caches, attn_mask, positions, q_tail, return_hidden) -> np.ndarray:
        self.tok_emb.check(ids)
        x = self.tok_emb.weight.data[ids]
        b, t = ids.shape
        offset = caches[0].length if caches else 0
        if positions is None:
            positions = np.arange(offset, offset + t)
        cos, sin = self.rope.at(np.broadcast_to(positions, (b, t))[:, None])
        blocks = self._blocks()
        for i, block in enumerate(blocks):
            tail = t if i < len(blocks) - 1 or q_tail is None else min(q_tail, t)
            x = _block(block, x, cos, sin, caches[i] if caches else None, attn_mask, tail)
        x = _rms(x, self.norm)
        return x if return_hidden else x @ self.tok_emb.weight.data.T

    def output_logits(self, hidden: Tensor) -> Tensor:
        """Project hidden states (..., dim) to vocab logits through the
        tied embedding — the LM head, exposed so callers can apply it to a
        subset of positions."""
        return hidden @ self.tok_emb.weight.T

    # -- convenience --------------------------------------------------------------

    def copy(self) -> "CausalLM":
        """Deep copy (new parameter arrays, same values)."""
        import copy as _copy

        dup = CausalLM(self.config, np.random.default_rng(0))
        dup.load_state_dict(self.state_dict())
        dup.config = _copy.deepcopy(self.config)
        return dup


# -- the inference kernel ------------------------------------------------------
# Each helper mirrors one module's forward with the same NumPy operations
# in the same order, so a no_grad forward is bit-identical to the graph.


def _linear(x: np.ndarray, layer) -> np.ndarray:
    """``Linear`` / ``LoRALinear`` forward."""
    if isinstance(layer, LoRALinear):
        update = (x @ layer.lora_a.data.T) @ layer.lora_b.data.T
        return x @ layer.base.weight.data.T + update * np.float32(layer.scaling)
    return x @ layer.weight.data.T


def _rms(x: np.ndarray, norm) -> np.ndarray:
    return x * rms_inv(x) * norm.weight.data


def _block(block, x, cos, sin, cache, attn_mask, tq) -> np.ndarray:
    """``TransformerBlock`` forward whose output covers the last ``tq`` of
    the ``t`` positions of ``x`` (keys and values still cover all ``t``).
    ``cos``/``sin`` are the RoPE rows of those positions, (B, 1, t, hd/2)."""
    attn, mlp = block.attn, block.mlp
    b, t, _ = x.shape
    heads = (attn.n_heads, attn.head_dim)
    q_offset = (cache.length if cache is not None else 0) + t - tq
    h = _rms(x, block.attn_norm)
    k = _linear(h, attn.wk).reshape(b, t, *heads).transpose(0, 2, 1, 3)
    v = _linear(h, attn.wv).reshape(b, t, *heads).transpose(0, 2, 1, 3)
    k = rotate_pairs(k, cos, sin)
    if tq < t:
        x = np.ascontiguousarray(x[:, t - tq :])
        h = np.ascontiguousarray(h[:, t - tq :])
        cos, sin = cos[:, :, t - tq :], sin[:, :, t - tq :]
        if attn_mask is not None:
            attn_mask = attn_mask[..., t - tq :, :]
    q = _linear(h, attn.wq).reshape(b, tq, *heads).transpose(0, 2, 1, 3)
    q = rotate_pairs(q, cos, sin)
    if cache is not None:
        k, v = cache.append(k, v)
    if attn_mask is None:
        attn_mask = causal_mask(tq, k.shape[2], offset=q_offset)[None, None, :, :]
    scale = np.float32(1.0 / np.sqrt(attn.head_dim))
    probs = softmax_((q * scale) @ k.swapaxes(-1, -2) + attn_mask)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b, tq, attn.dim)
    x = x + _linear(ctx, attn.wo)
    m = _rms(x, block.mlp_norm)
    gate = _linear(m, mlp.gate)
    return x + _linear(gate * _sigmoid(gate) * _linear(m, mlp.up), mlp.down)
