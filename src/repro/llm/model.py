"""The causal LM: token embedding -> N transformer blocks -> RMSNorm ->
tied-embedding logits.  Architecture mirrors LLaMA at laptop scale.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.nn import Embedding, RMSNorm, TransformerBlock
from repro.nn.attention import KVCache, RotaryEmbedding, causal_mask
from repro.nn.lora import LoRALinear
from repro.nn.module import Module
from repro.tensor import Tensor, is_grad_enabled
from repro.tensor.ops import RMS_EPS, _sigmoid, rms_inv, rotate_pairs, softmax_

#: Query positions per block of the prefill's attention.  A block
#: ``[s, e)`` reads keys ``[0, e)`` only, so the fully masked tiles above
#: the diagonal of the causal score square are never computed.
QUERY_BLOCK = 32
#: Prompts per prefill that each thread's reused buffers hold without
#: growing: the engine's chunk and micro-batch width.
SCORE_ROWS = 16


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
        # The inference kernels' tables: one additive causal mask, and
        # RoPE rows that rotate every head of a token at once; and each
        # thread's prefill buffers (see :meth:`_score_buffers`).
        self.causal = causal_mask(config.max_seq_len)
        self.rope_rows = self.rope.row_tables(config.n_heads)
        self._scratch = threading.local()

    # -- caches -------------------------------------------------------------

    def new_caches(self, rows: int, capacity: int) -> list[KVCache]:
        """One empty KV cache per block for ``rows`` sequences of up to
        ``capacity`` tokens each (incremental decoding state)."""
        cfg = self.config
        head_dim = cfg.dim // cfg.n_heads
        return [KVCache(rows, capacity, cfg.n_heads, head_dim) for _ in range(cfg.n_layers)]

    def _blocks(self) -> list[TransformerBlock]:
        return [getattr(self, f"block{i}") for i in range(self.config.n_layers)]

    # -- forward -------------------------------------------------------------

    def forward(
        self,
        ids: np.ndarray,
        caches: list[KVCache] | None = None,
        return_hidden: bool = False,
        lengths: np.ndarray | None = None,
    ) -> Tensor:
        """Return logits of shape (B, T, vocab), or one row of next-token
        logits per prompt or cache row.

        With neither ``lengths`` nor ``caches`` this is the graph, with or
        without grad.  ``return_hidden`` returns its final *normed hidden
        states* (B, T, dim) instead of logits, skipping the LM head: the
        trainer projects only supervised positions through it (see
        :meth:`output_logits`).

        Under ``no_grad``, plain-NumPy kernels over each parameter's
        current ``.data`` run inference:

        lengths:
            The prefill (:meth:`_score`): ``ids`` is 1-D, the prompts
            packed end to end, ``lengths`` their token counts; returns
            (len(lengths), vocab).  With ``caches`` (new, from
            :meth:`new_caches`, one row per prompt) it also fills them.
        caches alone:
            A decode step (:meth:`_step`): ``ids`` is (rows, 1), one token
            per cache row, at the position after the row's cached ones;
            returns (rows, vocab).
        """
        ids = np.asarray(ids)
        if lengths is not None or caches is not None:
            if return_hidden or is_grad_enabled():
                raise ValueError("lengths and caches need no_grad and logits")
            if lengths is None:
                return Tensor(self._step(ids, caches))
            if caches is not None and caches[0].length:
                raise ValueError("a prefill needs empty caches")
            return Tensor(self._score(ids, np.asarray(lengths, dtype=np.int64), caches))
        if ids.ndim == 1:
            ids = ids[None, :]
        x = self.tok_emb(ids)
        for block in self._blocks():
            x = block(x, self.rope)
        x = self.norm(x)
        if return_hidden:
            return x
        return self.output_logits(x)

    def _score(
        self, ids: np.ndarray, lengths: np.ndarray, caches: list[KVCache] | None
    ) -> np.ndarray:
        """Next-token logits of each prompt packed into 1-D ``ids``.

        Embedding, norms, projections, RoPE and SwiGLU run on the real
        tokens only.  Attention lays keys and values out left-aligned,
        row ``r`` in columns ``0..L_r - 1`` with rows shortest first, so
        causality alone keeps every query off the columns past its row's
        end.  Below the top block, queries run in blocks of
        :data:`QUERY_BLOCK` over the rows that reach the block; the top
        block runs only each row's last token.  Large arrays live in the
        calling thread's buffers (:meth:`_score_buffers`), reused across
        calls.  Each layer's keys and values, row ``r`` the prompt
        ``r``, go into ``caches`` when given.
        """
        if ids.ndim != 1 or lengths.ndim != 1 or not lengths.size or (
            lengths.min() < 1 or lengths.sum() != ids.size
        ):
            raise ValueError("lengths must be positive and sum to the length of 1-D ids")
        self.tok_emb.check(ids)
        order = np.argsort(lengths, kind="stable")
        lens = lengths[order]
        # Each row's last position: the largest it holds, so this also
        # bounds-checks every position below.
        q_cos, q_sin = self.rope.at(lens - 1)
        cfg = self.config
        n, rows, width = ids.size, lens.size, int(lens[-1])
        grid = (rows, width, cfg.n_heads, cfg.dim // cfg.n_heads)
        buf = self._score_buffers(rows)
        starts = np.cumsum(lengths) - lengths
        slot = np.empty_like(order)
        slot[order] = np.arange(rows)
        pos = np.arange(n) - np.repeat(starts, lengths)
        # Every index is in range (checked above), so the takes clip: that
        # mode writes straight into ``out``, where "raise" stages a copy.
        lay = _Layout(
            lens=lens,
            cells=np.repeat(slot * width, lengths) + pos,
            last=starts[order] + lens - 1,
            cos=np.take(self.rope_rows[0], pos, axis=0, out=buf.cos[:n], mode="clip"),
            sin=np.take(self.rope_rows[1], pos, axis=0, out=buf.sin[:n], mode="clip"),
            qa=buf.qa[: math.prod(grid)].reshape(grid),
            ka=buf.ka[: math.prod(grid)].reshape(grid),
            va=buf.va[: math.prod(grid)].reshape(grid),
        )
        for r in np.flatnonzero(lens < width):
            for cells in (lay.qa, lay.ka, lay.va):
                cells[r, lens[r] :] = 0  # finite pads: a masked weight times a pad stays 0
        x = np.take(self.tok_emb.weight.data, ids, axis=0, out=buf.x[:n], mode="clip")
        blocks = self._blocks()
        for i, block in enumerate(blocks):
            if i + 1 < len(blocks):
                _packed_block(block, x, buf, lay, self.causal)
            else:
                x = _top_block(block, x, buf, lay, self.causal, q_cos, q_sin)
            if caches is not None:
                cache = caches[i]
                cache.k[:, :width], cache.v[:, :width] = lay.ka[slot], lay.va[slot]
                cache.lens = lengths
        logits = np.empty((rows, cfg.vocab_size), dtype=np.float32)
        logits[order] = _rms(x, self.norm) @ self.tok_emb.weight.data.T
        return logits

    def _step(self, ids: np.ndarray, caches: list[KVCache]) -> np.ndarray:
        """Next-token logits after one more token per cache row.

        Row ``r``'s token sits at position ``caches[i].lens[r]``: its
        rotated key and its value go into that column, and its query
        attends to the row's columns up to it (:func:`_attend_last`).
        """
        rows = caches[0].lens.size
        if ids.shape != (rows, 1) or len(caches) != self.config.n_layers:
            raise ValueError("a decode step takes (rows, 1) ids and one cache per block")
        self.tok_emb.check(ids)
        pos = caches[0].lens
        cos, sin = self.rope.at(pos)
        each = np.arange(rows)
        x = self.tok_emb.weight.data[ids[:, 0]]
        for block, cache in zip(self._blocks(), caches):
            attn = block.attn
            h = _rms(x, block.attn_norm)
            cache.k[each, pos] = _rotate_rows(_linear(h, attn.wk), cos, sin, attn.n_heads)[:, :, 0]
            cache.v[each, pos] = _linear(h, attn.wv).reshape(rows, attn.n_heads, attn.head_dim)
            cache.lens = pos + 1
            width = int(pos.max()) + 1
            x = _attend_last(
                block, x, h, cos, sin, cache.k[:, :width], cache.v[:, :width], cache.lens,
                self.causal,
            )
        return _rms(x, self.norm) @ self.tok_emb.weight.data.T

    def _score_buffers(self, rows: int) -> _Buffers:
        """The calling thread's scoring buffers, replaced when too small."""
        buf = getattr(self._scratch, "buffers", None)
        if buf is None or buf.rows < rows:
            buf = self._scratch.buffers = _Buffers(self.config, max(rows, SCORE_ROWS))
        return buf

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


# -- the inference kernels ------------------------------------------------------
# Each helper mirrors one module's forward with the same NumPy operations,
# over the rows or packed tokens inference needs.


def _linear(x: np.ndarray, layer, out: np.ndarray | None = None) -> np.ndarray:
    """``Linear`` / ``LoRALinear`` forward, into ``out`` when given."""
    if isinstance(layer, LoRALinear):
        update = (x @ layer.lora_a.data.T) @ layer.lora_b.data.T
        out = np.matmul(x, layer.base.weight.data.T, out=out)
        out += update * np.float32(layer.scaling)
        return out
    return np.matmul(x, layer.weight.data.T, out=out)


def _rms(x: np.ndarray, norm) -> np.ndarray:
    return x * rms_inv(x) * norm.weight.data


def _rotate_rows(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, heads: int) -> np.ndarray:
    """Rotate (rows, dim) ``x``, one position per row whose RoPE rows
    are ``cos``/``sin`` (rows, head_dim/2), to (rows, heads, 1, head_dim)."""
    x = x.reshape(x.shape[0], 1, heads, -1).transpose(0, 2, 1, 3)
    return rotate_pairs(x, cos[:, None, None, :], sin[:, None, None, :])


def _attend_last(block, x, h, cos, sin, k, v, lens, causal) -> np.ndarray:
    """The block's output for one query per row, (rows, dim).  ``x`` and
    ``h`` are the residual stream and its normed value at each row's
    position ``lens - 1``, whose RoPE rows are ``cos``/``sin``; ``k`` and
    ``v`` (rows, W, heads, head_dim) hold the row's keys and values in
    columns ``0..lens - 1``."""
    attn = block.attn
    q = _rotate_rows(_linear(h, attn.wq), cos, sin, attn.n_heads)
    mask = causal[lens - 1, : k.shape[1]][:, None, None, :]
    scale = np.float32(1.0 / np.sqrt(attn.head_dim))
    probs = softmax_((q * scale) @ k.transpose(0, 2, 3, 1) + mask)
    ctx = (probs @ v.transpose(0, 2, 1, 3)).reshape(x.shape[0], attn.dim)
    return _residual_mlp(block, x + _linear(ctx, attn.wo))


def _residual_mlp(block, x: np.ndarray) -> np.ndarray:
    """``x`` plus the block's SwiGLU of its normed ``x``."""
    mlp = block.mlp
    m = _rms(x, block.mlp_norm)
    gate = _linear(m, mlp.gate)
    return x + _linear(gate * _sigmoid(gate) * _linear(m, mlp.up), mlp.down)


# -- the scoring prefill -------------------------------------------------------
# The same operations over packed real tokens, into reused buffers; the
# logits agree with each prompt's own forward to float32 rounding.


class _Buffers:
    """One thread's scoring arrays for ``rows`` prompts of up to
    ``max_seq_len`` tokens.  Zero-filled once, so they only ever hold
    finite values."""

    def __init__(self, config: ModelConfig, rows: int) -> None:
        tokens, dim = rows * config.max_seq_len, config.dim
        self.rows = rows
        # Packed per-token activations: the residual stream, the normed
        # input, projections and a spare.
        self.x, self.h, self.q, self.k, self.v, self.t = (
            np.zeros((tokens, dim), np.float32) for _ in range(6)
        )
        self.sq = np.zeros((tokens, dim), np.float64)  # RMSNorm's squares
        self.gate, self.up = (np.zeros((tokens, config.hidden_dim), np.float32) for _ in range(2))
        self.cos, self.sin = (np.zeros((tokens, dim), np.float32) for _ in range(2))
        # Left-aligned queries (then contexts), keys and values, flat.
        self.qa, self.ka, self.va = (np.zeros(tokens * dim, np.float32) for _ in range(3))
        self.scores = np.zeros(rows * config.n_heads * QUERY_BLOCK * config.max_seq_len, np.float32)


@dataclass
class _Layout:
    """Where one scoring call's tokens sit.  Rows are in ``lens`` order
    (ascending); ``qa``/``ka``/``va`` are the left-aligned queries (then
    contexts), keys and values, (rows, width, heads, head_dim); ``cells``
    maps each packed token to its (row, column) in them, flattened, and
    ``last`` each row's last token to its packed index; ``cos``/``sin``
    are the tokens' full-width RoPE rows."""

    lens: np.ndarray
    cells: np.ndarray
    last: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    qa: np.ndarray
    ka: np.ndarray
    va: np.ndarray


def _rms_into(x: np.ndarray, norm, buf: _Buffers) -> np.ndarray:
    """:func:`_rms` of packed ``x`` into ``buf.h``, the squares summed
    by one float64 matrix-vector product."""
    n, dim = x.shape
    sq = np.square(x, out=buf.sq[:n], dtype=np.float64)
    inv = 1.0 / np.sqrt((sq @ np.ones(dim)) / dim + RMS_EPS)
    out = np.multiply(x, inv.astype(np.float32)[:, None], out=buf.h[:n])
    out *= norm.weight.data
    return out


def _rope_into(x: np.ndarray, lay: _Layout, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Rotate packed ``x`` (n, dim) by its tokens' positions into ``out``."""
    np.multiply(x, lay.cos, out=out)
    spare[:, 0::2] = x[:, 1::2]  # each channel pair swapped
    spare[:, 1::2] = x[:, 0::2]
    spare *= lay.sin
    out += spare
    return out


def _packed_kv(attn, h: np.ndarray, buf: _Buffers, lay: _Layout) -> None:
    """Rotated keys and values of every token, into their grid cells;
    uses ``buf.t``, ``buf.k``, ``buf.v`` and ``buf.q``."""
    n, dim = h.shape
    lay.ka.reshape(-1, dim)[lay.cells] = _rope_into(
        _linear(h, attn.wk, out=buf.t[:n]), lay, buf.k[:n], buf.q[:n]
    )
    lay.va.reshape(-1, dim)[lay.cells] = _linear(h, attn.wv, out=buf.v[:n])


def _packed_block(block, x: np.ndarray, buf: _Buffers, lay: _Layout, causal: np.ndarray) -> None:
    """``TransformerBlock`` forward over every packed token of ``x``, in
    place.  Each query block reads the keys up to its end, of the rows
    that reach it, and adds the diagonal tile of ``causal``."""
    attn, mlp = block.attn, block.mlp
    n, dim = x.shape
    h = _rms_into(x, block.attn_norm, buf)
    _packed_kv(attn, h, buf, lay)
    q = _rope_into(_linear(h, attn.wq, out=buf.t[:n]), lay, buf.q[:n], buf.h[:n])
    q *= np.float32(1.0 / np.sqrt(attn.head_dim))
    qa, ka, va = lay.qa, lay.ka, lay.va
    qa.reshape(-1, dim)[lay.cells] = q
    width = qa.shape[1]
    for s in range(0, width, QUERY_BLOCK):
        e = min(s + QUERY_BLOCK, width)
        r0 = int(np.searchsorted(lay.lens, s, side="right"))
        q_blk = qa[r0:, s:e].transpose(0, 2, 1, 3)
        shape = (*q_blk.shape[:3], e)
        scores = buf.scores[: math.prod(shape)].reshape(shape)
        np.matmul(q_blk, ka[r0:, :e].transpose(0, 2, 3, 1), out=scores)
        scores[..., s:e] += causal[s:e, s:e]
        # The contexts replace the block's queries, which are spent.
        np.matmul(softmax_(scores), va[r0:, :e].transpose(0, 2, 1, 3), out=q_blk)
    ctx = np.take(qa.reshape(-1, dim), lay.cells, axis=0, out=buf.t[:n], mode="clip")
    x += _linear(ctx, attn.wo, out=buf.h[:n])
    m = _rms_into(x, block.mlp_norm, buf)
    gate = _linear(m, mlp.gate, out=buf.gate[:n])
    # SiLU as gate / (1 + exp(-gate)): NumPy's exp is several times
    # faster than expit; an overflow to inf gives the limit, -0.
    spare = np.negative(gate, out=buf.up[:n])
    with np.errstate(over="ignore"):
        np.exp(spare, out=spare)
    spare += 1
    gate /= spare
    gate *= _linear(m, mlp.up, out=buf.up[:n])
    x += _linear(gate, mlp.down, out=buf.t[:n])


def _top_block(block, x, buf, lay, causal, q_cos, q_sin) -> np.ndarray:
    """The last block's output at each row's last token, (rows, dim):
    keys and values from every token, the rest from the last ones."""
    h = _rms_into(x, block.attn_norm, buf)
    _packed_kv(block.attn, h, buf, lay)
    return _attend_last(
        block, x[lay.last], h[lay.last], q_cos, q_sin, lay.ka, lay.va, lay.lens, causal
    )
