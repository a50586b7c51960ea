"""Functional ops built on :class:`repro.tensor.tensor.Tensor`.

These are the fused, numerically-stable kernels the transformer stack
needs.  Each implements forward in vectorised NumPy and an analytic
backward (rather than composing many primitive nodes), which keeps both
graph depth and memory traffic low — the main performance lever for a
CPU training loop, per the hpc-parallel guides.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast

try:  # single-pass C ufunc; ships with the scipy already in the image
    from scipy.special import expit as _expit
except ImportError:  # pragma: no cover - scipy is a baked-in dependency
    _expit = None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable sigmoid.  scipy's expit is one fused pass; the fallback is a
    # branchless vector form (exp(-|z|) never overflows) — either way far
    # cheaper than the boolean fancy-indexing variant this replaces,
    # which cost ~4x in memory traffic and topped inference profiles.
    if _expit is not None:
        return _expit(z)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def silu(x: Tensor) -> Tensor:
    """SiLU / swish, the activation inside LLaMA's SwiGLU MLP."""
    s = _sigmoid(x.data)
    out_data = x.data * s

    def backward(g: np.ndarray):
        return [(x, g * (s * (1.0 + x.data * (1.0 - s))))]

    return Tensor._op(out_data, (x,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray | None) -> Tensor:
    """Fused ``softmax(x + mask)`` along the last axis.

    This is the attention-probabilities kernel: ``x`` is the raw score
    tensor (B, H, T_q, T_k) — the largest activation of the forward — so
    folding the additive mask and the softmax normalisation into in-place
    passes over one temporary is a measurable bandwidth win on the CPU
    substrate.  The scores arrive already scaled (attention folds
    1/sqrt(d) into the much smaller ``q``), skipping a full pass over the
    T_q x T_k tensor.
    """
    z = x.data + mask if mask is not None else x.data.copy()
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    out_data = z

    def backward(g: np.ndarray):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return [(x, out_data * (g - dot))]

    return Tensor._op(out_data.astype(x.dtype, copy=False), (x,), backward)


def cross_entropy_logits(
    logits: Tensor, targets: np.ndarray, ignore_index: int = -100
) -> Tensor:
    """Mean token cross-entropy from raw logits.

    Parameters
    ----------
    logits:
        Shape ``(..., vocab)``.
    targets:
        Integer array of shape ``(...)``; positions equal to
        ``ignore_index`` contribute neither loss nor gradient (used to mask
        prompt tokens during SFT so only the answer is supervised).
    """
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    mask = flat_targets != ignore_index
    count = int(mask.sum())
    if count == 0:
        raise ValueError("cross_entropy_logits: all targets are ignore_index")

    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    safe_targets = np.where(mask, flat_targets, 0)
    picked = logp[np.arange(flat_targets.size), safe_targets]
    loss_val = -(picked * mask).sum() / count
    out_data = np.asarray(loss_val, dtype=logits.dtype)

    def backward(g: np.ndarray):
        # g is scalar; d loss / d logits = (softmax - onehot) / count.
        probs = np.exp(logp)
        grad = probs
        grad[np.arange(flat_targets.size), safe_targets] -= 1.0
        grad *= (mask / count)[:, None]
        grad *= float(g)
        return [(logits, grad.reshape(logits.shape).astype(logits.dtype))]

    return Tensor._op(out_data, (logits,), backward)


def fused_cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: int = -100
) -> Tensor:
    """Mean token cross-entropy without materialising full log-probs.

    Numerically identical forward to :func:`cross_entropy_logits`
    (same shift, same summation order), but the only (B*T, vocab)
    temporary is the exp buffer — reused in place by the backward to
    produce the softmax gradient — instead of the three full-size
    arrays (shifted copy, log-probs, probs) the reference kernel
    allocates.  The logits tensor is the largest activation of a
    training step, so this halves the loss-node's memory traffic; it is
    the objective the :class:`repro.train.Trainer` hot loop uses.

    The backward consumes the exp buffer destructively, so it must run
    at most once (true for every training loop in the repo).
    """
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    mask = flat_targets != ignore_index
    count = int(mask.sum())
    if count == 0:
        raise ValueError("fused_cross_entropy: all targets are ignore_index")

    m = flat_logits.max(axis=1, keepdims=True)
    e = flat_logits - m  # the single full-size temporary
    np.exp(e, out=e)
    sums = e.sum(axis=1, keepdims=True)
    rows = np.arange(flat_targets.size)
    safe_targets = np.where(mask, flat_targets, 0)
    picked = flat_logits[rows, safe_targets]
    # -logp[target] = log(sum exp(shifted)) - (logit[target] - max)
    token_losses = np.log(sums[:, 0]) - (picked - m[:, 0])
    loss_val = (token_losses * mask).sum() / count
    out_data = np.asarray(loss_val, dtype=logits.dtype)

    consumed = False

    def backward(g: np.ndarray):
        # d loss / d logits = (softmax - onehot) * mask / count, scaled
        # by the upstream scalar.  Reuses ``e`` in place: probs = e/sums.
        nonlocal e, consumed
        if consumed:
            raise RuntimeError(
                "fused_cross_entropy backward ran twice: its exp buffer "
                "is consumed destructively; use cross_entropy_logits for "
                "graphs that traverse the loss node more than once"
            )
        consumed = True
        e /= sums
        e[rows, safe_targets] -= 1.0
        e *= (mask / count)[:, None]
        e *= float(g)
        return [(logits, e.reshape(logits.shape).astype(logits.dtype, copy=False))]

    return Tensor._op(out_data, (logits,), backward)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows ``x[idx]`` for *unique* indices.

    ``Tensor.__getitem__`` with an integer array must scatter its
    backward through ``np.add.at`` (indices may repeat), which is the
    slow ufunc path.  When the caller guarantees uniqueness — e.g. the
    supervised-position gather in the training engine, whose indices
    come from ``np.nonzero`` — plain ``grad[idx] += g`` is correct and
    orders of magnitude faster.
    """
    idx = np.asarray(idx)
    out_data = x.data[idx]

    def backward(g: np.ndarray):
        grad = np.zeros_like(x.data)
        grad[idx] += g
        return [(x, grad)]

    return Tensor._op(np.ascontiguousarray(out_data), (x,), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    ids = np.asarray(ids)
    out_data = weight.data[ids]

    def backward(g: np.ndarray):
        grad = np.zeros_like(weight.data)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, weight.shape[-1]))
        return [(weight, grad)]

    return Tensor._op(np.ascontiguousarray(out_data), (weight,), backward)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """LLaMA's RMSNorm: ``x / rms(x) * weight`` along the last axis."""
    ms = (x.data.astype(np.float64) ** 2).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + eps)).astype(np.float32)
    normed = x.data * inv
    out_data = normed * weight.data

    def backward(g: np.ndarray):
        d = x.shape[-1]
        gw = g * weight.data  # upstream through the scale
        # d/dx of x*inv where inv depends on x:
        dot = (gw * x.data).sum(axis=-1, keepdims=True)
        gx = gw * inv - x.data * (inv ** 3) * dot / d
        gweight = (g * normed).reshape(-1, d).sum(axis=0)
        return [(x, gx.astype(x.dtype)), (weight, _unbroadcast(gweight, weight.shape))]

    return Tensor._op(out_data.astype(x.dtype), (x, weight), backward)


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Fused rotary-position rotation.

    ``x`` has shape (B, H, T, D) with D even; ``cos``/``sin`` have shape
    (T, D/2) — or (B, T, D/2) for per-row positions, as in a left-padded
    batch — and are constants.  Channel pairs (2k, 2k+1) rotate by the
    position angle.  Fusing this (instead of composing getitem/stack
    nodes) is the single biggest training-speed lever on CPU.
    """
    b, h, t, d = x.shape
    x4 = x.data.reshape(b, h, t, d // 2, 2)
    e = x4[..., 0]
    o = x4[..., 1]
    if cos.ndim == 2:
        c = cos[None, None, :, :]
        s = sin[None, None, :, :]
    else:
        c = cos[:, None, :, :]
        s = sin[:, None, :, :]
    out = np.empty_like(x4)
    out[..., 0] = e * c - o * s
    out[..., 1] = e * s + o * c
    out_data = out.reshape(b, h, t, d)

    def backward(g: np.ndarray):
        g4 = g.reshape(b, h, t, d // 2, 2)
        ge = g4[..., 0]
        go = g4[..., 1]
        gx = np.empty_like(g4)
        gx[..., 0] = ge * c + go * s
        gx[..., 1] = -ge * s + go * c
        return [(x, gx.reshape(b, h, t, d))]

    return Tensor._op(out_data, (x,), backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradients flowing to both branches."""
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        return [
            (a, _unbroadcast(np.where(cond, g, 0.0), a.shape)),
            (b, _unbroadcast(np.where(cond, 0.0, g), b.shape)),
        ]

    return Tensor._op(out_data, (a, b), backward)


def cat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis``; backward splits the gradient."""
    if not tensors:
        raise ValueError("cat of empty list")
    axis_ = axis % tensors[0].ndim
    out_data = np.concatenate([t.data for t in tensors], axis=axis_)
    sizes = [t.shape[axis_] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        grads = []
        slicer: list = [slice(None)] * g.ndim
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            slicer[axis_] = slice(int(lo), int(hi))
            grads.append((t, np.ascontiguousarray(g[tuple(slicer)])))
        return grads

    return Tensor._op(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis; backward unstacks the gradient."""
    if not tensors:
        raise ValueError("stack of empty list")
    out_data = np.stack([t.data for t in tensors], axis=axis)
    axis_ = axis % out_data.ndim

    def backward(g: np.ndarray):
        return [
            (t, np.ascontiguousarray(np.take(g, i, axis=axis_)))
            for i, t in enumerate(tensors)
        ]

    return Tensor._op(out_data, tuple(tensors), backward)
