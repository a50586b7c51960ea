"""Core reverse-mode autodiff tensor.

The engine builds a DAG of :class:`Tensor` nodes during the forward pass;
:meth:`Tensor.backward` topologically sorts the graph and accumulates
gradients.  Each op's backward closure receives the upstream gradient and
returns ``(parent, gradient)`` pairs; the traversal routes them, so no
state is stashed on interior nodes.  Broadcasting is handled by
*unbroadcasting* upstream gradients back to each operand's shape (summing
over broadcast axes), matching NumPy broadcast semantics exactly.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True

# A backward closure maps the upstream gradient to per-parent gradients.
BackwardFn = Callable[[np.ndarray], "list[tuple[Tensor, np.ndarray]]"]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Whether ops currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of the broadcast result) back to ``shape``.

    Sums over axes that were added by broadcasting and over axes where the
    operand had extent 1 but the result did not.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating) and value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; stored as float32 by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    name:
        Optional debugging label (shows up in ``repr``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = "") -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: BackwardFn | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def from_rng(
        rng: np.random.Generator,
        shape: Sequence[int],
        scale: float = 1.0,
        requires_grad: bool = False,
    ) -> "Tensor":
        """Gaussian init N(0, scale^2) drawn from an explicit generator."""
        data = (rng.standard_normal(tuple(shape)) * scale).astype(np.float32)
        return Tensor(data, requires_grad=requires_grad)

    # -- properties ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy). Do not mutate in place if this
        tensor participates in a live graph."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def __len__(self) -> int:
        return self.shape[0]

    # -- graph plumbing ----------------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: tuple["Tensor", ...], backward: BackwardFn) -> "Tensor":
        """Create a result node, wiring the backward closure only when the
        graph is live and some parent requires grad."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = ""
        track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.requires_grad = track
        out._parents = tuple(p for p in parents if p.requires_grad) if track else ()
        out._backward = backward if track else None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this node.

        ``grad`` defaults to ones (this node must then be scalar, as for a
        loss value).  Leaf tensors with ``requires_grad`` receive gradients
        in :attr:`grad`; interior gradients are transient.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Iterative post-order topological sort (deep transformer graphs
        # overflow Python's recursion limit).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            nid = id(node)
            if nid in visited:
                continue
            visited.add(nid)
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)  # leaf
                continue
            for parent, pgrad in node._backward(g):
                if not parent.requires_grad:
                    continue
                pid = id(parent)
                if parent._backward is None:
                    parent._accumulate(pgrad)
                elif pid in pending:
                    pending[pid] = pending[pid] + pgrad
                else:
                    pending[pid] = pgrad

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)

        def backward(g: np.ndarray):
            return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

        return Tensor._op(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)

        def backward(g: np.ndarray):
            return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

        return Tensor._op(a.data - b.data, (a, b), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other).__sub__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray):
            return [(a, -g)]

        return Tensor._op(-a.data, (a,), backward)

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)

        def backward(g: np.ndarray):
            return [
                (a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape)),
            ]

        return Tensor._op(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)

        def backward(g: np.ndarray):
            return [
                (a, _unbroadcast(g / b.data, a.shape)),
                (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
            ]

        return Tensor._op(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other).__truediv__(self)

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self
        out_data = a.data ** exponent

        def backward(g: np.ndarray):
            return [(a, g * exponent * a.data ** (exponent - 1))]

        return Tensor._op(out_data, (a,), backward)

    def __matmul__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)

        def backward(g: np.ndarray):
            da, db = a.data, b.data
            grads: list[tuple[Tensor, np.ndarray]] = []
            if da.ndim == 1 and db.ndim == 1:
                grads.append((a, g * db))
                grads.append((b, g * da))
                return grads
            if da.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
                ga = (g[..., None, :] * db).sum(axis=-1)
                grads.append((a, _unbroadcast(ga, da.shape)))
                gb = da[:, None] * g[..., None, :]
                grads.append((b, _unbroadcast(gb, db.shape)))
                return grads
            if db.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                ga = g[..., :, None] * db
                grads.append((a, _unbroadcast(ga, da.shape)))
                gb = (g[..., :, None] * da).reshape(-1, da.shape[-1]).sum(axis=0)
                grads.append((b, _unbroadcast(gb, db.shape)))
                return grads
            ga = g @ np.swapaxes(db, -1, -2)
            gb = np.swapaxes(da, -1, -2) @ g
            grads.append((a, _unbroadcast(ga, da.shape)))
            grads.append((b, _unbroadcast(gb, db.shape)))
            return grads

        return Tensor._op(a.data @ b.data, (a, b), backward)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(g: np.ndarray):
            return [(a, g * out_data)]

        return Tensor._op(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray):
            return [(a, g / a.data)]

        return Tensor._op(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def clip(self, lo: float, hi: float) -> "Tensor":
        a = self
        out_data = np.clip(a.data, lo, hi)

        def backward(g: np.ndarray):
            mask = ((a.data >= lo) & (a.data <= hi)).astype(a.dtype)
            return [(a, g * mask)]

        return Tensor._op(out_data, (a,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims), dtype=a.dtype)

        def backward(g: np.ndarray):
            if axis is None:
                grad = np.broadcast_to(g, a.shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % a.ndim for ax in axes)
                gg = g
                if not keepdims:
                    for ax in sorted(axes):
                        gg = np.expand_dims(gg, ax)
                grad = np.broadcast_to(gg, a.shape)
            return [(a, np.ascontiguousarray(grad))]

        return Tensor._op(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.shape[ax % self.ndim]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = np.asarray(a.data.max(axis=axis, keepdims=keepdims), dtype=a.dtype)

        def backward(g: np.ndarray):
            if axis is None:
                mask = (a.data == a.data.max()).astype(a.dtype)
                mask /= mask.sum()
                return [(a, g * mask)]
            expanded = a.data.max(axis=axis, keepdims=True)
            mask = (a.data == expanded).astype(a.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            gg = g if keepdims else np.expand_dims(g, axis)
            return [(a, gg * mask)]

        return Tensor._op(out_data, (a,), backward)

    # -- shape manipulation -----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def backward(g: np.ndarray):
            return [(a, g.reshape(a.shape))]

        return Tensor._op(out_data, (a,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self

        def backward(g: np.ndarray):
            # The inverse permutation is only needed here, not under no_grad.
            return [(a, g.transpose(np.argsort(axes)))]

        return Tensor._op(a.data.transpose(axes), (a,), backward)

    def swapaxes(self, i: int, j: int) -> "Tensor":
        perm = list(range(self.ndim))
        perm[i], perm[j] = perm[j], perm[i]
        return self.transpose(*perm)

    def __getitem__(self, idx) -> "Tensor":
        a = self
        out_data = a.data[idx]
        basic = _is_basic_index(idx)

        def backward(g: np.ndarray):
            grad = np.zeros_like(a.data)
            if basic:
                # Basic slicing selects disjoint positions: plain in-place
                # add is correct and orders of magnitude faster than
                # np.add.at's ufunc path.
                grad[idx] += g
            else:
                np.add.at(grad, idx, g)
            return [(a, grad)]

        return Tensor._op(np.ascontiguousarray(out_data), (a,), backward)


def _is_basic_index(idx) -> bool:
    """True when ``idx`` uses only ints/slices/ellipsis/None (no fancy
    integer/boolean arrays), i.e. positions are distinct."""
    items = idx if isinstance(idx, tuple) else (idx,)
    for it in items:
        if isinstance(it, (int, np.integer, slice)) or it is Ellipsis or it is None:
            continue
        return False
    return True
