"""Module/Parameter abstractions (a deliberately small torch.nn.Module).

A :class:`Parameter` is just a Tensor flagged as trainable; a
:class:`Module` tracks parameters and sub-modules through attribute
assignment and offers ``parameters()``/``named_parameters()`` walks,
``state_dict``/``load_state_dict``, train/eval mode, and parameter
freezing (used by LoRA fine-tuning to freeze the base model).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by default)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; this base collects them for optimisation, serialization,
    and mode switching.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # -- traversal ----------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in definition order."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.requires_grad]

    def num_parameters(self, trainable_only: bool = False) -> int:
        ps = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in ps))

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, mod in self._modules.items():
            yield from mod.named_modules(prefix=f"{prefix}{name}.")

    # -- state ----------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load arrays into parameters in place (shapes must match)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if name not in state:
                continue
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: have {p.data.shape}, got {arr.shape}"
                )
            p.data = arr.copy()

    # -- mode / grads -----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def freeze(self) -> "Module":
        """Stop gradients for every parameter (LoRA freezes the base)."""
        for p in self.parameters():
            p.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for p in self.parameters():
            p.requires_grad = True
        return self

    # -- call ---------------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
