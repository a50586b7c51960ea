"""Basic layers: Linear, Embedding, RMSNorm."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, embedding, rms_norm


class Linear(Module):
    """Linear map ``x @ W^T`` with no bias, as in LLaMA projections.

    Weights use scaled-Gaussian init (std = 1/sqrt(fan_in)), the LLaMA
    convention.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(
            (rng.standard_normal((out_features, in_features)) * scale).astype(np.float32),
            name="weight",
        )

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight.T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}->{self.out_features})"


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            (rng.standard_normal((num_embeddings, dim)) * 0.02).astype(np.float32),
            name="weight",
        )

    def check(self, ids: np.ndarray) -> None:
        """Raise ``IndexError`` unless every id is a row of the table."""
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        self.check(ids)
        return embedding(self.weight, ids)


class RMSNorm(Module):
    """LLaMA's RMS normalisation with a learned per-channel gain."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim
        self.weight = Parameter(np.ones(dim, dtype=np.float32), name="weight")

    def forward(self, x: Tensor) -> Tensor:
        return rms_norm(x, self.weight)
