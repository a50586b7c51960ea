"""Decoding policy: greedy and temperature/top-k sampling.

This module keeps the decoding *policy* (:class:`GenerationConfig`,
:func:`_sample_from_logits`); the decode loop — batched prefill +
incremental KV-cache decode — lives in
:class:`repro.llm.engine.InferenceEngine`, the one decode path shared by
generation, scoring, evaluation, and serving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding hyper-parameters."""

    max_new_tokens: int = 32
    temperature: float = 0.0  # 0 => greedy
    top_k: int = 0  # 0 => no top-k filtering
    stop_at_eos: bool = True

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


def _sample_from_logits(
    logits: np.ndarray, config: GenerationConfig, rng: np.random.Generator | None
) -> int:
    if config.temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / config.temperature
    if config.top_k > 0 and config.top_k < scaled.size:
        kth = np.partition(scaled, -config.top_k)[-config.top_k]
        scaled = np.where(scaled >= kth, scaled, -np.inf)
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    if rng is None:
        raise ValueError("sampling requires an rng when temperature > 0")
    return int(rng.choice(probs.size, p=probs))
