"""Neural-network layer library over :mod:`repro.tensor`.

Provides the modules a LLaMA-architecture causal LM needs (token
embedding, RMSNorm, rotary-position multi-head attention, SwiGLU MLP),
plus LoRA adapters for parameter-efficient fine-tuning, the AdamW
optimizer with gradient clipping, constant and cosine LR schedules,
and checkpoint (de)serialization.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, Linear, RMSNorm
from repro.nn.attention import (
    KVCache,
    MultiHeadAttention,
    RotaryEmbedding,
    causal_mask,
)
from repro.nn.transformer import SwiGLU, TransformerBlock
from repro.nn.lora import LoRAConfig, LoRALinear, apply_lora, merge_lora
from repro.nn.optim import AdamW, GradClipper
from repro.nn.schedule import ConstantLR, CosineLR
from repro.nn.serialization import atomic_savez, load_state, save_state

__all__ = [
    "Module",
    "Parameter",
    "Embedding",
    "Linear",
    "RMSNorm",
    "KVCache",
    "MultiHeadAttention",
    "RotaryEmbedding",
    "causal_mask",
    "SwiGLU",
    "TransformerBlock",
    "LoRAConfig",
    "LoRALinear",
    "apply_lora",
    "merge_lora",
    "AdamW",
    "GradClipper",
    "ConstantLR",
    "CosineLR",
    "atomic_savez",
    "save_state",
    "load_state",
]
