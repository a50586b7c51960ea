"""A small reverse-mode automatic-differentiation engine over NumPy arrays.

This is the substrate standing in for PyTorch in the paper's training
pipeline: it provides exactly the operations a LLaMA-style causal
transformer needs (broadcasted arithmetic, matmul, reductions, indexing,
softmax/cross-entropy, RoPE-friendly slicing/concat) with correct
gradients, so supervised fine-tuning in :mod:`repro.finetune` is *real*
gradient descent rather than a mock.

Design notes (follows the hpc-parallel guides):

* every op is vectorised NumPy — no Python-level element loops;
* backward functions close over *views* where safe and only copy when
  the gradient actually needs materialising;
* float32 throughout by default; :mod:`repro.train.fp16` simulates the
  paper's fp16 training by casting parameters on the forward path.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.ops import (
    cat,
    cross_entropy_logits,
    embedding,
    fused_cross_entropy,
    masked_softmax,
    rms_norm,
    silu,
    stack,
    take_rows,
    where,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "cat",
    "cross_entropy_logits",
    "embedding",
    "fused_cross_entropy",
    "masked_softmax",
    "rms_norm",
    "silu",
    "stack",
    "take_rows",
    "where",
]
