"""Supervised fine-tuning (Figure 1, stage 2).

Implements the paper's training recipe at laptop scale: instruction SFT
with LoRA adapters (PEFT — only the adapters and the RMSNorm gains
train, see :func:`repro.nn.apply_lora`), fp16
mixed-precision simulation with loss scaling (:mod:`repro.train.fp16`),
AdamW at a constant learning rate, gradient clipping, and checkpointing.
"""

from repro.finetune.dataset import SFTDataset
from repro.finetune.sft import SFTConfig, SFTTrainer, TrainStats

__all__ = [
    "SFTDataset",
    "SFTConfig",
    "SFTTrainer",
    "TrainStats",
]
