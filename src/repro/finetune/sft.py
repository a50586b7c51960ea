"""The supervised fine-tuning trainer (paper §3.5 / §4.1).

Recipe knobs mirror the paper: constant learning rate (2e-5 on the real
13B models; scaled up for the tiny substrate), batch size 16, LoRA with
PEFT semantics (base frozen, adapters trained), fp16 simulation, and
gradient clipping.

The loop itself is the unified :class:`repro.train.Trainer` — this
module owns only the SFT-specific parts: LoRA application and the
chat-formatted dataset, which :class:`repro.train.PaddedExampleSource`
batches by length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.schema import InstructionRecord
from repro.finetune.dataset import SFTDataset
from repro.llm.model import CausalLM
from repro.nn import LoRAConfig, apply_lora
from repro.tokenizer import BPETokenizer
from repro.train import (
    Fp16Config,
    PaddedExampleSource,
    Trainer,
    TrainerConfig,
)
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class SFTConfig:
    """Fine-tuning hyper-parameters."""

    lr: float = 5e-3  # tiny-model scale; the paper used 2e-5 at 13B
    epochs: int = 4
    batch_size: int = 16
    max_seq_len: int = 448
    lora: LoRAConfig = field(default_factory=lambda: LoRAConfig(rank=4))
    fp16: Fp16Config = field(default_factory=Fp16Config)
    grad_clip: float = 1.0
    weight_decay: float = 0.0
    schedule: str = "constant"  # the paper trains at a constant LR
    warmup_steps: int = 0  # cosine only
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class TrainStats:
    """Loss curve and bookkeeping from one fine-tuning run."""

    losses: list[float] = field(default_factory=list)
    steps: int = 0
    skipped_steps: int = 0
    seconds: float = 0.0
    trainable_params: int = 0
    total_params: int = 0

    @property
    def trainable_fraction(self) -> float:
        return self.trainable_params / self.total_params if self.total_params else 0.0

    def mean_loss(self, last: int = 20) -> float:
        tail = self.losses[-last:] if self.losses else [float("nan")]
        return float(np.mean(tail))

    @classmethod
    def from_report(
        cls, report, trainable_params: int, total_params: int
    ) -> "TrainStats":
        """Wrap a :class:`repro.train.TrainReport` — the single place
        that maps engine counters onto the SFT-facing stats."""
        return cls(
            losses=report.losses,
            steps=report.steps,
            skipped_steps=report.skipped_steps,
            seconds=report.seconds,
            trainable_params=trainable_params,
            total_params=total_params,
        )


class SFTTrainer:
    """Fine-tunes a model in place on instruction records."""

    def __init__(
        self, model: CausalLM, tokenizer: BPETokenizer, config: SFTConfig | None = None
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or SFTConfig()

    def trainer(
        self,
        records: list[InstructionRecord],
        checkpoint_every: int = 0,
        checkpoint_path: str | None = None,
    ) -> Trainer:
        """Apply LoRA and assemble (but do not run) the unified
        :class:`repro.train.Trainer` for ``records`` — the CLI and
        benchmarks hook callbacks / resume through this."""
        cfg = self.config
        model = self.model

        lora_rng = derive_rng(cfg.seed, "sft/lora")
        wrapped = apply_lora(model, cfg.lora, lora_rng)
        if cfg.lora.rank > 0 and not wrapped:
            raise RuntimeError("LoRA requested but no target modules matched")

        max_len = min(cfg.max_seq_len, model.config.max_seq_len)
        dataset = SFTDataset(records, self.tokenizer, max_seq_len=max_len)
        source = PaddedExampleSource(
            dataset.examples,
            cfg.batch_size,
            pad_id=self.tokenizer.special.pad_id,
            ignore_index=dataset.ignore_index,
            seed=cfg.seed,
            scope="sft/batches",
        )
        # ``epochs`` counts dataset passes, one batch per optimizer step.
        tcfg = TrainerConfig(
            max_steps=cfg.epochs * source.steps_per_epoch,
            lr=cfg.lr,
            weight_decay=cfg.weight_decay,
            schedule=cfg.schedule,
            warmup_steps=cfg.warmup_steps,
            grad_clip=cfg.grad_clip,
            fp16=cfg.fp16,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        return Trainer(model, source, tcfg)

    def train(
        self,
        records: list[InstructionRecord],
        resume_from: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_path: str | None = None,
    ) -> TrainStats:
        total_params = self.model.num_parameters()
        trainer = self.trainer(
            records, checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path
        )
        trainable_params = self.model.num_parameters(trainable_only=True)
        report = trainer.train(resume_from=resume_from)
        return TrainStats.from_report(report, trainable_params, total_params)
