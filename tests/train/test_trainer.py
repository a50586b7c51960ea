"""Tests for the unified Trainer: fitting, schedules, the LM-head path
per batch, callbacks, and config validation."""

import numpy as np
import pytest

from repro.llm import CausalLM, ModelConfig
from repro.nn import AdamW
from repro.nn.schedule import ConstantLR, CosineLR
from repro.train import (
    Fp16Config,
    StepInfo,
    TokenStreamSource,
    Trainer,
    TrainerConfig,
    make_schedule,
)
from repro.utils.rng import derive_rng

CFG = ModelConfig(vocab_size=64, dim=16, n_layers=1, n_heads=2,
                  hidden_dim=32, max_seq_len=32)


def make_model(seed=0):
    return CausalLM(CFG, derive_rng(seed, "tests/train/model"))


def make_source(batch_size=4, seed=0):
    rng = derive_rng(7, "tests/train/data")
    rows = rng.integers(0, CFG.vocab_size, size=(60, 17)).astype(np.int64)
    return TokenStreamSource(rows, batch_size, seed=seed)


class TestTraining:
    def test_loss_decreases(self):
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=40, lr=3e-3))
        report = trainer.train()
        assert report.steps == 40
        assert np.mean(report.losses[-5:]) < np.mean(report.losses[:5])
        assert report.tokens == 40 * 4 * 16
        assert not trainer.model.training  # back to eval mode

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            trainer = Trainer(make_model(), make_source(),
                              TrainerConfig(max_steps=8, lr=1e-3))
            runs.append(trainer.train().losses)
        assert runs[0] == runs[1]

    def test_adamw_default(self):
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=1, lr=1e-3))
        assert isinstance(trainer.optimizer, AdamW)

    def test_callbacks_see_every_step(self):
        infos: list[StepInfo] = []
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=6, lr=1e-3),
                          callbacks=[infos.append])
        trainer.train()
        assert [i.step for i in infos] == list(range(6))
        assert all(np.isfinite(i.loss) and i.lr > 0 for i in infos)

    def test_fp16_rounds_weights(self):
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=3, lr=1e-3,
                                        fp16=Fp16Config(enabled=True)))
        trainer.train()
        for p in trainer.model.trainable_parameters():
            np.testing.assert_array_equal(
                p.data, p.data.astype(np.float16).astype(np.float32)
            )

    @pytest.mark.parametrize("fp16", [False, True])
    def test_nan_gradient_step_leaves_weights_unchanged(self, fp16):
        infos: list[StepInfo] = []
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=1, lr=1e-2,
                                        fp16=Fp16Config(enabled=fp16)),
                          callbacks=[infos.append])
        before = [p.data.copy() for p in trainer.params]
        loss = trainer._loss
        trainer._loss = lambda batch: loss(batch) * float("nan")
        report = trainer.train()
        assert report.steps == 0 and report.skipped_steps == 1
        assert [i.skipped for i in infos] == [True]
        for p, old in zip(trainer.params, before):
            np.testing.assert_array_equal(p.data, old)
            assert np.isfinite(p.data).all()

    def test_custom_ignore_index_equivalent_to_default(self):
        # The sparse supervised-only path must honour the source's
        # ignore index, not a hardcoded -100.
        from repro.train import PaddedExampleSource

        examples = make_masked_examples()

        def run(ignore):
            exs = [(ids, np.where(t == -100, ignore, t)) for ids, t in examples]
            model = make_model(seed=2)
            src = PaddedExampleSource(exs, batch_size=4, ignore_index=ignore, seed=0)
            cfg = TrainerConfig(max_steps=4, lr=1e-3)
            return Trainer(model, src, cfg).train().losses

        assert run(-100) == run(-1)


def make_masked_examples():
    rng = derive_rng(9, "tests/train/ignore")
    examples = []
    for _ in range(8):
        length = int(rng.integers(6, 20))
        ids = rng.integers(1, CFG.vocab_size, size=length).astype(np.int64)
        targets = ids.copy()
        targets[: length // 2] = -100
        examples.append((ids, targets))
    return examples


class TestHeadPath:
    """The LM head runs over the supervised rows only when a batch has
    masked targets, and over every position otherwise."""

    def _head_rows(self, source):
        model = make_model(seed=3)
        rows: list[int] = []
        head = model.output_logits

        def spy(hidden):
            rows.append(int(np.prod(hidden.shape[:-1])))
            return head(hidden)

        model.output_logits = spy
        trainer = Trainer(model, source, TrainerConfig(max_steps=1, lr=1e-3))
        batch = source.next_batch()
        loss = trainer._loss(batch)
        return rows, batch, loss

    def test_masked_batch_projects_supervised_rows(self):
        from repro.train import PaddedExampleSource

        source = PaddedExampleSource(make_masked_examples(), batch_size=4, seed=0)
        rows, batch, loss = self._head_rows(source)
        assert rows == [batch.n_supervised] and batch.n_supervised < batch.n_tokens
        # Same objective as the full-sequence head over the same batch.
        from repro.tensor import fused_cross_entropy

        model = make_model(seed=3)
        full = fused_cross_entropy(model.forward(batch.ids), batch.targets)
        assert loss.item() == pytest.approx(full.item(), rel=1e-5)

    def test_unmasked_batch_projects_every_position(self):
        rows, batch, _ = self._head_rows(make_source())
        assert rows == [batch.n_tokens]


class TestSchedules:
    def test_constant_schedule(self):
        sched = make_schedule(TrainerConfig(max_steps=10, lr=2e-3))
        assert isinstance(sched, ConstantLR)
        assert sched(0) == sched(9) == 2e-3

    def test_cosine_decays_lr(self):
        lrs = []
        trainer = Trainer(
            make_model(), make_source(),
            TrainerConfig(max_steps=10, lr=1e-3, schedule="cosine"),
            callbacks=[lambda i: lrs.append(i.lr)],
        )
        assert isinstance(trainer.schedule, CosineLR)
        trainer.train()
        assert lrs[0] == pytest.approx(1e-3)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] < lrs[0]

    def test_warmup_cosine_ramps_then_decays(self):
        lrs = []
        trainer = Trainer(
            make_model(), make_source(),
            TrainerConfig(max_steps=12, lr=1e-3, schedule="cosine",
                          warmup_steps=4),
            callbacks=[lambda i: lrs.append(i.lr)],
        )
        assert isinstance(trainer.schedule, CosineLR)
        trainer.train()
        assert lrs[0] < lrs[3]  # warmup ramps up
        assert lrs[3] == pytest.approx(1e-3)
        assert lrs[-1] < lrs[4]  # cosine decays after warmup

    def test_schedule_drives_optimizer_lr(self):
        trainer = Trainer(
            make_model(), make_source(),
            TrainerConfig(max_steps=10, lr=1e-3, schedule="cosine"),
        )
        trainer.train()
        assert trainer.optimizer.lr == pytest.approx(trainer.schedule(9))


class TestValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=0, lr=1e-3)
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=1, lr=1e-3, schedule="step")
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=1, lr=1e-3, schedule="warmup-cosine")
        with pytest.raises(ValueError, match="cosine"):
            TrainerConfig(max_steps=10, lr=1e-3, warmup_steps=2)
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=1, lr=1e-3, checkpoint_every=5)
