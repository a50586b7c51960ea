"""Tests for the SFT stack: dataset construction, fp16 simulation, and
the trainer's ability to actually fit instruction data."""

import numpy as np
import pytest

from repro.datagen.schema import InstructionRecord
from repro.finetune import SFTConfig, SFTDataset, SFTTrainer
from repro.llm import CausalLM, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.nn import LoRAConfig
from repro.nn.module import Parameter
from repro.train import Fp16Config, LossScaler, PaddedExampleSource, round_to_fp16
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def tok():
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    corpus += ["the race answer is yes", "the race answer is no"]
    return train_tokenizer_on(corpus, vocab_size=360)


def toy_records(n=12):
    recs = []
    for i in range(n):
        label = "yes" if i % 2 == 0 else "no"
        marker = "storm" if label == "yes" else "garden"
        recs.append(
            InstructionRecord(
                instruction=f"does the {marker} pattern {i} race?",
                output=label,
                task="datarace",
            )
        )
    return recs


class TestDataset:
    def test_examples_cover_dataset(self, tok):
        ds = SFTDataset(toy_records(10), tok, max_seq_len=64)
        assert len(ds) == len(ds.examples) == 10
        assert all(len(ids) == len(targets) for ids, targets in ds.examples)

    def test_every_example_masks_its_prompt(self, tok):
        # The trainer projects only supervised rows through the LM head
        # when a batch has masked targets; SFT examples always do.
        ds = SFTDataset(toy_records(10), tok, max_seq_len=64)
        for _, targets in ds.examples:
            assert targets[0] == -100
            assert (targets != -100).any()

    def test_padding_and_masking(self, tok):
        ds = SFTDataset(toy_records(4), tok, max_seq_len=64)
        source = PaddedExampleSource(ds.examples, 4, pad_id=tok.special.pad_id)
        batch = source.next_batch()
        assert batch.ids.shape == batch.targets.shape
        assert (batch.targets != -100).any()
        # Pad positions have ignore targets.
        assert (batch.targets[batch.ids == tok.special.pad_id] == -100).all()

    def test_left_truncation_keeps_answer(self, tok):
        long_instruction = "analyze this " + "word " * 300 + "is it racy?"
        rec = InstructionRecord(long_instruction, "yes", task="datarace")
        ds = SFTDataset([rec], tok, max_seq_len=48)
        ids, targets = ds.examples[0]
        assert len(ids) <= 48
        assert (targets != -100).sum() >= 1  # answer survived

    def test_validation(self, tok):
        with pytest.raises(ValueError):
            SFTDataset([], tok, max_seq_len=64)
        with pytest.raises(ValueError):
            SFTDataset(toy_records(2), tok, max_seq_len=4)


class TestFp16:
    def test_round_to_fp16_quantises(self):
        from repro.nn import Linear

        lin = Linear(4, 4, derive_rng(0, "fp"))
        lin.weight.data += 1e-9  # below fp16 resolution
        before = lin.weight.data.copy()
        round_to_fp16(lin)
        assert lin.weight.data.dtype == np.float32
        assert not np.array_equal(before, lin.weight.data)

    def test_scaler_skips_nonfinite(self):
        scaler = LossScaler(Fp16Config(init_scale=64.0))
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([np.inf, 1.0], dtype=np.float32)
        assert not scaler.unscale_and_check([p])
        assert scaler.scale == 32.0 and scaler.skipped == 1

    def test_scaler_grows_after_good_steps(self):
        scaler = LossScaler(Fp16Config(init_scale=8.0, growth_interval=2))
        p = Parameter(np.zeros(2, dtype=np.float32))
        for _ in range(2):
            p.grad = np.ones(2, dtype=np.float32)
            assert scaler.unscale_and_check([p])
        assert scaler.scale == 16.0

    def test_unscale_divides(self):
        scaler = LossScaler(Fp16Config(init_scale=4.0))
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([4.0, 8.0], dtype=np.float32)
        scaler.unscale_and_check([p])
        np.testing.assert_allclose(p.grad, [1.0, 2.0])

    def test_disabled_scaler_passthrough(self):
        scaler = LossScaler(Fp16Config(enabled=False))
        assert scaler.loss_factor() == 1.0
        p = Parameter(np.zeros(1, dtype=np.float32))
        p.grad = np.array([2.0], dtype=np.float32)
        # Disabled: finite grads pass, divided by a scale of 1.
        assert scaler.unscale_and_check([p])
        assert p.grad[0] == 2.0
        # A non-finite grad is skipped with fp16 off too; the scale stays 1.
        p.grad = np.array([np.nan], dtype=np.float32)
        assert not scaler.unscale_and_check([p])
        assert scaler.skipped == 1 and scaler.loss_factor() == 1.0


class TestTrainer:
    def _model_tok(self, tok):
        cfg = ModelConfig(vocab_size=360, dim=16, n_layers=1, n_heads=2,
                          hidden_dim=32, max_seq_len=128)
        return CausalLM(cfg, derive_rng(4, "sft-test"))

    def test_full_ft_fits_toy_task(self, tok):
        """Full fine-tuning must drive loss down hard on a memorisable set."""
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=5e-3, epochs=25, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=0))
        stats = SFTTrainer(model, tok, cfg).train(toy_records(12))
        assert stats.trainable_params == stats.total_params
        assert np.mean(stats.losses[-5:]) < 0.5 * np.mean(stats.losses[:5])

    def test_lora_only_adapters_and_norms_train(self, tok):
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=1e-2, epochs=1, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=2))
        stats = SFTTrainer(model, tok, cfg).train(toy_records(6))
        assert 0 < stats.trainable_params < stats.total_params
        assert stats.trainable_params / stats.total_params < 0.5

    def test_fp16_training_runs(self, tok):
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=5e-3, epochs=2, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=0), fp16=Fp16Config(enabled=True))
        stats = SFTTrainer(model, tok, cfg).train(toy_records(6))
        assert stats.steps > 0
        assert np.isfinite(stats.mean_loss())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SFTConfig(epochs=0)

    def test_schedule_reaches_trainer(self, tok):
        from repro.nn import CosineLR

        cfg = SFTConfig(lr=5e-3, epochs=2, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=0), schedule="cosine", warmup_steps=2)
        trainer = SFTTrainer(self._model_tok(tok), tok, cfg).trainer(toy_records(12))
        assert isinstance(trainer.schedule, CosineLR)
        assert trainer.schedule.warmup_steps == 2
        assert trainer.schedule.total_steps == trainer.config.max_steps == 4
        # Warmup without the cosine schedule is rejected, not ignored.
        cfg = SFTConfig(lr=5e-3, lora=LoRAConfig(rank=0), warmup_steps=2)
        with pytest.raises(ValueError, match="cosine"):
            SFTTrainer(self._model_tok(tok), tok, cfg).trainer(toy_records(12))

    def test_deterministic_given_seed(self, tok):
        losses = []
        for _ in range(2):
            model = self._model_tok(tok)
            cfg = SFTConfig(lr=5e-3, epochs=2, batch_size=6, max_seq_len=128,
                            lora=LoRAConfig(rank=0), seed=7)
            stats = SFTTrainer(model, tok, cfg).train(toy_records(8))
            losses.append(stats.losses)
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-5)
