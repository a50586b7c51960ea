"""§5 update persistence: an ``update_with`` must survive a process
restart — a fresh :class:`HPCGPTSystem` over the same cache sees the
updated weights and recalibrated threshold, not the original build."""

import dataclasses

import numpy as np
import pytest

from repro.core import HPCGPTConfig, HPCGPTSystem
from repro.finetune import SFTConfig
from repro.llm import InferenceEngine, ModelConfig, PretrainConfig
from repro.nn import LoRAConfig

#: Smallest config that still runs the full collect -> SFT -> calibrate
#: flow (sub-second build, so this file can afford fresh systems).
TINY = HPCGPTConfig(
    model=ModelConfig(vocab_size=512, dim=16, n_layers=1, n_heads=2,
                      hidden_dim=48, max_seq_len=256, name="hpc-gpt-tiny"),
    pretrain=PretrainConfig(n_sentences=80, steps=10, batch_size=4,
                            seq_len=32, lr=4e-3),
    sft=SFTConfig(lr=3e-3, epochs=1, batch_size=8, max_seq_len=256,
                  lora=LoRAConfig(rank=0)),
    task1_scale=0.02,
    task2_scale=0.02,
    train_pool_per_category=2,
    plp_entries_per_category=2,
    mlperf_rows=6,
)


@pytest.fixture()
def cached_system(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    system = HPCGPTSystem(TINY)
    system.finetuned("l2")
    return system


def states_equal(a, b):
    return all(
        np.array_equal(x, y)
        for (_, x), (_, y) in zip(sorted(a.items()), sorted(b.items()))
    )


class TestUpdatePersistence:
    def test_fresh_system_sees_update(self, cached_system):
        records = cached_system.collect_data().records[:4]
        before = {k: v.copy() for k, v in cached_system.finetuned("l2").state_dict().items()}
        stats = cached_system.update_with(records, epochs=1)
        assert stats.steps >= 1
        after = cached_system.finetuned("l2").state_dict()
        assert not states_equal(before, after)

        # "Restart": a brand-new system over the same cache dir.
        fresh = HPCGPTSystem(TINY)
        assert states_equal(fresh.finetuned("l2").state_dict(), after)
        assert fresh.threshold("l2") == cached_system.threshold("l2")

    def test_updates_version_monotonically(self, cached_system):
        records = cached_system.collect_data().records[:3]
        cached_system.update_with(records, epochs=1)
        cached_system.update_with(records, epochs=1)
        names = sorted(p.name for p in cached_system.cache_dir.glob("*update*"))
        assert [n.split("-update-")[1] for n in names] == ["0001.npz", "0002.npz"]
        # The newest checkpoint is what a fresh process loads.
        fresh = HPCGPTSystem(TINY)
        assert states_equal(
            fresh.finetuned("l2").state_dict(),
            cached_system.finetuned("l2").state_dict(),
        )

    def test_latest_update_orders_numerically(self, cached_system):
        # Lexicographic order lies once the zero-padded counter widens
        # (e.g. "10000" < "9999"): latest must be picked by parsed index.
        prefix = cached_system._update_ckpt_prefix("l2")
        for n in ("9999", "10000"):
            (cached_system.cache_dir / f"{prefix}{n}.npz").touch()
        latest = cached_system._latest_update_ckpt("l2")
        assert latest.name.endswith("-update-10000.npz")

    def test_update_reaches_the_serving_engine(self, cached_system):
        """The engine keeps no state between calls, so the one serving
        before an update scores with the updated weights after it."""
        engine = cached_system.engine("l2")
        records = cached_system.collect_data().records[:3]
        questions = [r.instruction for r in records]
        before = engine.yes_no_margins(questions)
        cached_system.update_with(records, epochs=1)
        after = engine.yes_no_margins(questions)
        assert after != before
        fresh = InferenceEngine(cached_system.finetuned("l2"), cached_system.tokenizer)
        assert after == fresh.yes_no_margins(questions)

    def test_other_version_unaffected(self, cached_system):
        records = cached_system.collect_data().records[:3]
        cached_system.update_with(records, version="l2", epochs=1)
        assert not list(cached_system.cache_dir.glob("hpcgpt-l1-*update*"))

    def test_no_cache_dir_skips_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        system = HPCGPTSystem(dataclasses.replace(TINY, use_cache=False))
        records = system.collect_data().records[:3]
        before = system.threshold("l2")
        system.update_with(records, epochs=1)
        assert not list(tmp_path.glob("*update*"))
        assert np.isfinite(system.threshold("l2")) and isinstance(before, float)
