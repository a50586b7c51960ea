"""E14 — LoRA-rank ablation (the §4.1 design choice).

The paper fine-tunes 13B models with LoRA + PEFT.  At this substrate's
scale (~10^5 parameters) the rank choice sits in a noisy regime: narrow
attention-only adapters underfit badly, while wider all-linear adapters
with trained norms can match or beat full fine-tuning depending on the
seed.  The ablation reports measured held-out accuracy for rank
{0 (full FT), 4, 16} with the trainable-parameter budget of each, and
asserts only the robust facts: every recipe clears the chance floor and
at least one reaches useful accuracy.
"""

import dataclasses

import numpy as np

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.drb import DRBSuite
from repro.finetune import SFTTrainer
from repro.llm import InferenceEngine
from repro.nn import LoRAConfig

from benchmarks._shared import write_out

RANKS = (0, 4, 16)
_ALL_LINEAR = (
    "attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.gate", "mlp.up", "mlp.down",
)


def _eval_specs(n=70):
    suite = DRBSuite.evaluation(seed=0)
    rng = np.random.default_rng(3)
    pool = [s for s in suite.by_language("C/C++") if "oversize" not in s.features]
    return list(rng.permutation(np.array(pool, dtype=object)))[:n]


def _accuracy(model, tok, specs, records):
    from repro.datagen.prompts import race_instruction

    engine = InferenceEngine(model, tok)
    # Calibrate threshold on training data, as the system does.
    yes_m = engine.yes_no_margins([r.instruction for r in records
                                   if r.task == "datarace" and r.output == "yes"][:40])
    no_m = engine.yes_no_margins([r.instruction for r in records
                                  if r.task == "datarace" and r.output == "no"][:40])
    thr = (np.median(yes_m) + np.median(no_m)) / 2 if yes_m and no_m else 0.0
    margins = engine.yes_no_margins([race_instruction(s.source, s.language) for s in specs])
    ok = sum((m >= thr) == (s.label == "yes") for s, m in zip(specs, margins))
    return ok / len(specs)


def test_lora_rank_ablation(benchmark):
    cfg = dataclasses.replace(SMALL_PRESET, use_cache=False)
    sys_ = HPCGPTSystem(cfg)
    records = sys_.collect_data().records
    base = sys_.registry.base_model("llama2-13b-sim")
    tok = sys_.tokenizer
    specs = _eval_specs()

    def run_rank(rank: int):
        model = base.copy()
        lora = LoRAConfig(rank=rank, alpha=max(2 * rank, 1),
                          target_modules=_ALL_LINEAR) if rank else LoRAConfig(rank=0)
        sft = dataclasses.replace(cfg.sft, lora=lora)
        stats = SFTTrainer(model, tok, sft).train(records)
        from repro.nn import merge_lora

        merge_lora(model)
        return _accuracy(model, tok, specs, records), stats.trainable_params

    results = benchmark.pedantic(
        lambda: {r: run_rank(r) for r in RANKS}, rounds=1, iterations=1
    )

    lines = ["E14 — LoRA-rank ablation (small preset, C/C++ sample)"]
    for rank, (acc, params) in results.items():
        tag = "full fine-tuning" if rank == 0 else f"rank {rank}"
        lines.append(f"  {tag:<18} trainable={params:>7,}  accuracy={acc:.3f}")
    write_out("ablation_lora.txt", "\n".join(lines))

    # Robust assertions only (orderings between ranks are seed-noise at
    # this scale; the printed table is the result).
    for rank, (acc, params) in results.items():
        assert acc >= 0.45, (rank, acc)
    assert max(acc for acc, _ in results.values()) >= 0.58
    # LoRA budgets must actually be parameter-efficient.
    assert results[4][1] < results[0][1]
    assert results[16][1] < results[0][1]
