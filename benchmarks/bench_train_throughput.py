"""Training throughput: the unified-trainer levers, measured.

Times the two training workloads everything builds on:

* **pretrain** (packed-stream next-token training): tokens/sec through
  the :class:`repro.train.Trainer`, cold vs resumed — a run restarted
  from a mid-run :mod:`repro.train.checkpoint` file must pay only the
  checkpoint load, not a restart from step 0.  Both are timed
  ``PRETRAIN_RUNS`` times after an untimed warm-up run and recorded as
  ``{metric, value, unit, n, min, max, host}`` (value: the median);
* **SFT** (instruction fine-tuning): wall-clock for the *seed loop*
  (the original ``SFTTrainer.train`` body, kept here as the baseline:
  shuffle-then-pad batching + reference cross-entropy over every
  position) vs the unified trainer.

The trainer's two SFT levers compound: the fused objective projects
only the supervised answer span through the LM head (~18% of positions
on the small preset), and length bucketing stops a shuffled batch from
padding short QA rows out to the longest code row it happened to
contain.

Writes ``benchmarks/out/BENCH_train.json``.  Defaults to the small
preset; set ``REPRO_BENCH_PRESET=paper`` for the full configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time

import numpy as np

from _shared import OUT_DIR, record, write_out
from repro.core import HPCGPTSystem, PAPER_PRESET, SMALL_PRESET
from repro.finetune import SFTTrainer
from repro.finetune.dataset import SFTDataset
from repro.llm.pretrain import pretrain_trainer
from repro.llm.registry import BASE_RECIPES
from repro.nn import AdamW, GradClipper, apply_lora
from repro.tensor import cross_entropy_logits
from repro.train.fp16 import LossScaler, round_to_fp16
from repro.utils.rng import derive_rng

SFT_EPOCHS = 2
#: Timed runs of each pretrain variant (after one untimed warm-up run).
PRETRAIN_RUNS = 5


def bench_pretrain(cfg) -> dict:
    """Cold run vs checkpoint+resume of the same pretraining recipe,
    each timed ``PRETRAIN_RUNS`` times after one untimed warm-up run:
    the first training in a process also pays the interpreter's
    warm-up, which would otherwise land on whichever run came first."""
    recipe = BASE_RECIPES["llama2-13b-sim"]
    pre = dataclasses.replace(
        cfg.pretrain, corpus_scale=recipe["corpus_scale"], seed=recipe["seed"]
    )
    model_cfg = dataclasses.replace(cfg.model, name="bench-train")

    warmup, tok = pretrain_trainer(model_cfg, pre)
    warmup.train()

    cold_rates = []
    for _ in range(PRETRAIN_RUNS):
        trainer, _ = pretrain_trainer(model_cfg, pre, tokenizer=tok)
        t0 = time.perf_counter()
        cold = trainer.train()
        cold_rates.append(cold.tokens / (time.perf_counter() - t0))

    half = pre.steps // 2
    resumed_rates = []
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "pretrain.npz")
        # A full run that snapshots at the halfway point; each resumed
        # run then replays only the second half from that file.
        first, _ = pretrain_trainer(
            model_cfg, pre, tokenizer=tok, checkpoint_every=half, checkpoint_path=ck
        )
        first.train()
        for _ in range(PRETRAIN_RUNS):
            resumed_trainer, _ = pretrain_trainer(model_cfg, pre, tokenizer=tok)
            t0 = time.perf_counter()
            resumed = resumed_trainer.train(resume_from=ck)
            # resumed.tokens counts only post-resume forwards, so this
            # rate includes the checkpoint-load overhead.
            resumed_rates.append(resumed.tokens / (time.perf_counter() - t0))
    return {
        "steps": pre.steps,
        "resume_point": half,
        "warmup_runs": 1,
        "records": [
            record("pretrain_cold_tokens_per_s", cold_rates, "tok/s"),
            record("pretrain_resumed_tokens_per_s", resumed_rates, "tok/s"),
        ],
        "loss_parity": bool(np.allclose(cold.losses, resumed.losses)),
    }


def shuffled_padded_batches(dataset, batch_size, rng, pad_id):
    """One pass over ``dataset.examples`` the seed loop's way: shuffle
    every example, slice into batches, pad each to its longest row."""
    order = np.arange(len(dataset.examples))
    rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = [dataset.examples[i] for i in order[start : start + batch_size]]
        width = max(len(ids) for ids, _ in chunk)
        ids = np.full((len(chunk), width), pad_id, dtype=np.int64)
        targets = np.full((len(chunk), width), dataset.ignore_index, dtype=np.int64)
        for k, (ex_ids, ex_targets) in enumerate(chunk):
            ids[k, : len(ex_ids)] = ex_ids
            targets[k, : len(ex_targets)] = ex_targets
        yield ids, targets


def seed_sft_loop(cfg, base, tok, records) -> tuple[float, int]:
    """The original ``SFTTrainer.train`` body, kept as the baseline:
    shuffled batches padded to their longest row, reference
    cross-entropy over every position."""
    sft = dataclasses.replace(cfg.sft, epochs=SFT_EPOCHS)
    model = base.copy()
    lora_rng = derive_rng(sft.seed, "sft/lora")
    apply_lora(model, sft.lora, lora_rng)  # same wrapping as the seed trainer
    max_len = min(sft.max_seq_len, model.config.max_seq_len)
    dataset = SFTDataset(records, tok, max_seq_len=max_len)
    params = model.trainable_parameters()
    opt = AdamW(params, lr=sft.lr, weight_decay=sft.weight_decay)
    clipper = GradClipper(sft.grad_clip)
    scaler = LossScaler(sft.fp16)
    data_rng = derive_rng(sft.seed, "sft/batches")
    model.train()
    tokens = 0
    t0 = time.perf_counter()
    for _ in range(sft.epochs):
        for ids, targets in shuffled_padded_batches(
            dataset, sft.batch_size, data_rng, tok.special.pad_id
        ):
            logits = model.forward(ids)
            loss = cross_entropy_logits(logits, targets)
            opt.zero_grad()
            loss.backward(np.asarray(scaler.loss_factor(), dtype=np.float32))
            tokens += ids.size
            if not scaler.unscale_and_check(params):
                continue
            clipper.clip(params)
            opt.step()
            if sft.fp16.enabled:
                round_to_fp16(model, trainable_only=True)
    model.eval()
    return time.perf_counter() - t0, tokens


def trainer_sft_loop(cfg, base, tok, records) -> tuple[float, int]:
    sft = dataclasses.replace(cfg.sft, epochs=SFT_EPOCHS)
    model = base.copy()
    # Assemble outside the timed region, mirroring the seed baseline
    # (its clock also starts after dataset/optimizer setup) so the
    # speedup compares loop wall-clock against loop wall-clock.
    trainer = SFTTrainer(model, tok, sft).trainer(records)
    t0 = time.perf_counter()
    report = trainer.train()
    return time.perf_counter() - t0, report.tokens


def main() -> None:
    cfg = PAPER_PRESET if os.environ.get("REPRO_BENCH_PRESET") == "paper" else SMALL_PRESET
    system = HPCGPTSystem(cfg)
    records = system.collect_data().records
    base = system.registry.base_model("llama2-13b-sim")
    tok = system.tokenizer

    pretrain_stats = bench_pretrain(cfg)

    seed_sec, seed_tokens = seed_sft_loop(cfg, base, tok, records)
    trainer_sec, trainer_tokens = trainer_sft_loop(cfg, base, tok, records)

    payload = {
        "preset": cfg.model.name,
        "model": {
            "dim": cfg.model.dim,
            "n_layers": cfg.model.n_layers,
            "vocab_size": cfg.model.vocab_size,
            "max_seq_len": cfg.model.max_seq_len,
        },
        "pretrain": pretrain_stats,
        "sft": {
            "epochs": SFT_EPOCHS,
            "n_records": len(records),
            "padded_tokens": {"seed_loop": seed_tokens, "trainer": trainer_tokens},
            "seconds": {"seed_loop": seed_sec, "trainer": trainer_sec},
            "tokens_per_sec": {
                "seed_loop": seed_tokens / seed_sec,
                "trainer": trainer_tokens / trainer_sec,
            },
            "speedup": {"trainer_vs_seed": seed_sec / trainer_sec},
        },
    }
    (OUT_DIR / "BENCH_train.json").write_text(json.dumps(payload, indent=1) + "\n")

    sft = payload["sft"]
    cold, resumed = pretrain_stats["records"]
    write_out(
        "bench_train_throughput.txt",
        "\n".join(
            [
                f"Training throughput ({cfg.model.name}, {len(records)} SFT records)",
                f"  pretrain      cold: {cold['value']:9,.0f} tok/s "
                f"[{cold['min']:,.0f}-{cold['max']:,.0f}]   "
                f"resumed: {resumed['value']:9,.0f} tok/s "
                f"[{resumed['min']:,.0f}-{resumed['max']:,.0f}]   "
                f"(median of {cold['n']} after a warm-up; "
                f"loss parity: {pretrain_stats['loss_parity']})",
                f"  SFT           seed loop: {sft['seconds']['seed_loop']:.2f}s   "
                f"trainer: {sft['seconds']['trainer']:.2f}s   "
                f"speedup vs seed: {sft['speedup']['trainer_vs_seed']:.2f}x",
                "  artifact: benchmarks/out/BENCH_train.json",
            ]
        ),
    )


if __name__ == "__main__":
    main()
