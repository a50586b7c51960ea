"""Inference throughput: the batching lever, measured.

Times the two engine workloads every consumer runs, over real Table-5
race prompts:

* **generation** (batched prefill + incremental greedy decode):
  tokens/sec at batch width 1 vs 16 — decode steps are tiny-matmul
  dispatch-bound work, so micro-batching 16 rows amortises nearly all
  of it.  Both widths must decode the same tokens (``greedy_parity``);
* **margin scoring** (``logit(" yes") - logit(" no")``): margins/sec for
  the pre-engine *sequential path* (one full forward per prompt, all
  positions through the LM head — what ``yes_no_margin`` did before the
  engine existed), vs the engine at batch 1 and batch 16.

Margin prefill at these prompt lengths is bandwidth-bound single-core
compute, so its batched ceiling is architectural: the sequential path
pays (n_layers full + full-T head) per prompt while the batched path
cannot go below (n_layers - 1 full layers) — about 2.3x for the 2-layer
presets here; more cores move that ceiling, more batch width does not.

The five configurations (sequential path, engine batch 1 and 16,
generation at widths 1 and 16) are timed in ``ROUNDS`` rotated rounds
after one untimed warm-up pass each: every round times each
configuration once, starting one configuration later than the round
before, so host drift between rounds hits every configuration alike.
Each rate is recorded as ``{metric, value, unit, n, min, max, host}``
(value: the median over rounds), and each ``speedup`` entry is the
median of the per-round ratios, with their min and max.  Writes ``benchmarks/out/BENCH_inference.json``; ``--smoke``
times fewer prompts and writes to the gitignored
``benchmarks/out-smoke/`` instead, leaving the committed full-run files
alone.  Defaults to the small preset; set ``REPRO_BENCH_PRESET=paper``
for the full bench configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from _shared import OUT_DIR, SMOKE_OUT_DIR, record, write_out
from repro.core import HPCGPTSystem, PAPER_PRESET, SMALL_PRESET
from repro.datagen.prompts import race_instruction
from repro.drb import DRBSuite
from repro.llm import InferenceEngine
from repro.tensor import no_grad

BIG_BATCH = 16
MAX_NEW_TOKENS = 16
ROUNDS = 7


def _rotated_rates(configs: dict[str, tuple[int, object]]) -> dict[str, list[float]]:
    """Items/sec of each ``name: (n_items, fn)`` per round, over
    ``ROUNDS`` rounds whose order rotates by one each round."""
    for _, fn in configs.values():
        fn()
    names = list(configs)
    rates: dict[str, list[float]] = {name: [] for name in names}
    for r in range(ROUNDS):
        for name in names[r % len(names):] + names[: r % len(names)]:
            n_items, fn = configs[name]
            start = time.perf_counter()
            fn()
            rates[name].append(n_items / (time.perf_counter() - start))
    return rates


def _ratio(num: list[float], den: list[float]) -> dict:
    """Median of the per-round ratios ``num / den``, with its spread."""
    ratios = [a / b for a, b in zip(num, den)]
    return {"value": statistics.median(ratios), "n": len(ratios),
            "min": min(ratios), "max": max(ratios)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer prompts, written to benchmarks/out-smoke/")
    smoke = parser.parse_args().smoke
    n_prompts = BIG_BATCH if smoke else 2 * BIG_BATCH
    out_dir = SMOKE_OUT_DIR if smoke else OUT_DIR

    cfg = PAPER_PRESET if os.environ.get("REPRO_BENCH_PRESET") == "paper" else SMALL_PRESET
    system = HPCGPTSystem(cfg)
    # The pretrained base suffices for throughput (SFT changes weights,
    # not FLOPs) and keeps the bench warm-up to seconds.
    model = system.registry.base_model("llama2-13b-sim")
    engine = InferenceEngine(model, system.tokenizer)

    suite = DRBSuite.evaluation(seed=0)
    specs = [s for s in suite.by_language("C/C++") if "oversize" not in s.features]
    specs = specs[:n_prompts]
    instructions = [race_instruction(s.source, s.language) for s in specs]
    prompts = [engine.chat.prompt_ids(i) for i in instructions]
    limit = model.config.max_seq_len - 1
    prompts = [p[-limit:] if len(p) > limit else p for p in prompts]

    # -- margin scoring ------------------------------------------------------

    def sequential_margins() -> None:
        # The pre-engine path: one full forward per prompt, every
        # position through the final block and the LM head.
        with no_grad():
            for p in prompts:
                model.forward(np.asarray(p)).numpy()[0, -1]

    # -- generation ----------------------------------------------------------

    def generate(batch_size: int) -> list[list[int]]:
        return engine.generate_many(
            prompts, MAX_NEW_TOKENS, stop_at_eos=False, batch_size=batch_size
        )

    outs_b1, outs_b16 = generate(1), generate(BIG_BATCH)
    n_tokens = sum(len(o) for o in outs_b16)

    n = len(prompts)
    rates = _rotated_rates({
        "margins_per_s_sequential_path": (n, sequential_margins),
        "margins_per_s_batch_1": (n, lambda: engine.next_token_logits(prompts, batch_size=1)),
        f"margins_per_s_batch_{BIG_BATCH}": (
            n, lambda: engine.next_token_logits(prompts, batch_size=BIG_BATCH)
        ),
        "tokens_per_s_batch_1": (n_tokens, lambda: generate(1)),
        f"tokens_per_s_batch_{BIG_BATCH}": (n_tokens, lambda: generate(BIG_BATCH)),
    })
    records = [
        record(metric, samples, "tok/s" if metric.startswith("tokens") else "1/s")
        for metric, samples in rates.items()
    ]
    payload = {
        "mode": "smoke" if smoke else "full",
        "preset": cfg.model.name,
        "model": {
            "dim": cfg.model.dim,
            "n_layers": cfg.model.n_layers,
            "n_heads": cfg.model.n_heads,
            "max_seq_len": cfg.model.max_seq_len,
        },
        "n_prompts": len(prompts),
        "max_new_tokens": MAX_NEW_TOKENS,
        "records": records,
        "speedup": {
            "margins_batched_vs_sequential": _ratio(
                rates[f"margins_per_s_batch_{BIG_BATCH}"], rates["margins_per_s_sequential_path"]
            ),
            "margins_batch16_vs_batch1": _ratio(
                rates[f"margins_per_s_batch_{BIG_BATCH}"], rates["margins_per_s_batch_1"]
            ),
            "generation": _ratio(
                rates[f"tokens_per_s_batch_{BIG_BATCH}"], rates["tokens_per_s_batch_1"]
            ),
        },
        "greedy_parity": {
            "tokens": n_tokens,
            f"batch_{BIG_BATCH}_equals_batch_1": outs_b16 == outs_b1,
        },
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / "BENCH_inference.json").write_text(json.dumps(payload, indent=1) + "\n")

    def spread(metric: str) -> str:
        (r,) = [r for r in records if r["metric"] == metric]
        return f"{r['value']:8.2f} [{r['min']:.2f}-{r['max']:.2f}]"

    def times(name: str) -> str:
        r = payload["speedup"][name]
        return f"{r['value']:.2f}x [{r['min']:.2f}-{r['max']:.2f}]"

    write_out(
        "bench_inference_throughput.txt",
        "\n".join(
            [
                f"Inference throughput ({payload['mode']}; {cfg.model.name}, "
                f"{len(prompts)} Table-5 prompts; median of {ROUNDS} rotated rounds "
                f"[min-max])",
                f"  margins/sec   sequential: {spread('margins_per_s_sequential_path')}",
                f"                engine b1:  {spread('margins_per_s_batch_1')}",
                f"                engine b{BIG_BATCH}: "
                f"{spread(f'margins_per_s_batch_{BIG_BATCH}')}",
                f"                batched-vs-sequential speedup: "
                f"{times('margins_batched_vs_sequential')} "
                f"(single-core ceiling ~2.3x for a 2-layer model; see module docstring)",
                f"  tokens/sec    batch=1:    {spread('tokens_per_s_batch_1')}",
                f"                batch={BIG_BATCH}:   "
                f"{spread(f'tokens_per_s_batch_{BIG_BATCH}')}   "
                f"speedup: {times('generation')}",
                f"  greedy parity batch={BIG_BATCH} vs batch=1: "
                f"{payload['greedy_parity'][f'batch_{BIG_BATCH}_equals_batch_1']} "
                f"({n_tokens} tokens)",
                f"  artifact: benchmarks/{out_dir.name}/BENCH_inference.json",
            ]
        ),
        out_dir,
    )


if __name__ == "__main__":
    main()
