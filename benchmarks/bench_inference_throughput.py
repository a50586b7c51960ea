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

Each rate is timed ``REPEATS`` times after one untimed warm-up pass and
recorded as ``{metric, value, unit, n, min, max, host}`` (value: the
median).  Writes ``benchmarks/out/BENCH_inference.json``; ``--smoke``
times fewer prompts and writes to the gitignored
``benchmarks/out-smoke/`` instead, leaving the committed full-run files
alone.  Defaults to the small preset; set ``REPRO_BENCH_PRESET=paper``
for the full bench configuration.
"""

from __future__ import annotations

import argparse
import json
import os
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
REPEATS = 5


def _rates(n_items: int, fn) -> list[float]:
    """Items/sec of ``REPEATS`` timed calls of ``fn``, after a warm-up."""
    fn()
    rates = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        rates.append(n_items / (time.perf_counter() - start))
    return rates


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

    margins_seq = _rates(len(prompts), sequential_margins)
    margins_b1 = _rates(len(prompts), lambda: engine.next_token_logits(prompts, batch_size=1))
    margins_b16 = _rates(
        len(prompts), lambda: engine.next_token_logits(prompts, batch_size=BIG_BATCH)
    )

    # -- generation ----------------------------------------------------------

    def generate(batch_size: int) -> list[list[int]]:
        return engine.generate_many(
            prompts, MAX_NEW_TOKENS, stop_at_eos=False, batch_size=batch_size
        )

    outs_b1, outs_b16 = generate(1), generate(BIG_BATCH)
    n_tokens = sum(len(o) for o in outs_b16)
    tokens_b1 = _rates(n_tokens, lambda: generate(1))
    tokens_b16 = _rates(n_tokens, lambda: generate(BIG_BATCH))

    records = [
        record("margins_per_s_sequential_path", margins_seq, "1/s"),
        record("margins_per_s_batch_1", margins_b1, "1/s"),
        record(f"margins_per_s_batch_{BIG_BATCH}", margins_b16, "1/s"),
        record("tokens_per_s_batch_1", tokens_b1, "tok/s"),
        record(f"tokens_per_s_batch_{BIG_BATCH}", tokens_b16, "tok/s"),
    ]
    value = {r["metric"]: r["value"] for r in records}
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
            "margins_batched_vs_sequential": value[f"margins_per_s_batch_{BIG_BATCH}"]
            / value["margins_per_s_sequential_path"],
            "margins_batch16_vs_batch1": value[f"margins_per_s_batch_{BIG_BATCH}"]
            / value["margins_per_s_batch_1"],
            "generation": value[f"tokens_per_s_batch_{BIG_BATCH}"]
            / value["tokens_per_s_batch_1"],
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

    speedup = payload["speedup"]
    write_out(
        "bench_inference_throughput.txt",
        "\n".join(
            [
                f"Inference throughput ({payload['mode']}; {cfg.model.name}, "
                f"{len(prompts)} Table-5 prompts; median of {REPEATS} [min-max])",
                f"  margins/sec   sequential: {spread('margins_per_s_sequential_path')}",
                f"                engine b1:  {spread('margins_per_s_batch_1')}",
                f"                engine b{BIG_BATCH}: "
                f"{spread(f'margins_per_s_batch_{BIG_BATCH}')}",
                f"                batched-vs-sequential speedup: "
                f"{speedup['margins_batched_vs_sequential']:.2f}x "
                f"(single-core ceiling ~2.3x for a 2-layer model; see module docstring)",
                f"  tokens/sec    batch=1:    {spread('tokens_per_s_batch_1')}",
                f"                batch={BIG_BATCH}:   "
                f"{spread(f'tokens_per_s_batch_{BIG_BATCH}')}   "
                f"speedup: {speedup['generation']:.2f}x",
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
