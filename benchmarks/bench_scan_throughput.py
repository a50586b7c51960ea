"""Scan-subsystem throughput: kernels/sec and the cache-hit speedup.

The workload is the exported DataRaceBench-equivalent suite (343
kernels, both languages) scanned through the full ensemble (the four
tools through the shared detector executor + batched HPC-GPT margins):

* **cold** — empty verdict cache: every kernel is parsed and runs the
  tools and the engine;
* **warm** — unchanged tree, same cache, ``WARM_PASSES`` times: each
  file's whole-file kernel is found in the content-addressed store
  before any parse, so only walk, one hash and one cache read per file
  remain — nothing is extracted or parsed.

Writes ``BENCH_scan.json`` with kernels/sec for both passes (warm: the
median pass, with min and max), the wall-clock speedup (the acceptance
floor is 5x), the preset and the host.

    cd benchmarks && REPRO_BENCH_PRESET=small PYTHONPATH=../src:.. \
        python -m pytest bench_scan_throughput.py -q
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.scan import ScanConfig, ScanPipeline

from benchmarks._shared import OUT_DIR, eval_suite, paper_shape, system

#: Warm passes timed for the median and spread.
WARM_PASSES = 5


def test_scan_throughput(benchmark):
    sys_ = system()
    sys_.finetuned("l2")  # build outside the timed region

    work = Path(tempfile.mkdtemp(prefix="repro-scan-bench-"))
    try:
        tree = work / "tree"
        n_kernels = eval_suite().write_tree(tree)
        cache_dir = work / "cache"

        def pipeline():
            return ScanPipeline(
                system=sys_, config=ScanConfig(cache_dir=cache_dir)
            )

        t0 = time.perf_counter()
        cold = pipeline().scan(tree)
        cold_s = time.perf_counter() - t0
        assert cold.totals["kernels"] == n_kernels
        assert cold.totals["cache_hits"] == 0

        warm_times = []
        for _ in range(WARM_PASSES):
            t0 = time.perf_counter()
            warm = pipeline().scan(tree)
            warm_times.append(time.perf_counter() - t0)
            assert warm.totals["cache_hits"] == warm.totals["kernels"]
            # Cached and fresh scans must agree verdict-for-verdict.
            assert [k.to_dict() | {"cached": None} for k in warm.kernels] == [
                k.to_dict() | {"cached": None} for k in cold.kernels
            ]
        warm_s = statistics.median(warm_times)

        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        payload = {
            "preset": "paper" if paper_shape() else "small",
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "python": platform.python_version()},
            "kernels": n_kernels,
            "unique_kernels": cold.totals["unique_kernels"],
            "races_flagged": cold.totals["races"],
            "cold_s": round(cold_s, 3),
            "warm_passes": WARM_PASSES,
            "warm_s": round(warm_s, 4),
            "warm_s_min": round(min(warm_times), 4),
            "warm_s_max": round(max(warm_times), 4),
            "kernels_per_s_cold": round(n_kernels / cold_s, 2),
            "kernels_per_s_warm": round(n_kernels / warm_s, 2),
            "cache_speedup": round(speedup, 2),
            "cache_warm": warm.cache,
            "timing_cold": cold.timing,
            "timing_warm": warm.timing,
        }
        (OUT_DIR / "BENCH_scan.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(json.dumps(payload, indent=1))
        assert speedup >= 5.0, f"cache speedup {speedup:.1f}x below the 5x floor"

        # The timed region: a warm scan of the unchanged tree.
        benchmark.pedantic(lambda: pipeline().scan(tree), rounds=3, iterations=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
