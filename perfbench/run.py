"""End-to-end benchmark of HPC-GPT: scan, rescan and serve.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Workloads (see :mod:`workloads`): ``scan`` — cold tools + LLM scans of
the DataRaceBench-style evaluation suite; ``rescan`` — cached rescans
of the suite after seeded edits; ``serve`` — closed-loop HTTP clients
mixing detect, answer, retrieval-grounded answer and knowledge-ingest
requests.

The first run in a checkout builds the small preset into
``.perfbench_cache/`` (tens of seconds); later runs load it.  Set-up
time is measured in fresh interpreters: import the package, load the
built model, threshold, engine and retrieval index, start the server
and answer ``GET /health`` — the median of several such starts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's entry point (:mod:`spans`) and prints per-layer self time and
work counts per operation instead, writing the spans themselves to
``.perfbench_cache/spans-<workload>.json``.  Layers a workload does not
reach read 0.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
SETUP_REPEATS = 7
WORKLOADS = ("scan", "rescan", "serve")


def _load_system():
    """The small preset, loaded from (or, the first time, built into)
    the benchmark's cache, with every lazy serving stage warmed."""
    from repro.core import SMALL_PRESET, HPCGPTSystem

    system = HPCGPTSystem(SMALL_PRESET)
    system.engine("l2")
    system.threshold("l2")
    system.retrieval_answerer()
    return system


def setup_probe() -> None:
    """One service start: load the system, serve ``GET /health``, say
    ``ready`` on standard output, stop."""
    from repro.serve.server import make_server

    server = make_server(_load_system())
    thread = threading.Thread(target=server.handle_request, daemon=True)
    thread.start()
    try:
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=60)
        conn.request("GET", "/health")
        resp = conn.getresponse()
        resp.read()
        conn.close()
        if resp.status != 200:
            raise RuntimeError(f"/health answered {resp.status}")
        print("ready", flush=True)
    finally:
        thread.join(timeout=10)
        server.server_close()
        server.frontend.close()


def time_setup() -> float:
    """Median time from launching a fresh interpreter to its first
    ``GET /health`` answer, over ``SETUP_REPEATS`` service starts; the
    shutdown that follows is not timed."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(SCRIPT), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - t0)
            probe.communicate(timeout=170)
        if not ready or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return statistics.median(times)


def end_to_end(outcome, setup_s: float) -> dict:
    return {
        "latency_ms": (statistics.median(outcome.latencies_s) * 1e3, "ms"),
        "items_per_s": (outcome.items_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(recorder, ops: int) -> dict:
    """Self time and work per measured operation, by layer."""
    from spans import LAYERS

    out = {f"{layer}_ms": (recorder.self_s.get(layer, 0.0) * 1e3 / ops, "ms/op")
           for layer in LAYERS}
    for name in ("trace_events", "cache_hits", "prefill_tokens", "decode_tokens",
                 "retrieval_queries", "ingest_chunks"):
        out[name] = (recorder.counts.get(name, 0) / ops, "1/op")
    for layer in ("parse", "race_check", "tools"):
        out[f"{layer}_calls"] = (recorder.calls.get(layer, 0) / ops, "1/op")
    batches = recorder.calls.get("batch", 0)
    out["batch_width"] = (recorder.counts.get("batch_items", 0) / batches
                          if batches else 0.0, "count")
    return out


def dump_spans(recorder, path: Path) -> None:
    t0 = min((s[3] for s in recorder.spans), default=0.0)
    path.write_text(json.dumps([
        {"layer": layer, "parent": parent, "thread": tid,
         "start_s": start - t0, "end_s": end - t0}
        for layer, parent, tid, start, end in recorder.spans
    ]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_CACHE"] = str(CACHE)
    # One BLAS thread: at this model size a second one gains nothing on
    # a 2-core host, and its spinning makes timings swing with neighbours.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        setup_probe()
        return 0

    import workloads
    from spans import Instrumentation, Recorder

    if args.workload is None:
        parser.error("--workload is required")

    CACHE.mkdir(exist_ok=True)
    system = _load_system()
    setup_s = time_setup() if not args.trace else None
    recorder = Recorder() if args.trace else None
    instrumentation = Instrumentation(recorder).install() if recorder else None
    work = Path(tempfile.mkdtemp(prefix="work-", dir=CACHE))
    try:
        if args.workload == "scan":
            outcome = workloads.run_scan(system, args.seed, args.seconds, work, recorder)
        elif args.workload == "rescan":
            outcome = workloads.run_rescan(system, args.seed, args.seconds, work, recorder)
        else:
            outcome = workloads.run_serve(system, args.seed, args.seconds, work, recorder)
    finally:
        if instrumentation is not None:
            instrumentation.remove()
        shutil.rmtree(work, ignore_errors=True)

    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    if recorder is not None:
        metrics = per_layer(recorder, len(outcome.latencies_s))
        dump_spans(recorder, CACHE / f"spans-{args.workload}.json")
    else:
        metrics = end_to_end(outcome, setup_s)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
