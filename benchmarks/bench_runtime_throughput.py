"""Runtime throughput: the epoch-matrix execution engine, measured.

Two views of the rebuilt ``repro.runtime``:

* **trace generation** — events/s executing the corpus with the
  compiled runtime (each kernel compiled once into closures, reused
  for every schedule) against the generator interpreter it replaced
  (``tests/support/reference_runtime.py``, an AST walk per schedule),
  median/min/max over ``--repeats`` passes, traces asserted
  bit-identical;
* **race checking** — the epoch-matrix ``hb_races`` vs the seed
  ``combinations`` + dict-``VectorClock`` path (``hb_races_reference``,
  the test oracle in ``tests/support/hb_oracle.py``), timed over (a) a *hot corpus* of
  contention-heavy kernels — large per-location groups, the pairwise
  path's quadratic regime — and (b) every trace of the DRB evaluation
  suite.  The hot-path speedup is asserted ≥ 3x (the PR's acceptance
  floor).

Every run also asserts **bit-identical verdict parity** between the two
checkers for TSan, ROMP, Inspector, and the HB oracle over the parity
corpus (the full suite; one spec per category/language under
``--smoke``, which also skips the machine-noise-sensitive speed floor).

Writes ``benchmarks/out/BENCH_runtime.json``; ``--smoke`` writes to the
gitignored ``benchmarks/out-smoke/`` instead, leaving the committed
full-run results alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from _shared import OUT_DIR, SMOKE_OUT_DIR, write_out
from repro.detectors.inspector import lockset_races
from repro.detectors.romp import _ordered_only_conflicts
from repro.drb import DRBSuite
from repro.openmp import parse_c
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.machine import hb_races

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from support.every_schedule import EverySchedule  # noqa: E402
from support.hb_oracle import hb_races_reference  # noqa: E402
from support.reference_runtime import execute_reference  # noqa: E402

N_SCHEDULES = 2  # per spec for the checking corpus
SPEEDUP_FLOOR = 3.0

# Contention-heavy kernels: many events per location, so the pairwise
# reference has no short-circuit escape.  Race-free variants (critical,
# atomic, reduction) are the true hot path — every pair gets checked.
HOT_KERNELS = {
    "contended_rmw": """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < %N%; i++) { s = s + 1; }
""",
    "critical_accumulate": """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < %N%; i++) {
  #pragma omp critical
  { s = s + 1; }
}
""",
    "atomic_accumulate": """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < %N%; i++) {
  #pragma omp atomic
  s = s + 1;
}
""",
    "neighbor_sweep": """
int i;
double a[%N%];
#pragma omp parallel for
for (i = 1; i < %N%; i++) { a[i] = a[i-1] + 1; }
""",
}


def hot_corpus(n: int, n_threads: int = 4):
    traces = []
    for name, template in HOT_KERNELS.items():
        prog = parse_c(template.replace("%N%", str(n)))
        traces.append((name, execute(prog, n_threads=n_threads, schedule_seed=0)))
    return traces


def check_all(checker, traces, max_reports: int = 10) -> int:
    found = 0
    for trace in traces:
        for lanes in (True, False):
            found += len(checker(trace, lanes, max_reports))
    return found


def timed_check(checker, traces, repeats: int) -> tuple[float, int]:
    found = check_all(checker, traces)  # warm (imports, caches)
    start = time.perf_counter()
    for _ in range(repeats):
        check_all(checker, traces)
    return (time.perf_counter() - start) / repeats, found


def trace_signature(trace) -> tuple:
    rows = trace.clock_bank.rows
    events = [
        (e.seq, e.tid, e.is_write, e.loc, rows[e.clock_row], e.locks, e.atomic,
         e.lane, e.region)
        for e in trace.events
    ]
    arrays = {k: v.tobytes() for k, v in trace.final_arrays.items()}
    return events, arrays, trace.regions


def timed_generation(specs, run, repeats: int) -> tuple[list, list[float]]:
    """Traces of every spec (``run(program)`` -> list) and the wall time
    of each of ``repeats`` full passes.  Programs are parsed (and
    memoised) before the clock starts."""
    programs = [spec.parse() for spec in specs]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        traces = [t for program in programs for t in run(program)]
        times.append(time.perf_counter() - start)
    return traces, times


def spread(n_events: int, times: list[float]) -> dict:
    rates = [n_events / t for t in times]
    return {
        "passes": len(times),
        "events_per_s_median": round(statistics.median(rates), 1),
        "events_per_s_min": round(min(rates), 1),
        "events_per_s_max": round(max(rates), 1),
        "seconds_median": round(statistics.median(times), 4),
    }


def parity_specs(suite: DRBSuite, smoke: bool):
    if not smoke:
        return list(suite.specs)
    seen, specs = set(), []
    for spec in suite.specs:
        key = (spec.language, spec.category)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def verdict_signature(traces) -> tuple:
    """(tsan, romp, oracle) from a given HB checker's view — computed
    twice, once per checker, and compared bit for bit.  Inspector's
    lockset check and ROMP's ordered-only channel never consult clocks,
    so they are computed once (unchanged by construction) and folded
    into both signatures rather than vacuously re-run per checker."""
    ordered_only = _ordered_only_conflicts(traces[0])
    inspector = any(lockset_races(t, max_reports=1) for t in traces)

    def sig(checker):
        tsan = any(bool(checker(t, False, 1)) for t in traces)
        romp = bool(checker(traces[0], False, 1)) or ordered_only
        oracle = any(bool(checker(t, True, 1)) for t in traces)
        return (tsan, romp, oracle, inspector)

    return sig(hb_races), sig(hb_races_reference)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, parity asserted, speed floor skipped")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    smoke = args.smoke
    repeats = args.repeats or (2 if smoke else 5)
    hot_n = 120 if smoke else 400
    out_dir = SMOKE_OUT_DIR if smoke else OUT_DIR

    suite = DRBSuite.evaluation(seed=0)
    specs = parity_specs(suite, smoke)

    # -- trace generation + verdict parity ------------------------------------

    machine = Machine(MachineConfig(n_threads=2, n_schedules=N_SCHEDULES))
    plan = machine.schedule_plan()

    # Every planned schedule, on both sides: the machine's lazy traces
    # stop after schedule 0 of a race-free schedule-invariant kernel.
    def compiled_traces(program):
        return list(EverySchedule(program, machine))

    def reference_traces(program):
        return [execute_reference(program, 2, seed) for seed in plan]

    # Alternate the two runtimes pass by pass so host drift hits both.
    suite_traces, compiled_times, ref_traces, ref_times = None, [], None, []
    for _ in range(repeats):
        suite_traces, times = timed_generation(specs, compiled_traces, 1)
        compiled_times += times
        ref_traces, times = timed_generation(specs, reference_traces, 1)
        ref_times += times
    n_events = sum(len(t.events) for t in suite_traces)
    assert [trace_signature(t) for t in suite_traces] == [
        trace_signature(t) for t in ref_traces
    ], "compiled traces differ from the generator reference"
    compiled = spread(n_events, compiled_times)
    reference = spread(n_events, ref_times)
    gen_speedup = reference["seconds_median"] / compiled["seconds_median"]

    parity_failures = []
    for spec, idx in zip(specs, range(0, len(suite_traces), N_SCHEDULES)):
        fast, slow = verdict_signature(suite_traces[idx : idx + N_SCHEDULES])
        if fast != slow:
            parity_failures.append(spec.id)
    assert not parity_failures, f"verdict parity broken: {parity_failures[:5]}"

    hot = hot_corpus(hot_n)
    hot_traces = [t for _, t in hot]
    hot_events = sum(len(t.events) for t in hot_traces)

    # -- race checking: epoch matrix vs seed dict clocks ----------------------

    hot_new_s, hot_new_found = timed_check(hb_races, hot_traces, repeats)
    hot_ref_s, hot_ref_found = timed_check(hb_races_reference, hot_traces, repeats)
    assert hot_new_found == hot_ref_found
    suite_new_s, suite_found = timed_check(hb_races, suite_traces, repeats)
    suite_ref_s, suite_ref_found = timed_check(hb_races_reference, suite_traces, repeats)
    assert suite_found == suite_ref_found

    speedup_hot = hot_ref_s / hot_new_s
    speedup_suite = suite_ref_s / suite_new_s
    if not smoke:
        assert speedup_hot >= SPEEDUP_FLOOR, (
            f"hot-path race-check speedup {speedup_hot:.2f}x "
            f"below the {SPEEDUP_FLOOR}x floor"
        )

    payload = {
        "mode": "smoke" if smoke else "full",
        "corpus": {
            "parity_specs": len(specs),
            "suite_traces": len(suite_traces),
            "suite_events": n_events,
            "hot_kernels": {name: len(t.events) for name, t in hot},
            "hot_iterations": hot_n,
        },
        "trace_generation": {
            "compiled": compiled,
            "generator_reference": reference,
            "speedup_median": round(gen_speedup, 2),
            "traces_bit_identical": True,
        },
        "race_checking": {
            "repeats": repeats,
            "hot_seconds": {"epoch_matrix": hot_new_s, "seed_dict_vc": hot_ref_s},
            "hot_events_per_s": {
                "epoch_matrix": round(2 * hot_events / hot_new_s, 1),
                "seed_dict_vc": round(2 * hot_events / hot_ref_s, 1),
            },
            "suite_seconds": {"epoch_matrix": suite_new_s, "seed_dict_vc": suite_ref_s},
            "suite_checks_per_s": {
                "epoch_matrix": round(2 * len(suite_traces) / suite_new_s, 1),
                "seed_dict_vc": round(2 * len(suite_traces) / suite_ref_s, 1),
            },
            "races_found_hot": hot_new_found,
            "races_found_suite": suite_found,
            "speedup_hot": round(speedup_hot, 2),
            "speedup_suite": round(speedup_suite, 2),
            "floor": SPEEDUP_FLOOR if not smoke else None,
        },
        "verdict_parity": {
            "specs": len(specs),
            "bit_identical": True,
            # Clock-dependent verdicts compared across checkers;
            # Inspector's lockset never reads clocks (computed once,
            # unchanged by construction).
            "tools": ["Thread Sanitizer", "ROMP", "HB oracle"],
            "clock_independent": ["Intel Inspector"],
        },
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / "BENCH_runtime.json").write_text(json.dumps(payload, indent=1) + "\n")

    write_out(
        "bench_runtime_throughput.txt",
        "\n".join(
            [
                f"Runtime throughput ({'smoke' if smoke else 'full'}; "
                f"{len(specs)} parity specs, hot kernels at N={hot_n})",
                f"  trace generation  reference: {reference['events_per_s_median']:>8.0f}   "
                f"compiled: {compiled['events_per_s_median']:>8.0f} events/s "
                f"(median of {repeats}; {gen_speedup:.1f}x, traces bit-identical)",
                f"  race check (hot)  seed: {hot_ref_s:7.3f}s   epoch: {hot_new_s:7.3f}s "
                f"({speedup_hot:.1f}x)",
                f"  race check (DRB)  seed: {suite_ref_s:7.3f}s   epoch: {suite_new_s:7.3f}s "
                f"({speedup_suite:.1f}x)",
                f"  verdict parity    {len(specs)} specs bit-identical "
                "(TSan/ROMP/oracle; Inspector clock-independent)",
                f"  artifact: benchmarks/{out_dir.name}/BENCH_runtime.json",
            ]
        ),
        out_dir,
    )


if __name__ == "__main__":
    main()
