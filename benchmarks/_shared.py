"""Shared state for the benchmark suite.

The heavy artifacts (pretrained bases, fine-tuned HPC-GPT models, the
Table-5 harness results) are built once per interpreter and persisted
under ``.repro_cache/`` so repeated bench runs skip training.  Rendered
paper tables are written to ``benchmarks/out/``.

Set ``REPRO_BENCH_PRESET=small`` to run the whole bench suite with the
fast preset (useful for smoke-testing the harness itself).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

from repro.core import HPCGPTSystem, PAPER_PRESET, SMALL_PRESET
from repro.drb import DRBSuite
from repro.eval import EvaluationHarness

OUT_DIR = Path(__file__).parent / "out"
OUT_DIR.mkdir(exist_ok=True)
#: Where ``--smoke`` runs write, so they never overwrite the committed
#: full-run results in :data:`OUT_DIR` (gitignored).
SMOKE_OUT_DIR = Path(__file__).parent / "out-smoke"

_SYSTEM: HPCGPTSystem | None = None
_SUITE: DRBSuite | None = None
_HARNESS: EvaluationHarness | None = None
_TABLE5 = None


def preset():
    return SMALL_PRESET if os.environ.get("REPRO_BENCH_PRESET") == "small" else PAPER_PRESET


def paper_shape() -> bool:
    """Whether paper-shape assertions apply: Table-5 composition claims
    (counts, TSR fractions, accuracy orderings) only hold at the paper
    preset — the small preset exists to smoke-test the harness, and its
    tiny models make those shapes seed-noise."""
    return preset() is PAPER_PRESET


def system() -> HPCGPTSystem:
    global _SYSTEM
    if _SYSTEM is None:
        _SYSTEM = HPCGPTSystem(preset())
    return _SYSTEM


def eval_suite() -> DRBSuite:
    global _SUITE
    if _SUITE is None:
        _SUITE = DRBSuite.evaluation(seed=0)
    return _SUITE


def harness() -> EvaluationHarness:
    global _HARNESS
    if _HARNESS is None:
        # Default machine: 2 threads, 4 explored schedules, so
        # schedule-dependent tool behaviour (Inspector's lockset FPs)
        # can manifest.
        _HARNESS = EvaluationHarness(eval_suite())
    return _HARNESS


def table5_output():
    """Run (once) the full Table-5 evaluation: all ten detectors, both
    languages.  Also serialises metric rows for the improvements bench."""
    global _TABLE5
    if _TABLE5 is None:
        detectors = system().table5_detectors()
        _TABLE5 = harness().run(detectors)
        rows = [
            {
                "tool": r.tool, "language": r.language,
                "tp": r.counts.tp, "fp": r.counts.fp, "tn": r.counts.tn,
                "fn": r.counts.fn, "unsupported": r.counts.unsupported,
                "recall": r.recall, "specificity": r.specificity,
                "precision": r.precision, "accuracy": r.accuracy,
                "tsr": r.tsr, "f1": r.f1, "adjusted_f1": r.adjusted_f1,
            }
            for r in _TABLE5.rows
        ]
        (OUT_DIR / "table5_rows.json").write_text(json.dumps(rows, indent=1))
    return _TABLE5


def host() -> dict:
    """What a measurement ran on."""
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version()}


def record(metric: str, samples: list[float], unit: str) -> dict:
    """One measurement: the median of ``samples`` with its spread."""
    return {"metric": metric, "value": statistics.median(samples), "unit": unit,
            "n": len(samples), "min": min(samples), "max": max(samples),
            "host": host()}


def write_out(name: str, text: str, out_dir: Path = OUT_DIR) -> None:
    (out_dir / name).write_text(text + "\n")
    print(text)
