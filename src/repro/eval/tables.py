"""Render the paper's tables from harness output."""

from __future__ import annotations

from repro.detectors.registry import TOOL_VERSIONS
from repro.eval.metrics import MetricRow


def render_table4() -> str:
    """Table 4: Data Race Detection Tool and Compiler Version."""
    lines = [
        "Table 4: Data Race Detection Tool and Compiler Version",
        f"{'Tools':<18} {'Version':<10} {'Compiler':<24}",
    ]
    for row in TOOL_VERSIONS:
        lines.append(f"{row['tool']:<18} {row['version']:<10} {row['compiler']:<24}")
    return "\n".join(lines)


def render_table5(rows: list[MetricRow], language: str) -> str:
    """Table 5 (one language block): counts plus the six §4.5 metrics.

    The best value per metric column is marked with ``*`` (the paper
    bolds it).
    """
    subset = [r for r in rows if r.language == language]
    if not subset:
        raise ValueError(f"no rows for language {language!r}")

    metric_cols = ("recall", "specificity", "precision", "accuracy", "tsr", "adjusted_f1")
    best = {m: max(getattr(r, m) for r in subset) for m in metric_cols}

    header = (
        f"{'Tool':<18} {'Lang':<8} {'TP':>4} {'FP':>4} {'TN':>4} {'FN':>4} "
        f"{'Recall':>8} {'Spec':>8} {'Prec':>8} {'Acc':>8} {'TSR':>8} {'AdjF1':>8}"
    )
    lines = [f"Table 5 — {language}", header, "-" * len(header)]
    for r in subset:
        cells = []
        for m in metric_cols:
            v = getattr(r, m)
            mark = "*" if abs(v - best[m]) < 1e-9 else " "
            cells.append(f"{v:7.4f}{mark}")
        c = r.counts
        lines.append(
            f"{r.tool:<18} {r.language:<8} {c.tp:>4} {c.fp:>4} {c.tn:>4} {c.fn:>4} "
            + " ".join(cells)
        )
    return "\n".join(lines)


def improvements_over(
    rows: list[MetricRow], subject: str, baselines: list[str], language: str
) -> dict[str, float]:
    """§4.7.2's improvement percentages: mean relative gain of ``subject``
    over each baseline across the five key metrics (recall, specificity,
    precision, accuracy, adjusted F1)."""
    def find(tool: str) -> MetricRow:
        for r in rows:
            if r.tool == tool and r.language == language:
                return r
        raise KeyError((tool, language))

    metrics = ("recall", "specificity", "precision", "accuracy", "adjusted_f1")
    subj = find(subject)
    out: dict[str, float] = {}
    for base in baselines:
        b = find(base)
        gains = []
        for m in metrics:
            bv = getattr(b, m)
            sv = getattr(subj, m)
            if bv > 0:
                gains.append((sv - bv) / bv * 100.0)
        out[base] = sum(gains) / len(gains) if gains else 0.0
    return out
