"""SARIF 2.1.0 emitter for scan reports.

One run, one driver (``repro-scan``); each detector of the ensemble is
a reportingDescriptor (rule), plus the ``ensemble-race`` rule that the
emitted results reference.  Every kernel the ensemble flags becomes one
``result`` with a physical location (file + line region) and a message
naming the agreeing and dissenting detectors — the shape GitHub code
scanning and IDE SARIF viewers ingest directly.  Every detector that
failed on a kernel (e.g. ``BudgetExceeded``) becomes one error-level
``toolExecutionNotification`` of the run's invocation, located at the
kernel and associated with that detector's rule.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scan.report import RACE, ScanReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

ENSEMBLE_RULE = "ensemble-race"


def _rules(report: ScanReport) -> list[dict]:
    rules = [{
        "id": ENSEMBLE_RULE,
        "name": "DataRaceEnsemble",
        "shortDescription": {"text": "Probable OpenMP data race (detector ensemble)"},
        "help": {"text": "Majority verdict over the tool ensemble and the "
                         "fine-tuned LLM margin classifier."},
        "defaultConfiguration": {"level": "warning"},
    }]
    for name in report.detectors:
        rules.append({
            "id": f"detector/{name}",
            "name": name.replace(" ", ""),
            "shortDescription": {"text": f"Verdict source: {name}"},
        })
    return rules


def _location(kernel) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": kernel.file.replace("\\", "/")},
            "region": {"startLine": kernel.start_line, "endLine": kernel.end_line},
        }
    }


def _notifications(report: ScanReport) -> list[dict]:
    """One notification per (kernel, detector) failure, with its reason."""
    return [
        {
            "level": "error",
            "message": {"text": f"{tool}: {reason}"},
            "locations": [_location(kernel)],
            "associatedRule": {"id": f"detector/{tool}"},
        }
        for kernel in report.kernels
        for tool, reason in kernel.details.items()
    ]


def _result(kernel) -> dict:
    yes, no = kernel.votes
    agreeing = sorted(
        [d for d, v in kernel.verdicts.items() if v == RACE]
        + (["LLM"] if kernel.llm_verdict == RACE else [])
    )
    dissenting = sorted(
        [d for d, v in kernel.verdicts.items() if v == "no"]
        + (["LLM"] if kernel.llm_verdict == "no" else [])
    )
    message = (f"Probable data race ({yes} yes / {no} no). "
               f"Flagged by: {', '.join(agreeing) or 'none'}."
               + (f" Dissenting: {', '.join(dissenting)}." if dissenting else ""))
    return {
        "ruleId": ENSEMBLE_RULE,
        "level": "error" if kernel.agreement >= 0.75 else "warning",
        "message": {"text": message},
        "locations": [_location(kernel)],
        "partialFingerprints": {"kernelId": kernel.id},
        "properties": {
            "language": kernel.language,
            "agreement": round(kernel.agreement, 4),
            "llmMargin": kernel.llm_margin,
            "cached": kernel.cached,
        },
    }


def to_sarif(report: ScanReport) -> dict:
    """Project a :class:`ScanReport` into a SARIF 2.1.0 log dict."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "repro-scan",
                "informationUri": "https://github.com/",
                "rules": _rules(report),
            }},
            "invocations": [{
                "executionSuccessful": True,
                "toolExecutionNotifications": _notifications(report),
            }],
            "results": [_result(k) for k in report.racy()],
            "properties": {
                "totals": report.totals,
                "timing": report.timing,
                "cache": report.cache,
            },
        }],
    }


def write_sarif(report: ScanReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_sarif(report), indent=1) + "\n",
                          encoding="utf-8")
