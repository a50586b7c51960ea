"""Data-race detectors: the paper's four tools and six LLM-based methods.

Tool stand-ins (Table 4):

* :class:`~repro.detectors.llov.LLOVDetector` — static polyhedral-style
  dependence analysis (LLOV, Bora et al.);
* :class:`~repro.detectors.tsan.ThreadSanitizerDetector` — pure
  happens-before over simulated executions;
* :class:`~repro.detectors.inspector.IntelInspectorDetector` —
  Eraser-style lockset with fork/join awareness (high recall, lower
  specificity);
* :class:`~repro.detectors.romp.ROMPDetector` — OpenMP-aware dynamic
  detection with construct-support gaps.

LLM-based methods live in :mod:`repro.detectors.llm_detector`: prompted
zero-shot comparator sims (GPT-3.5 / GPT-4 heuristics, LLaMA sims = the
actual untuned tiny base models) and HPC-GPT (the fine-tuned models).
"""

from repro.detectors.base import Detector, ToolResult, Verdict, run_detectors
from repro.detectors.llov import LLOVDetector
from repro.detectors.tsan import ThreadSanitizerDetector
from repro.detectors.inspector import IntelInspectorDetector
from repro.detectors.romp import ROMPDetector
from repro.detectors.llm_detector import (
    GPTHeuristicDetector,
    HPCGPTDetector,
    LLMBaseModelDetector,
    TOKEN_BUDGET,
    race_prompt,
)
from repro.detectors.registry import TOOL_VERSIONS, build_tool_detectors

__all__ = [
    "Detector",
    "ToolResult",
    "Verdict",
    "LLOVDetector",
    "ThreadSanitizerDetector",
    "IntelInspectorDetector",
    "ROMPDetector",
    "GPTHeuristicDetector",
    "HPCGPTDetector",
    "LLMBaseModelDetector",
    "TOKEN_BUDGET",
    "race_prompt",
    "TOOL_VERSIONS",
    "build_tool_detectors",
    "run_detectors",
]
