"""Intel Inspector stand-in: Eraser-style lockset with fork/join.

The lockset discipline — every shared location must be consistently
protected by at least one common lock — over-approximates: it ignores
barrier and single/master ordering, which yields the tool's
characteristically high recall and low specificity (Table 5 C/C++:
recall 0.837, specificity 0.529).  Modelling notes:

* fork/join IS respected: only accesses from the *same parallel region*
  are compared (real Inspector tracks thread creation and joins);
* like every thread-level tool, vectorised (SIMD-lane) execution looks
  like one host thread, so SIMD races are invisible;
* atomics carry an implicit ``$atomic`` lock, so atomic-atomic pairs are
  safe while plain-vs-atomic pairs are reported, as they should be;
* barrier and single/master ordering is NOT part of the lockset
  discipline — phase-separated accesses with empty locksets are flagged,
  the tool's false-positive channel.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detectors.base import Detector, Verdict
from repro.drb.generator import KernelSpec
from repro.runtime.interpreter import MemEvent, Trace


def lockset_races(trace: Trace, max_reports: int = 1) -> int:
    """Count (location, region) groups violating the lockset discipline."""
    groups: dict[tuple, list[MemEvent]] = {}
    for e in trace.events:
        if e.lane:
            continue  # vector lanes are one host thread to the tool
        groups.setdefault((e.loc, e.region), []).append(e)
    violations = 0
    for events in groups.values():
        if len({e.tid for e in events}) < 2:
            continue
        if not any(e.is_write for e in events):
            continue
        # Intersect locksets with early exit; the common `$atomic` case
        # (all accesses atomic) never allocates the augmented set.
        common: set | frozenset | None = None
        for e in events:
            held: set | frozenset = e.locks
            if e.atomic:
                held = set(held)
                held.add("$atomic")
            common = held if common is None else (common & held)
            if not common:
                break
        if not common:
            violations += 1
            if violations >= max_reports:
                return violations
    return violations


class IntelInspectorDetector(Detector):
    """Lockset-discipline dynamic checker (see module docstring)."""

    name = "Intel Inspector"
    kind = "dynamic"
    version = "2021.1"
    compiler = "Intel Compiler 2021.3.0"

    def supports(self, spec: KernelSpec) -> bool:
        # Host-fallback covers target regions; the modelled configuration
        # analyses every construct in the suite.
        return True

    def detect(self, spec: KernelSpec, traces: Sequence[Trace] | None = None) -> Verdict:
        if traces is None:
            raise ValueError("Intel Inspector needs executions (traces)")
        for trace in traces:
            if lockset_races(trace, max_reports=1):
                return Verdict.RACE
        return Verdict.NO_RACE
