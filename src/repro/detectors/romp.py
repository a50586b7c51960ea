"""ROMP stand-in: OpenMP-aware dynamic detection.

ROMP reasons over OpenMP's logical concurrency structure.  The model is
happens-before detection (like TSan) with ROMP's documented gaps:

* no offload support — ``target`` programs are unsupported (its TSR is
  the lowest of the four tools, 0.87 C / 0.84 Fortran);
* SIMD-lane races are invisible (thread-level tool);
* the ``ordered`` construct is not modelled: updates whose only
  protection is ordered sequencing are reported — its false-positive
  channel;
* it explores a single schedule per run (we give it the first trace).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from repro.detectors.base import Detector, Verdict
from repro.drb.generator import KernelSpec
from repro.runtime.interpreter import Trace
from repro.runtime.machine import events_conflict, hb_races


def _ordered_only_conflicts(trace: Trace) -> bool:
    """Conflicting accesses from different threads whose common protection
    is only the ``$ordered`` pseudo-lock (ROMP does not model ordered).

    Such a pair's common lockset is exactly ``{"$ordered"}``, so both
    events hold it: only those events are grouped and compared."""
    by_loc: dict[tuple, list] = {}
    for e in trace.events:
        if e.lane or "$ordered" not in e.locks:
            continue
        by_loc.setdefault(e.loc, []).append(e)
    for events in by_loc.values():
        # Pairwise scan only where a conflict is possible at all: a
        # writer and a second thread (same prefilter as hb_races).
        if not any(e.is_write for e in events) or len({e.tid for e in events}) < 2:
            continue
        for a, b in combinations(events, 2):
            if events_conflict(a, b) and a.locks & b.locks == {"$ordered"}:
                return True
    return False


class ROMPDetector(Detector):
    """OpenMP-aware dynamic checker (see module docstring)."""

    name = "ROMP"
    kind = "dynamic"
    version = "20ac93c"
    compiler = "GCC/gfortran 7.4.0"

    def supports(self, spec: KernelSpec) -> bool:
        return "target" not in spec.features

    def detect(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> Verdict:
        if traces is None:
            raise ValueError("ROMP needs executions (traces)")
        trace = next(iter(traces), None)  # single-run tool: the first schedule
        if trace is None:
            return Verdict.NO_RACE
        if hb_races(trace, include_lane_events=False, max_reports=1):
            return Verdict.RACE
        if _ordered_only_conflicts(trace):
            return Verdict.RACE
        return Verdict.NO_RACE
