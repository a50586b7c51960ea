"""The reference ROMP ordered-only check, the oracle for
``repro.detectors.romp``: it compares every conflicting pair at every
location, where the detector groups only events holding ``$ordered``."""

from __future__ import annotations

from itertools import combinations

from repro.runtime.interpreter import Trace
from repro.runtime.machine import events_conflict


def ordered_only_conflicts_reference(trace: Trace) -> bool:
    """Conflicting accesses from different threads whose common protection
    is only the ``$ordered`` pseudo-lock."""
    by_loc: dict[tuple, list] = {}
    for e in trace.events:
        if e.lane:
            continue
        by_loc.setdefault(e.loc, []).append(e)
    for events in by_loc.values():
        if not any(e.is_write for e in events) or len({e.tid for e in events}) < 2:
            continue
        for a, b in combinations(events, 2):
            if not events_conflict(a, b):
                continue
            common = a.locks & b.locks
            if common and common <= {"$ordered"}:
                return True
    return False
