"""Ground-truth-style race oracle over a machine's explored schedules."""

from __future__ import annotations

from repro.runtime import Machine, hb_races


def any_hb_race(machine: Machine, program, include_lane_events: bool = True) -> bool:
    """Does any explored schedule exhibit a happens-before race (lanes
    counted as parallel by default)?  Stops at the first racy schedule,
    and after a race-free schedule 0 of a schedule-invariant program
    (see :class:`repro.runtime.machine.ScheduleTraces`)."""
    for trace in machine.traces(program):
        if hb_races(trace, include_lane_events=include_lane_events, max_reports=1):
            return True
    return False
