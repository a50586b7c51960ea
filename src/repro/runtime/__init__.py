"""Simulated shared-memory parallel machine.

Executes kernel IR from :mod:`repro.openmp` with T logical threads under
a seeded interleaving scheduler, producing memory-event traces annotated
with locksets and vector clocks (each event holds one row of the trace's
epoch matrix, :class:`ClockBank`).  The scheduler runs a uniformly
random ready thread at every step; a seed fixes the interleaving, and a
:class:`Machine` explores ``n_schedules`` consecutive seeds.  This
substrate replaces the paper's real multicore runs: dynamic race
detectors (ThreadSanitizer, Intel Inspector, ROMP stand-ins) analyse
these traces exactly the way the real tools analyse instrumented
executions.

Semantics covered: ``parallel for`` (static chunking), ``parallel``
regions, ``simd`` (vector lanes with chunk barriers honouring safelen),
``target`` offload (host-fallback execution), ``critical``/``atomic``/
``barrier``/``single``/``master``/``ordered``, ``private``/
``firstprivate``/``reduction`` data-sharing.
"""

from repro.runtime.clocks import ClockBank, EpochClock
from repro.runtime.memory import SharedMemory
from repro.runtime.interpreter import (
    MAX_ARRAY_CELLS,
    STEP_BUDGET,
    BudgetExceeded,
    CompiledProgram,
    ExecutionError,
    MemEvent,
    Trace,
    execute,
)
from repro.runtime.machine import Machine, MachineConfig, RaceReport, hb_races

__all__ = [
    "ClockBank",
    "EpochClock",
    "SharedMemory",
    "ExecutionError",
    "BudgetExceeded",
    "CompiledProgram",
    "STEP_BUDGET",
    "MAX_ARRAY_CELLS",
    "MemEvent",
    "Trace",
    "execute",
    "Machine",
    "MachineConfig",
    "RaceReport",
    "hb_races",
]
