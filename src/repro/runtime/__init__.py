"""Simulated shared-memory parallel machine.

Executes kernel IR from :mod:`repro.openmp` with T logical threads under
a seeded interleaving scheduler, producing memory-event traces annotated
with vector clocks and locksets.  This substrate replaces the paper's
real multicore runs: dynamic race detectors (ThreadSanitizer, Intel
Inspector, ROMP stand-ins) analyse these traces exactly the way the real
tools analyse instrumented executions.

Semantics covered: ``parallel for`` (static chunking), ``parallel``
regions, ``simd`` (vector lanes with chunk barriers honouring safelen),
``target`` offload (host-fallback execution), ``critical``/``atomic``/
``barrier``/``single``/``master``/``ordered``, ``private``/
``firstprivate``/``reduction`` data-sharing.
"""

from repro.runtime.vectorclock import VectorClock
from repro.runtime.clocks import ClockBank, ClockView, EpochClock
from repro.runtime.memory import SharedMemory
from repro.runtime.interpreter import (
    STEP_BUDGET,
    BudgetExceeded,
    CompiledProgram,
    ExecutionError,
    MemEvent,
    Trace,
    execute,
)
from repro.runtime.machine import (
    Machine,
    MachineConfig,
    RaceReport,
    hb_races,
    hb_races_reference,
)
from repro.runtime.schedules import SCHEDULE_STRATEGIES

__all__ = [
    "VectorClock",
    "ClockBank",
    "ClockView",
    "EpochClock",
    "SharedMemory",
    "ExecutionError",
    "BudgetExceeded",
    "CompiledProgram",
    "STEP_BUDGET",
    "MemEvent",
    "Trace",
    "execute",
    "Machine",
    "MachineConfig",
    "RaceReport",
    "hb_races",
    "hb_races_reference",
    "SCHEDULE_STRATEGIES",
]
