"""ThreadSanitizer stand-in: pure happens-before detection.

Like the real tool it watches *thread-level* accesses only, so SIMD-lane
races are invisible (vectorised code is one host thread) — its main
false-negative channel.  It reports a race only when two accesses are
provably unordered in an observed execution, which keeps precision near
1.0, matching the paper's best-precision row.

Support: everything on C/C++; on Fortran, programs using ``target``
offload or ``ordered`` are rejected (the gfortran runtime interplay the
paper's lower Fortran TSR reflects).

The happens-before check itself is the machine's epoch-matrix
``hb_races`` (vectorised per location, ``max_reports=1`` so the first
unordered pair settles the verdict) — verdict-identical to the seed
dict-clock implementation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detectors.base import Detector, Verdict
from repro.drb.generator import KernelSpec
from repro.runtime.interpreter import Trace
from repro.runtime.machine import hb_races


class ThreadSanitizerDetector(Detector):
    """Happens-before dynamic checker (see module docstring)."""

    name = "Thread Sanitizer"
    kind = "dynamic"
    version = "10.0.0"
    compiler = "Clang/LLVM 10.0.0"

    def supports(self, spec: KernelSpec) -> bool:
        if spec.language == "Fortran":
            return not ({"target", "ordered"} & spec.features)
        return True

    def detect(self, spec: KernelSpec, traces: Sequence[Trace] | None = None) -> Verdict:
        if traces is None:
            raise ValueError("ThreadSanitizer needs executions (traces)")
        for trace in traces:
            if hb_races(trace, include_lane_events=False, max_reports=1):
                return Verdict.RACE
        return Verdict.NO_RACE
