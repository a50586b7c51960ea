"""LLOV stand-in: static data-race detection by dependence analysis.

Faithful to the tool class: it reasons about *worksharing loops* with
affine subscripts.  Its systematic blind spots reproduce LLOV's Table-5
profile:

* ``parallel`` regions that are not loops are outside its model — races
  there are missed (false negatives);
* non-affine subscripts (indirect ``a[idx[i]]``, ``%``-based aliasing)
  fall outside the polyhedral model; no dependence can be *proven*, and
  like the real tool it then stays silent — more false negatives;
* ``simd`` loops are analysed like fully parallel loops (safelen is not
  modelled), so vector-safe long-distance dependences are flagged —
  its false-positive channel;
* loops with an ``ordered`` clause are rejected as unsupported (TSR).
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from repro.detectors.base import Detector, Verdict
from repro.drb.generator import KernelSpec
from repro.openmp.analysis import AccessInfo, collect_accesses
from repro.openmp.ast_nodes import Loop, Num, ParallelRegion, Program, Seq
from repro.runtime.interpreter import Trace


def _const_bound(expr) -> int | None:
    return expr.value if isinstance(expr, Num) else None


def _affine_pair_dependence(
    w: AccessInfo, other: AccessInfo, lo: int, hi: int, step: int
) -> bool:
    """Can ``coef_w * i1 + c_w == coef_o * i2 + c_o`` for i1 != i2 in the
    iteration space?  GCD feasibility plus a bounded search for small
    spaces (our kernels' spaces are tiny, so the search is exact)."""
    a1, b1 = w.affine.coef, w.affine.const
    a2, b2 = other.affine.coef, other.affine.const
    # Fast infeasibility: a1*i1 - a2*i2 = b2 - b1 requires gcd | rhs.
    g = gcd(abs(a1), abs(a2))
    if g and (b2 - b1) % g != 0:
        return False
    iters = range(lo, hi, step)
    if len(iters) > 4096:  # pragma: no cover - kernels are small
        iters = range(lo, lo + 4096 * step, step)
    targets: dict[int, int] = {}
    for i in iters:
        targets.setdefault(a1 * i + b1, i)
    for j in iters:
        v = a2 * j + b2
        i = targets.get(v)
        if i is not None and i != j:
            return True
    return False


class LLOVDetector(Detector):
    """Static dependence-analysis race checker (see module docstring)."""

    name = "LLOV"
    kind = "static"
    version = "N/A"
    compiler = "Clang/LLVM 6.0.1"

    def supports(self, spec: KernelSpec) -> bool:
        return "ordered" not in spec.features

    # -- the analysis ------------------------------------------------------

    def detect(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> Verdict:
        program = spec.parse()
        if self._any_loop_races(program):
            return Verdict.RACE
        return Verdict.NO_RACE

    def _any_loop_races(self, program: Program) -> bool:
        for node in self._pragma_loops(program.body):
            if self._loop_races(node, program):
                return True
        return False

    def _pragma_loops(self, body: Seq):
        for stmt in body:
            if isinstance(stmt, Loop) and stmt.pragma is not None:
                yield stmt
            elif isinstance(stmt, Loop):
                yield from self._pragma_loops(stmt.body)
            elif isinstance(stmt, ParallelRegion):
                # Loop-centric: worksharing loops *inside* regions would be
                # analysed, but bare region statements are not.
                yield from self._pragma_loops(stmt.body)

    def _loop_races(self, loop: Loop, program: Program) -> bool:
        pragma = loop.pragma
        accesses = collect_accesses(loop)
        private = pragma.private_vars | {loop.var}
        reduced = set(pragma.reductions)

        lo = _const_bound(loop.lo)
        hi = _const_bound(loop.hi)
        if lo is None or hi is None:
            # Symbolic bounds: assume a generic large space.
            lo, hi = 0, 64
        stop = hi + 1 if loop.inclusive else hi
        if len(range(lo, stop, loop.step)) < 2:
            return False  # single-iteration loops cannot self-race

        # Shared scalars: a write outside any synchronization races.
        for a in accesses:
            if not a.is_array and a.is_write:
                if a.scalar in private or a.scalar in reduced:
                    continue
                if not a.synchronized:
                    return True

        # Arrays: test every (write, other) pair.
        writes = [a for a in accesses if a.is_array and a.is_write and not a.synchronized]
        others = [a for a in accesses if a.is_array]
        for w in writes:
            if w.affine is None:
                # Outside the polyhedral model: no dependence provable;
                # the tool stays silent (the FN channel).
                continue
            for o in others:
                if o.array != w.array or o is w:
                    continue
                if o.synchronized and o.is_write:
                    continue
                if o.affine is None:
                    continue
                if not (w.is_write or o.is_write):
                    continue
                if w.affine == o.affine:
                    continue  # same subscript: same iteration touches it
                if _affine_pair_dependence(w, o, lo, stop, loop.step):
                    return True
            # write-write against itself across iterations: non-injective
            # subscript (|coef| != 1 handled by pair test vs other writes;
            # coef 0 means every iteration writes one location).
            if w.affine.coef == 0:
                return True
        return False
