"""Compiled interleaving runtime for kernel IR.

Execution model
---------------
Top-level statements run serially in the *master* context (no events —
serial code cannot race).  Each parallel construct (``parallel for``,
``parallel`` region, ``simd`` loop, ``target`` loop) spawns logical
threads implemented as Python generators that yield each shared memory
access to the scheduler, which performs it, so threads interleave at
memory-operation granularity.  Synchronisation (locks, barriers,
atomics, single) is mediated by the scheduler, which also maintains
vector clocks and per-thread locksets.

Compilation
-----------
Which names are thread-private at a statement is known from the source
alone: the construct's ``private``/``firstprivate``/``lastprivate`` and
reduction variables, its worksharing loop variables, and the variables
of enclosing serial loops.  A :class:`CompiledProgram` therefore resolves
every variable reference once, turning the AST into closures: a private
``Var`` becomes a lookup in the thread's locals dict, a shared one an
action the thread yields.  Statements that touch only private state
compile to plain closures; only shared accesses and synchronisation
points suspend the thread.  A kernel is compiled on its first
execution, and the lazy iterable :meth:`repro.runtime.Machine.traces`
returns reuses the closures for every schedule it runs.  The generator
interpreter that re-walked the AST on every schedule survives only as
the reference in the test suite, which checks that both produce
bit-identical traces.

The output :class:`Trace` carries every shared-memory event with its
vector clock, lockset, atomicity flag, and (for ``simd``) a lane marker —
everything the dynamic detectors need.  Clocks live in the trace's
:class:`~repro.runtime.clocks.ClockBank` epoch matrix: each event stores
only its row index (snapshots are interned once per synchronisation
interval).  At each scheduling point the scheduler runs a uniformly
random ready thread, drawn from the execution's seeded stream
(:func:`lemire_draws`), so a seed fixes the whole interleaving.

SIMD loops execute as ``safelen`` (default 4) vector lanes with a chunk
barrier after each vector step: dependences shorter than the vector
length manifest as lane races, longer ones do not — faithful to why SIMD
data races are races.  Lane events are marked ``lane=True`` because real
thread-level tools (TSan, Inspector) observe a single host thread there.

Every execution may spend at most :data:`STEP_BUDGET` steps — loop
iterations plus spawned threads.  A loop charges its whole trip count
before its first iteration, so a runaway kernel fails at once with
:class:`BudgetExceeded` instead of running for minutes.  Likewise its
arrays may declare at most :data:`MAX_ARRAY_CELLS` cells in total,
checked before any memory is allocated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.openmp.ast_nodes import (
    Assign, AtomicStmt, Barrier, BinOp, CriticalSection, FlushStmt, Idx,
    IfStmt, Loop, MasterSection, Num, OrderedBlock, ParallelRegion, Program,
    Seq, SingleSection, Var, walk,
)
from repro.openmp.pragmas import Pragma
from repro.runtime.clocks import ClockBank, EpochClock
from repro.runtime.memory import SharedMemory

#: Steps (loop iterations plus spawned threads) one execution may take.
#: Executions of the DRB evaluation suite take at most 84 steps and emit
#: at most 320 events, so this leaves over 300x headroom on either count
#: while stopping a runaway kernel before it starts.
STEP_BUDGET = 100_000

#: Array cells, summed over all declarations, one execution may allocate.
#: DRB kernels declare at most 240, so this leaves over 4000x headroom
#: while refusing a huge declaration before it is allocated.
MAX_ARRAY_CELLS = 1 << 20


class ExecutionError(RuntimeError):
    """Raised on semantic errors (unbound names, bad indices, deadlock)."""


class BudgetExceeded(ExecutionError):
    """The execution would take more than :data:`STEP_BUDGET` steps or
    allocate more than :data:`MAX_ARRAY_CELLS` array cells."""


class MemEvent(NamedTuple):
    """One shared-memory access."""

    seq: int
    tid: object  # worker index, ("lane", k), or ("dev", k)
    is_write: bool
    loc: tuple  # ("arr", name, index) | ("sca", name)
    clock_row: int  # the event's vector clock: a row of the trace's ClockBank
    locks: frozenset
    atomic: bool = False
    lane: bool = False  # SIMD lane event (invisible to thread-level tools)
    region: int = 0  # which parallel construct produced it


@dataclass
class Trace:
    """Everything observed in one execution."""

    events: list[MemEvent] = field(default_factory=list)
    schedule_seed: int = 0
    n_threads: int = 0
    final_arrays: dict = field(default_factory=dict)
    regions: int = 0
    clock_bank: ClockBank = field(default_factory=ClockBank)  # the events' clocks


_DRAW_BATCH = 256


def lemire_draws(rng: np.random.Generator):
    """``draw(n)`` returning exactly what ``int(rng.integers(n))`` would,
    call for call, for ``1 <= n <= 2**32``.

    NumPy answers a bounded draw below ``2**32`` with Lemire's method on
    32-bit words: ``m = word * n``, reject while ``m mod 2**32`` falls
    below ``2**32 mod n``, return ``m >> 32``; ``n == 1`` consumes
    nothing.  Fetching the words in bulk as ``uint32`` reads the same
    stream of ``next_uint32`` outputs, so the draws agree as long as
    nothing else consumes ``rng``.
    """
    words: list[int] = []
    pos = 0

    def draw(n: int) -> int:
        nonlocal words, pos
        if n == 1:
            return 0
        if not 1 < n <= 0x100000000:
            raise ValueError(f"draw bound {n} outside [1, 2**32]")
        while True:
            if pos == len(words):
                words = rng.integers(0, 1 << 32, size=_DRAW_BATCH, dtype=np.uint32).tolist()
                pos = 0
            m = words[pos] * n
            pos += 1
            low = m & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    return draw


# ---------------------------------------------------------------------------
# Arithmetic (C semantics)
# ---------------------------------------------------------------------------


def _as_index(value) -> int:
    if isinstance(value, bool):
        raise ExecutionError("boolean used as array index")
    if isinstance(value, int):
        return value
    f = float(value)
    i = int(f)
    if i != f:
        raise ExecutionError(f"non-integer array index {value!r}")
    return i


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ExecutionError("integer division by zero")
        # C truncates toward zero.  Pure integer form: floating
        # `int(a / b)` silently loses precision past 2**53.
        return a // b if (a < 0) == (b < 0) else -(-a // b)
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _mod(a, b):
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ExecutionError("modulo requires integer operands")
    if b == 0:
        raise ExecutionError("modulo by zero")
    # C remainder: a == (a/b)*b + a%b with truncating division, so the
    # result carries the dividend's sign.  Integer-only again.
    q = a // b if (a < 0) == (b < 0) else -(-a // b)
    return a - b * q


_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "%": _mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def _arith(op: str, a, b):
    fn = _OPS.get(op)
    if fn is None:
        raise ExecutionError(f"unknown operator {op!r}")
    return fn(a, b)


def _op_fn(op: str):
    """The function computing ``op``; an unknown operator still raises
    only when evaluated, like the rest of the kernel's errors."""
    fn = _OPS.get(op)
    if fn is None:
        def fn(a, b):
            raise ExecutionError(f"unknown operator {op!r}")
    return fn


# ---------------------------------------------------------------------------
# Actions a thread yields to the scheduler
# ---------------------------------------------------------------------------

READ_SCA, WRITE_SCA, READ_ARR, WRITE_ARR = "read_sca", "write_sca", "read_arr", "write_arr"
ATOMIC_RMW_SCA, ATOMIC_WRITE_SCA = "atomic_rmw_sca", "atomic_write_sca"
ATOMIC_RMW_ARR, ATOMIC_WRITE_ARR = "atomic_rmw_arr", "atomic_write_arr"
ACQUIRE, RELEASE, BARRIER, AM_MASTER, SINGLE = "acquire", "release", "barrier", "am_master", "single"

_BARRIER_ACTION = (BARRIER,)


# ---------------------------------------------------------------------------
# The compiler: AST -> closures
# ---------------------------------------------------------------------------
#
# An expression compiles to ``(kind, fn)``:
#   PURE  fn(L) -> value                     (private reads only)
#   READ  fn(L) -> action of the single shared read that yields the value
#   GEN   fn(L) -> generator yielding actions, returning the value
# A statement compiles to ``(is_gen, fn)`` with ``fn(L, ex)``: a plain
# call, or a generator function when it performs shared accesses or
# synchronises.  ``L`` is the thread's locals dict and ``ex`` the running
# :class:`_Execution` (step budget).  Evaluation order — and therefore
# where an error surfaces relative to the thread's yields — is the AST
# walk's exactly.

PURE, READ, GEN = 0, 1, 2


def _fail(message: str):
    def fail(*_args):
        raise ExecutionError(message)
    return fail


def _nop(L, ex) -> None:
    return None


def _as_gen(kind: int, fn):
    """Any compiled expression as a generator function."""
    if kind is GEN:
        return fn
    if kind is READ:
        def read(L):
            return (yield fn(L))
        return read

    def pure(L):
        return fn(L)
        yield  # noqa: unreachable - makes this a generator function
    return pure


def _stmt_gen(s, private: frozenset):
    """A statement as a generator function, even if it never yields."""
    is_gen, fn = _stmt(s, private)
    if is_gen:
        return fn

    def run(L, ex):
        fn(L, ex)
        yield from ()
    return run


def _expr(e, private: frozenset):
    if isinstance(e, Num):
        value = e.value
        return PURE, lambda L: value
    if isinstance(e, Var):
        name = e.name
        if name in private:
            return PURE, itemgetter(name)
        action = (READ_SCA, name)
        return READ, lambda L: action
    if isinstance(e, Idx):
        arr = e.array
        ik, index = _expr(e.index, private)
        if ik is PURE:
            def read(L):
                i = index(L)
                return (READ_ARR, arr, i if i.__class__ is int else _as_index(i))
            return READ, read
        index_gen = _as_gen(ik, index)

        def read_indirect(L):
            i = _as_index((yield from index_gen(L)))
            return (yield (READ_ARR, arr, i))
        return GEN, read_indirect
    if isinstance(e, BinOp):
        return _binop(e, private)
    return PURE, lambda L: _fail(f"cannot evaluate {e!r}")()


def _binop(e: BinOp, private: frozenset):
    f = _op_fn(e.op)
    lk, lf = _expr(e.left, private)
    rk, rf = _expr(e.right, private)
    if lk is PURE and rk is PURE:
        return PURE, lambda L: f(lf(L), rf(L))
    if lk is READ and rk is PURE:
        def g(L):
            a = yield lf(L)
            return f(a, rf(L))
    elif lk is PURE and rk is READ:
        def g(L):
            a = lf(L)
            return f(a, (yield rf(L)))
    elif lk is READ and rk is READ:
        def g(L):
            a = yield lf(L)
            return f(a, (yield rf(L)))
    else:
        lg, rg = _as_gen(lk, lf), _as_gen(rk, rf)

        def g(L):
            a = yield from lg(L)
            return f(a, (yield from rg(L)))
    return GEN, g


def _stmt(s, private: frozenset):
    if isinstance(s, Assign):
        return _assign(s, private, atomic=False)
    if isinstance(s, AtomicStmt):
        return _assign(s.update, private, atomic=True)
    if isinstance(s, Seq):
        return _block(s.stmts, private)
    if isinstance(s, IfStmt):
        return _if(s, private)
    if isinstance(s, Loop):
        return _loop(s, private)
    if isinstance(s, CriticalSection):
        return _locked(f"$critical:{s.name or '<anon>'}", s.body, private)
    if isinstance(s, OrderedBlock):
        return _locked("$ordered", s.body, private)
    if isinstance(s, Barrier):
        def barrier(L, ex):
            yield _BARRIER_ACTION
        return True, barrier
    if isinstance(s, FlushStmt):
        return False, _nop  # memory model noise; no scheduling effect here
    if isinstance(s, MasterSection):
        return _guarded((AM_MASTER,), s.body, private, barrier_after=False)
    if isinstance(s, SingleSection):
        return _guarded((SINGLE,), s.body, private, barrier_after=not s.nowait)
    if isinstance(s, ParallelRegion):
        return False, _fail("nested parallel regions are not supported")
    return False, lambda L, ex: _fail(f"cannot execute {s!r}")()


def _block(stmts: list, private: frozenset):
    items = [_stmt(s, private) for s in stmts]
    if len(items) == 1:
        return items[0]
    if not any(is_gen for is_gen, _ in items):
        fns = [fn for _, fn in items]

        def block(L, ex):
            for fn in fns:
                fn(L, ex)
        return False, block

    def block_gen(L, ex):
        for is_gen, fn in items:
            if is_gen:
                yield from fn(L, ex)
            else:
                fn(L, ex)
    return True, block_gen


def _assign(stmt: Assign, private: frozenset, atomic: bool):
    target, op = stmt.target, stmt.op
    f = _op_fn(op) if op is not None else None
    if isinstance(target, Var):
        name = target.name
        if name in private:
            return _assign_private(name, f, _expr(stmt.expr, private))
        if atomic:
            expr = stmt.expr
            if op is not None:
                kind, rop, rhs = ATOMIC_RMW_SCA, op, expr
            elif isinstance(expr, BinOp) and isinstance(expr.left, Var) and expr.left.name == name:
                # Fortran-style `s = s + x(i)` under atomic: evaluate the
                # RHS reads normally, then commit the RMW indivisibly.
                kind, rop, rhs = ATOMIC_RMW_SCA, expr.op, expr.right
            else:
                kind, rop, rhs = ATOMIC_WRITE_SCA, None, expr
            rhs_gen = _as_gen(*_expr(rhs, private))

            def atomic_scalar(L, ex):
                v = yield from rhs_gen(L)
                yield (kind, name, rop, v) if rop is not None else (kind, name, v)
            return True, atomic_scalar
        ek, ef = _expr(stmt.expr, private)
        read = (READ_SCA, name)

        def write_scalar(L, ex):
            if ek is PURE:
                v = ef(L)
            elif ek is READ:
                v = yield ef(L)
            else:
                v = yield from ef(L)
            if f is not None:
                v = f((yield read), v)
            yield (WRITE_SCA, name, v)
        return True, write_scalar

    arr = target.array
    ik, index = _expr(target.index, private)
    if atomic:
        index_gen = _as_gen(ik, index)
        expr = stmt.expr
        if op is not None:
            kind, rop, rhs = ATOMIC_RMW_ARR, op, expr
        elif isinstance(expr, BinOp) and isinstance(expr.left, Idx) and expr.left.array == arr:
            kind, rop, rhs = ATOMIC_RMW_ARR, expr.op, expr.right
        else:
            kind, rop, rhs = ATOMIC_WRITE_ARR, None, expr
        rhs_gen = _as_gen(*_expr(rhs, private))

        def atomic_array(L, ex):
            i = _as_index((yield from index_gen(L)))
            v = yield from rhs_gen(L)
            yield (kind, arr, i, rop, v) if rop is not None else (kind, arr, i, v)
        return True, atomic_array

    ek, ef = _expr(stmt.expr, private)

    def write_array(L, ex):
        if ik is PURE:
            i = index(L)
        elif ik is READ:
            i = yield index(L)
        else:
            i = yield from index(L)
        if i.__class__ is not int:
            i = _as_index(i)
        if ek is PURE:
            v = ef(L)
        elif ek is READ:
            v = yield ef(L)
        else:
            v = yield from ef(L)
        if f is not None:
            v = f((yield (READ_ARR, arr, i)), v)
        yield (WRITE_ARR, arr, i, v)
    return True, write_array


def _assign_private(name: str, f, rhs):
    """A private target produces no shared events at all."""
    ek, ef = rhs
    if ek is PURE:
        if f is None:
            def store(L, ex):
                L[name] = ef(L)
        else:
            def store(L, ex):
                v = ef(L)
                L[name] = f(L[name], v)
        return False, store
    rhs_gen = _as_gen(ek, ef)

    def store_gen(L, ex):
        v = yield from rhs_gen(L)
        L[name] = v if f is None else f(L[name], v)
    return True, store_gen


def _if(s: IfStmt, private: frozenset):
    ck, cond = _expr(s.cond, private)
    then_gen, then_fn = _stmt(s.then_body, private)
    else_gen, else_fn = (
        _stmt(s.else_body, private) if s.else_body is not None else (False, None)
    )
    if ck is PURE and not then_gen and not else_gen:
        def if_pure(L, ex):
            if cond(L):
                then_fn(L, ex)
            elif else_fn is not None:
                else_fn(L, ex)
        return False, if_pure
    cond_gen = _as_gen(ck, cond)
    then_g = _stmt_gen(s.then_body, private)
    else_g = _stmt_gen(s.else_body, private) if s.else_body is not None else None

    def if_gen(L, ex):
        if (yield from cond_gen(L)):
            yield from then_g(L, ex)
        elif else_g is not None:
            yield from else_g(L, ex)
    return True, if_gen


def _loop(s: Loop, private: frozenset):
    if s.pragma is not None:
        return False, _fail("nested parallel constructs are not supported")
    var, step, inclusive = s.var, s.step, s.inclusive
    # Restore an enclosing private binding of the loop variable after
    # the loop; otherwise the variable goes back to being shared.
    restore = var in private
    lo_k, lo = _expr(s.lo, private)
    hi_k, hi = _expr(s.hi, private)
    body_gen, body = _stmt(s.body, private | {var})

    if lo_k is PURE and hi_k is PURE and not body_gen:
        def loop(L, ex):
            start = _as_index(lo(L))
            end = _as_index(hi(L))
            r = ex.charge_range(range(start, end + 1 if inclusive else end, step))
            old = L.get(var)
            for i in r:
                L[var] = i
                body(L, ex)
            if restore:
                L[var] = old
            else:
                L.pop(var, None)
        return False, loop

    lo_gen, hi_gen = _as_gen(lo_k, lo), _as_gen(hi_k, hi)
    body = _stmt_gen(s.body, private | {var})

    def loop_gen(L, ex):
        start = _as_index((yield from lo_gen(L)))
        end = _as_index((yield from hi_gen(L)))
        r = ex.charge_range(range(start, end + 1 if inclusive else end, step))
        old = L.get(var)
        for i in r:
            L[var] = i
            yield from body(L, ex)
        if restore:
            L[var] = old
        else:
            L.pop(var, None)
    return True, loop_gen


def _locked(lock: str, body_node, private: frozenset):
    body = _stmt_gen(body_node, private)
    acquire, release = (ACQUIRE, lock), (RELEASE, lock)

    def locked(L, ex):
        yield acquire
        try:
            yield from body(L, ex)
        except GeneratorExit:  # closed after the run failed: nothing to release
            raise
        except BaseException:
            # The lock is released before the error surfaces, one
            # scheduling step later.
            yield release
            raise
        yield release
    return True, locked


def _guarded(action: tuple, body_node, private: frozenset, barrier_after: bool):
    """``master``/``single``: run the body if the scheduler says so."""
    body = _stmt_gen(body_node, private)

    def guarded(L, ex):
        if (yield action):
            yield from body(L, ex)
        if barrier_after:
            yield _BARRIER_ACTION
    return True, guarded


# ---------------------------------------------------------------------------
# Top-level units: serial statements and parallel constructs
# ---------------------------------------------------------------------------

_REDUCTION_INIT = {"+": 0.0, "-": 0.0, "*": 1.0, "max": -np.inf, "min": np.inf}
_NO_PRIVATES: frozenset = frozenset()


def _privates(pragma: Pragma, loop_vars=()) -> frozenset:
    """Names private to every thread of ``pragma``'s team."""
    return frozenset(pragma.private_vars) | frozenset(pragma.reductions) | frozenset(loop_vars)


class _SerialUnit:
    def __init__(self, stmt) -> None:
        self.body = _stmt_gen(stmt, _NO_PRIVATES)

    def run(self, ex: "_Execution") -> None:
        ex.drain(self.body({}, ex))


class _ParallelLoop:
    """``parallel for`` / ``simd`` / ``target`` loop.  Checks and clause
    arguments are evaluated at run time, in the AST walk's order; the
    body is compiled on first use."""

    def __init__(self, loop: Loop) -> None:
        self.loop = loop
        self.lo = _expr(loop.lo, _NO_PRIVATES)
        self.hi = _expr(loop.hi, _NO_PRIVATES)
        self._body = None

    def _compiled_body(self, loop_vars: list, body_node):
        if self._body is None:
            self._body = _stmt_gen(body_node, _privates(self.loop.pragma, loop_vars))
        return self._body

    def run(self, ex: "_Execution") -> None:
        loop, pragma = self.loop, self.loop.pragma
        region = ex.next_region()
        if pragma.kind == "simd":
            lo = ex.eval_serial(self.lo)
            hi = ex.eval_serial(self.hi)
            self._run_simd(ex, lo, hi + 1 if loop.inclusive else hi, region)
            return

        collapse_args = pragma.clause_args("collapse")
        if collapse_args and int(collapse_args[0]) >= 2:
            if int(collapse_args[0]) != 2:
                raise ExecutionError("only collapse(2) is supported")
            inner_stmts = list(loop.body)
            if len(inner_stmts) != 1 or not isinstance(inner_stmts[0], Loop):
                raise ExecutionError("collapse(2) requires a perfectly nested inner loop")
            inner = inner_stmts[0]
            if inner.pragma is not None:
                raise ExecutionError("collapse over a directive-bearing inner loop")
            lo1 = ex.eval_serial(self.lo)
            hi1 = ex.eval_serial(self.hi)
            lo2 = ex.eval_serial(_expr(inner.lo, _NO_PRIVATES))
            hi2 = ex.eval_serial(_expr(inner.hi, _NO_PRIVATES))
            outer_r = range(lo1, hi1 + 1 if loop.inclusive else hi1, loop.step)
            inner_r = range(lo2, hi2 + 1 if inner.inclusive else hi2, inner.step)
            ex.charge(_trip_count(outer_r) * _trip_count(inner_r))
            space = [(i, j) for i in outer_r for j in inner_r]
            loop_vars, body_node = [loop.var, inner.var], inner.body
        else:
            lo = ex.eval_serial(self.lo)
            hi = ex.eval_serial(self.hi)
            space = ex.charge_range(range(lo, hi + 1 if loop.inclusive else hi, loop.step))
            loop_vars, body_node = [loop.var], loop.body

        n = pragma.num_threads or ex.n_threads
        device = pragma.is_target
        sched_args = pragma.clause_args("schedule")
        dynamic = bool(sched_args) and sched_args[0] == "dynamic"
        dyn_chunk = int(sched_args[1]) if dynamic and len(sched_args) > 1 else 1
        if dyn_chunk < 1:  # would never drain the queue
            raise ExecutionError(f"schedule chunk size must be positive, got {dyn_chunk}")
        ex.charge(n)

        body = self._compiled_body(loop_vars, body_node)
        specs, envs = [], []
        reductions: dict[str, str] = {}
        if dynamic:
            # Work queue: threads pull chunks as they go.  Pops happen
            # between yields, so they are atomic under the cooperative
            # scheduler — exactly the runtime's internal synchronisation,
            # which (like reductions) produces no user-visible events.
            queue = list(space)
            chunks = [_pull(queue, dyn_chunk) for _ in range(n)]
        else:
            size = (len(space) + n - 1) // n if space else 0
            chunks = [space[k * size : (k + 1) * size] if space else [] for k in range(n)]
        for k in range(n):
            env, reductions = ex.make_env(pragma, None)
            for var in loop_vars:
                env[var] = 0
            envs.append(env)
            worker = _worker(chunks[k], loop_vars, env, ex, body)
            specs.append((("dev", k) if device else k, worker, False))
        ex.run_team(specs, region)
        ex.commit_reductions(envs, reductions)

    def _run_simd(self, ex: "_Execution", lo: int, stop: int, region: int) -> None:
        loop, pragma = self.loop, self.loop.pragma
        safelen_args = pragma.clause_args("safelen")
        vl = int(safelen_args[0]) if safelen_args else 4
        iters = list(ex.charge_range(range(lo, stop, loop.step)))
        n_chunks = (len(iters) + vl - 1) // vl
        ex.charge(vl)
        body = self._compiled_body([loop.var], loop.body)
        specs, envs = [], []
        reductions: dict[str, str] = {}
        for lane in range(vl):
            env, reductions = ex.make_env(pragma, loop.var)
            envs.append(env)
            worker = _lane_worker(lane, vl, n_chunks, iters, loop.var, env, ex, body)
            specs.append((("lane", lane), worker, True))
        ex.run_team(specs, region)
        ex.commit_reductions(envs, reductions)


class _ParallelRegion:
    def __init__(self, node: ParallelRegion) -> None:
        self.node = node
        self.pragma = node.pragma or Pragma("parallel")
        self.body = _stmt_gen(node.body, _privates(self.pragma))

    def run(self, ex: "_Execution") -> None:
        region = ex.next_region()
        n = (self.node.pragma.num_threads if self.node.pragma else None) or ex.n_threads
        ex.charge(n)
        specs, envs = [], []
        reductions: dict[str, str] = {}
        for k in range(n):
            env, reductions = ex.make_env(self.pragma, None)
            envs.append(env)
            specs.append((k, self.body(env, ex), False))
        ex.run_team(specs, region)
        ex.commit_reductions(envs, reductions)


class _UnsupportedLoop:
    def __init__(self, kind: str) -> None:
        self.kind = kind

    def run(self, ex: "_Execution") -> None:
        raise ExecutionError(f"unsupported loop directive {self.kind!r}")


def _unit(stmt):
    if isinstance(stmt, Loop) and stmt.pragma is not None:
        kind = stmt.pragma.kind
        if kind == "simd" or "for" in kind.split() or kind.startswith("target"):
            return _ParallelLoop(stmt)
        return _UnsupportedLoop(kind)
    if isinstance(stmt, ParallelRegion):
        return _ParallelRegion(stmt)
    return _SerialUnit(stmt)


def _trip_count(r: range) -> int:
    try:
        return len(r)
    except OverflowError:  # more than sys.maxsize iterations
        return STEP_BUDGET + 1


def _pull(queue: list, chunk: int):
    """One worker's view of the shared dynamic-schedule queue."""
    while queue:
        grabbed = queue[:chunk]
        del queue[:chunk]
        yield from grabbed


def _worker(points, loop_vars: list, L: dict, ex, body):
    if len(loop_vars) == 1:
        (var,) = loop_vars
        for point in points:
            L[var] = point
            yield from body(L, ex)
    else:  # collapse(2): points are (i, j) pairs
        for point in points:
            L.update(zip(loop_vars, point))
            yield from body(L, ex)


def _lane_worker(lane, vl, n_chunks, iters, var, L, ex, body):
    for c in range(n_chunks):
        pos = c * vl + lane
        if pos < len(iters):
            L[var] = iters[pos]
            yield from body(L, ex)
        yield _BARRIER_ACTION  # end of the vector step


#: Statements whose synchronisation, if any, is fixed by the program
#: text: fork/join, barriers, thread 0 as ``master``.  Locks (critical,
#: ordered), atomics and ``single`` let the schedule pick who goes first.
_DETERMINATE_STMTS = frozenset(
    {Assign, IfStmt, Loop, Barrier, FlushStmt, MasterSection, ParallelRegion}
)


def _schedule_invariant(program: Program) -> bool:
    """Whether one race-free execution of ``program`` stands for all:
    every statement is in :data:`_DETERMINATE_STMTS`, and no directive
    has an ``ordered`` clause or a ``schedule`` other than ``static``.
    Then who runs which code never depends on the interleaving, so if
    one schedule has no race (lanes counted), every read sees the same
    write in every schedule, and the events, their happens-before order
    and every tool's verdict are the same (the determinacy argument of
    SP-bags, Feng & Leiserson 1997)."""
    for node in walk(program.body):
        if type(node) not in _DETERMINATE_STMTS:
            return False
        pragma = getattr(node, "pragma", None)
        if pragma is not None and (
            pragma.has_clause("ordered")
            or pragma.clause_args("schedule")[:1] not in ((), ("static",))
        ):
            return False
    return True


class CompiledProgram:
    """A :class:`Program` compiled into closures, reusable across
    executions.  Compilation happens on the first execution, so the
    cost lands where the kernel is first run; ``schedule_invariant``
    (see :func:`_schedule_invariant`) is classified at once."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.schedule_invariant = _schedule_invariant(program)
        self._units: list | None = None

    def units(self) -> list:
        if self._units is None:
            self._units = [_unit(stmt) for stmt in self.program.body]
        return self._units


# ---------------------------------------------------------------------------
# One execution: master context, teams, and the scheduler
# ---------------------------------------------------------------------------

READY, BLOCKED, AT_BARRIER, DONE = "ready", "blocked", "barrier", "done"
_NO_LOCKS: frozenset = frozenset()


class _Thread:
    __slots__ = ("tid", "gen", "vc", "locks", "status", "send", "action", "is_master", "lane")

    def __init__(self, tid, gen, vc: EpochClock, is_master: bool, lane: bool) -> None:
        self.tid = tid
        self.gen = gen
        self.vc = vc
        self.locks = _NO_LOCKS  # replaced, never mutated: events share it
        self.status = READY
        self.send = None  # resume payload after a block or barrier
        self.action = None  # pending action; None until (re)started
        self.is_master = is_master
        self.lane = lane


class _Execution:
    """State of one run of a compiled program under one schedule seed."""

    def __init__(self, code: CompiledProgram, n_threads: int, draw) -> None:
        self.code = code
        cells = sum(decl.size for decl in code.program.arrays)
        if cells > MAX_ARRAY_CELLS:
            raise BudgetExceeded(
                f"arrays declare {cells} cells, over the array limit of "
                f"{MAX_ARRAY_CELLS}"
            )
        self.mem = SharedMemory(code.program)
        self.n_threads = n_threads
        self.draw = draw  # the schedule's seeded lemire_draws stream
        self.bank = ClockBank()
        self.trace = Trace(n_threads=n_threads, clock_bank=self.bank)
        self.master_vc = EpochClock(self.bank)
        self.master_vc.tick("master")
        self.regions = 0
        self.steps_left = STEP_BUDGET

    # -- step budget ----------------------------------------------------------

    def charge(self, steps: int) -> None:
        self.steps_left -= max(steps, 0)
        if self.steps_left < 0:
            raise BudgetExceeded(
                f"execution exceeds the step budget of {STEP_BUDGET} "
                "loop iterations and threads"
            )

    def charge_range(self, r: range) -> range:
        self.charge(_trip_count(r))
        return r

    # -- serial helpers -------------------------------------------------------

    def drain(self, gen):
        """Run a thread generator serially, applying its actions directly
        (no events — serial code cannot race); returns its value."""
        mem = self.mem
        send = None
        while True:
            try:
                action = gen.send(send)
            except StopIteration as stop:
                return stop.value
            kind = action[0]
            send = None
            # Serial atomics reduce to plain ops; locks and barriers to
            # nothing; every thread is the master and wins every single.
            if kind is READ_SCA:
                send = mem.read_scalar(action[1])
            elif kind is WRITE_SCA or kind is ATOMIC_WRITE_SCA:
                mem.write_scalar(action[1], float(action[2]))
            elif kind is READ_ARR:
                send = mem.read_array(action[1], action[2])
            elif kind is WRITE_ARR or kind is ATOMIC_WRITE_ARR:
                mem.write_array(action[1], action[2], float(action[3]))
            elif kind is ATOMIC_RMW_SCA:
                _, name, op, rhs = action
                mem.write_scalar(name, float(_arith(op, mem.read_scalar(name), rhs)))
            elif kind is ATOMIC_RMW_ARR:
                _, name, idx, op, rhs = action
                mem.write_array(name, idx, float(_arith(op, mem.read_array(name, idx), rhs)))
            elif kind is AM_MASTER or kind is SINGLE:
                send = True

    def eval_serial(self, expr) -> int:
        return _as_index(self.drain(_as_gen(*expr)({})))

    def next_region(self) -> int:
        region = self.regions
        self.regions += 1
        self.trace.regions = self.regions
        return region

    # -- teams --------------------------------------------------------------------

    def make_env(self, pragma: Pragma, loop_var: str | None) -> tuple[dict, dict]:
        """Build one thread's private locals and the reduction map."""
        env: dict = {}
        reductions = pragma.reductions
        for v in pragma.private_vars:
            if v in set(pragma.clause_args("firstprivate")):
                env[v] = self.mem.read_scalar(v)
            else:
                env[v] = 0
        for v, op in reductions.items():
            if op not in _REDUCTION_INIT:
                raise ExecutionError(f"unsupported reduction operator {op!r}")
            env[v] = _REDUCTION_INIT[op]
        if loop_var is not None:
            env[loop_var] = 0  # loop variable is always private
        return env, reductions

    def commit_reductions(self, envs: list[dict], reductions: dict[str, str]) -> None:
        for name, op in reductions.items():
            acc = self.mem.read_scalar(name)
            for env in envs:
                acc = float(_arith(op, acc, env[name]))
            self.mem.write_scalar(name, acc)

    def run_team(self, specs: list[tuple], region: int) -> None:
        """specs: (tid, generator, lane_flag) per thread."""
        threads = []
        for tid, gen, lane in specs:
            vc = self.master_vc.copy()
            vc.tick(tid)
            threads.append(_Thread(tid, gen, vc, tid == 0, lane))
        self._schedule(threads, region)
        for t in threads:
            self.master_vc.join(t.vc.values)
        self.master_vc.tick("master")

    def _schedule(self, threads: list[_Thread], region: int) -> None:
        """Interleave one team to completion.  The hot loop: memory
        actions are performed inline, and the ready list is rebuilt only
        when some thread's status changes."""
        mem = self.mem
        arrays, scalars, base = mem.arrays, mem.scalars, mem.base
        events = self.trace.events
        append = events.append
        draw = self.draw
        new = tuple.__new__
        lock_vcs: dict[str, list[int]] = {}
        lock_owner: dict[str, object] = {}
        lock_waiters: dict[str, list[_Thread]] = {}
        single_winner: dict[int, object] = {}
        single_counter: dict[object, int] = {}

        for t in threads:
            try:
                t.action = t.gen.send(None)
            except StopIteration:
                t.status = DONE
        ready = [t for t in threads if t.status is READY]
        while True:
            if not ready:
                live = [t for t in threads if t.status is not DONE]
                if not live:
                    return
                waiting = [t for t in threads if t.status is AT_BARRIER]
                if len(waiting) != len(live):
                    raise ExecutionError(
                        "deadlock: no runnable thread "
                        f"(states: {[(t.tid, t.status) for t in threads]})"
                    )
                # Barrier release: join clocks, tick, resume everyone.
                merged = EpochClock(self.bank)
                for t in threads:
                    merged.join(t.vc.values)
                for t in waiting:
                    t.vc = merged.copy()
                    t.vc.tick(t.tid)
                    t.status = READY
                    t.send = None
                ready = waiting
                continue

            t = ready[draw(len(ready))]
            action = t.action
            if action is None:  # resumed after a block or barrier
                send = t.send
            else:
                kind = action[0]
                if kind is READ_ARR or kind is WRITE_ARR:
                    name, idx = action[1], action[2]
                    vc = t.vc
                    row = vc._row
                    if row is None:
                        row = vc.row()
                    is_write = kind is WRITE_ARR
                    append(new(MemEvent, (
                        len(events), t.tid, is_write, ("arr", name, idx), row,
                        t.locks, False, t.lane, region,
                    )))
                    if is_write:
                        value = float(action[3])
                    buf = arrays[name]  # KeyError(name) when undeclared
                    if idx < base or idx >= len(buf):
                        mem.check_index(name, idx)  # raises
                    if is_write:
                        buf[idx] = value
                        send = None
                    else:
                        send = buf[idx]
                elif kind is READ_SCA or kind is WRITE_SCA:
                    name = action[1]
                    vc = t.vc
                    row = vc._row
                    if row is None:
                        row = vc.row()
                    is_write = kind is WRITE_SCA
                    append(new(MemEvent, (
                        len(events), t.tid, is_write, ("sca", name), row,
                        t.locks, False, t.lane, region,
                    )))
                    if is_write:
                        mem.write_scalar(name, float(action[2]))
                        send = None
                    else:
                        send = scalars[name] if name in scalars else mem.read_scalar(name)
                elif kind is ACQUIRE:
                    name = action[1]
                    if name in lock_owner:
                        t.status = BLOCKED
                        t.action = None
                        lock_waiters.setdefault(name, []).append(t)
                        ready = [x for x in threads if x.status is READY]
                        continue
                    lock_owner[name] = t.tid
                    t.locks = t.locks | {name}
                    lvc = lock_vcs.get(name)
                    if lvc is not None:
                        t.vc.join(lvc)
                    send = None
                elif kind is RELEASE:
                    name = action[1]
                    if lock_owner.get(name) != t.tid:
                        raise ExecutionError(
                            f"thread {t.tid} released lock {name!r} it does not own"
                        )
                    lock_vcs[name] = t.vc.snapshot()
                    t.vc.tick(t.tid)
                    t.locks = t.locks - {name}
                    del lock_owner[name]
                    waiters = lock_waiters.get(name)
                    if waiters:
                        nxt = waiters.pop(0)
                        lock_owner[name] = nxt.tid
                        nxt.locks = nxt.locks | {name}
                        nxt.vc.join(lock_vcs[name])
                        nxt.status = READY
                        nxt.send = None
                        ready = [x for x in threads if x.status is READY]
                    send = None
                elif kind is BARRIER:
                    t.status = AT_BARRIER
                    t.action = None
                    ready = [x for x in threads if x.status is READY]
                    continue
                elif kind is AM_MASTER:
                    send = t.is_master
                elif kind is SINGLE:
                    k = single_counter.get(t.tid, 0)
                    single_counter[t.tid] = k + 1
                    send = single_winner.setdefault(k, t.tid) == t.tid
                else:
                    send = self._atomic(t, action, region)
            try:
                t.action = t.gen.send(send)
            except StopIteration:
                t.status = DONE
                t.action = None
                ready = [x for x in threads if x.status is READY]

    def _atomic(self, t: _Thread, action: tuple, region: int) -> None:
        """The indivisible read-modify-write and write actions."""
        kind, mem = action[0], self.mem
        if kind is ATOMIC_RMW_SCA:
            _, name, op, rhs = action
            self._log(t, False, ("sca", name), region)
            self._log(t, True, ("sca", name), region)
            mem.write_scalar(name, float(_arith(op, mem.read_scalar(name), rhs)))
        elif kind is ATOMIC_WRITE_SCA:
            _, name, rhs = action
            self._log(t, True, ("sca", name), region)
            mem.write_scalar(name, float(rhs))
        elif kind is ATOMIC_RMW_ARR:
            _, name, idx, op, rhs = action
            self._log(t, False, ("arr", name, idx), region)
            self._log(t, True, ("arr", name, idx), region)
            mem.write_array(name, idx, float(_arith(op, mem.read_array(name, idx), rhs)))
        else:  # ATOMIC_WRITE_ARR
            _, name, idx, rhs = action
            self._log(t, True, ("arr", name, idx), region)
            mem.write_array(name, idx, float(rhs))

    def _log(self, t: _Thread, is_write: bool, loc: tuple, region: int) -> None:
        events = self.trace.events
        events.append(MemEvent(
            len(events), t.tid, is_write, loc, t.vc.row(), t.locks, True, t.lane, region,
        ))

    def run(self) -> Trace:
        for unit in self.code.units():
            unit.run(self)
        self.trace.final_arrays = self.mem.snapshot()
        return self.trace


def execute(
    program: Program | CompiledProgram,
    n_threads: int = 2,
    schedule_seed: int = 0,
) -> Trace:
    """Run ``program`` once under the schedule seeded by ``schedule_seed``.

    Pass a :class:`CompiledProgram` to reuse its closures across calls
    (as :class:`~repro.runtime.Machine` does); a plain :class:`Program`
    is compiled for this one run.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    code = program if isinstance(program, CompiledProgram) else CompiledProgram(program)
    rng = np.random.Generator(np.random.PCG64(schedule_seed))
    trace = _Execution(code, n_threads, lemire_draws(rng)).run()
    trace.schedule_seed = schedule_seed
    return trace
