"""The generator interpreter: the reference the compiled runtime must match.

This is the runtime as it stood before :mod:`repro.runtime.interpreter`
compiled kernels into closures: every thread is a Python generator that
re-walks the AST (``_eval``/``_exec``/``_exec_assign`` with ``isinstance``
dispatch) and yields every shared access, a dict of pending actions feeds
the exploration strategies, each strategy draws from NumPy's
``Generator.integers`` directly, and shared memory is a set of NumPy
buffers.  It keeps nothing from the production fast paths, so
``tests/runtime/test_compiled_parity.py`` can demand bit-identical traces
from them.  Only the data types (events, traces, clocks and the error
class) are shared with production.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.openmp.ast_nodes import (
    Assign, AtomicStmt, Barrier, BinOp, CriticalSection, FlushStmt, Idx,
    IfStmt, Loop, MasterSection, Num, OrderedBlock, ParallelRegion, Program,
    Seq, SingleSection, Var,
)
from repro.openmp.pragmas import Pragma
from repro.runtime.clocks import ClockBank, EpochClock
from repro.runtime.interpreter import ExecutionError, MemEvent, Trace


# ---------------------------------------------------------------------------
# Shared memory (NumPy buffers)
# ---------------------------------------------------------------------------


class SharedMemory:
    """The global (shared) state of one execution."""

    def __init__(self, program: Program) -> None:
        self.language = program.language
        self.base = 1 if program.language == "Fortran" else 0
        self.arrays: dict[str, np.ndarray] = {}
        for decl in program.arrays:
            buf = np.zeros(decl.size + self.base, dtype=np.float64)
            # Deterministic non-trivial init so value-bearing bugs show up.
            idx = np.arange(decl.size)
            if decl.ctype in ("int", "long"):
                # Integer arrays serve as index vectors: small in-bounds
                # values (with duplicates) starting at the language base.
                buf[self.base:] = self.base + (idx % 5)
            else:
                buf[self.base:] = (idx % 7) * 0.5 + 1.0
            self.arrays[decl.name] = buf
        self.scalars: dict[str, float] = {s.name: 0.0 for s in program.scalars}

    # -- array access --------------------------------------------------------

    def check_index(self, name: str, index: int) -> int:
        buf = self.arrays.get(name)
        if buf is None:
            raise KeyError(f"undeclared array {name!r}")
        # The valid window is [base, shape-1] in both languages: the C
        # buffer is exactly `size` slots, the Fortran buffer is
        # `size + 1` with slot 0 as padding that lo = 1 keeps
        # unaddressable.
        lo = self.base
        hi = buf.shape[0] - 1
        if index < lo or index > hi:
            raise IndexError(
                f"array {name!r} index {index} out of bounds [{lo}, {hi}]"
            )
        return index

    def read_array(self, name: str, index: int) -> float:
        return float(self.arrays[name][self.check_index(name, index)])

    def write_array(self, name: str, index: int, value: float) -> None:
        self.arrays[name][self.check_index(name, index)] = value

    # -- scalar access ----------------------------------------------------------

    def read_scalar(self, name: str) -> float:
        if name not in self.scalars:
            raise KeyError(f"undeclared scalar {name!r}")
        return self.scalars[name]

    def write_scalar(self, name: str, value: float) -> None:
        if name not in self.scalars:
            raise KeyError(f"undeclared scalar {name!r}")
        self.scalars[name] = value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of all arrays (tests compare end states across schedules)."""
        return {k: v.copy() for k, v in self.arrays.items()}


# ---------------------------------------------------------------------------
# Exploration strategies (direct Generator.integers draws)
# ---------------------------------------------------------------------------


def _pending_access(action) -> tuple | None:
    """(location, is_write) the action is about to perform, else None."""
    if action is None:
        return None
    kind = action[0]
    if kind in ("read_sca", "write_sca", "atomic_rmw_sca", "atomic_write_sca"):
        return ("sca", action[1]), kind != "read_sca"
    if kind in ("read_arr", "write_arr", "atomic_rmw_arr", "atomic_write_arr"):
        return ("arr", action[1], action[2]), kind != "read_arr"
    return None


class ScheduleStrategy:
    """Base picker; subclasses choose one thread from ``ready``."""

    name = "abstract"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def pick(self, ready: list, pending: dict):
        raise NotImplementedError


class RandomStrategy(ScheduleStrategy):
    """Uniform random ready thread — the seed scheduler, exactly
    (same RNG draw per scheduling point, so traces are bit-identical
    to the pre-strategy machine)."""

    name = "random"

    def pick(self, ready: list, pending: dict):
        return ready[int(self.rng.integers(len(ready)))]


class _LruMixin(ScheduleStrategy):
    """Shared least-recently-run bookkeeping."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self._step = 0
        self._last_run: dict = {}
        # Seed-derived bias so different schedule seeds explore
        # different rotations of the same policy.
        self._offset = int(rng.integers(1 << 16))

    def _lru(self, candidates: list):
        self._step += 1
        last = self._last_run
        chosen = min(
            range(len(candidates)),
            key=lambda i: (last.get(candidates[i].tid, -1),
                           (i + self._offset) % len(candidates)),
        )
        t = candidates[chosen]
        last[t.tid] = self._step
        return t


class RoundRobinStrategy(_LruMixin):
    """Always run the thread that has waited longest: maximal
    interleaving at memory-operation granularity."""

    name = "round_robin"

    def pick(self, ready: list, pending: dict):
        return self._lru(ready)


class ChunkedStrategy(ScheduleStrategy):
    """Run the current thread for a burst (chunk) of steps before
    picking a new one at random — coarse preemption, like an OS
    quantum much larger than one memory access."""

    name = "chunked"

    def __init__(self, rng: np.random.Generator, chunk: int | None = None) -> None:
        super().__init__(rng)
        self.chunk = int(chunk) if chunk else 4 + int(rng.integers(13))
        self._current = None
        self._budget = 0

    def pick(self, ready: list, pending: dict):
        if self._current is not None and self._budget > 0:
            for t in ready:
                if t.tid == self._current:
                    self._budget -= 1
                    return t
        t = ready[int(self.rng.integers(len(ready)))]
        self._current = t.tid
        self._budget = self.chunk - 1
        return t


class AdversarialStrategy(_LruMixin):
    """Preempt at conflicting accesses.

    When at least two ready threads have pending accesses to the same
    location and one of those accesses is a write, restrict the pick to
    those threads and alternate among them (least-recently-run first):
    the conflicting accesses execute back to back, the interleaving
    most likely to flip value-dependent control flow and manifest the
    racy path.  With no pending conflict it degrades to round-robin,
    itself a strong perturbation of the seed's uniform policy.
    """

    name = "adversarial"

    def pick(self, ready: list, pending: dict):
        by_loc: dict = {}
        for t in ready:
            acc = _pending_access(pending.get(t.tid))
            if acc is not None:
                by_loc.setdefault(acc[0], []).append((t, acc[1]))
        for group in by_loc.values():
            if len(group) >= 2 and any(w for _, w in group):
                return self._lru([t for t, _ in group])
        return self._lru(ready)


SCHEDULE_STRATEGIES: dict[str, type] = {
    cls.name: cls
    for cls in (RandomStrategy, RoundRobinStrategy, ChunkedStrategy, AdversarialStrategy)
}


def make_strategy(name: str, rng: np.random.Generator) -> ScheduleStrategy:
    try:
        cls = SCHEDULE_STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(SCHEDULE_STRATEGIES))
        raise ValueError(f"unknown schedule strategy {name!r} (known: {known})") from None
    return cls(rng)


# ---------------------------------------------------------------------------
# Expression / statement evaluation (generator-based)
# ---------------------------------------------------------------------------


class _Env:
    """Per-thread environment: private variables shadow shared memory."""

    __slots__ = ("locals",)

    def __init__(self, locals_: dict | None = None) -> None:
        self.locals: dict = locals_ or {}


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


def _arith(op: str, a, b):
    both_int = isinstance(a, int) and isinstance(b, int)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if both_int:
            if b == 0:
                raise ExecutionError("integer division by zero")
            # C truncates toward zero.  Pure integer form: floating
            # `int(a / b)` silently loses precision past 2**53.
            return a // b if (a < 0) == (b < 0) else -(-a // b)
        if b == 0:
            raise ExecutionError("division by zero")
        return a / b
    if op == "%":
        if not both_int:
            raise ExecutionError("modulo requires integer operands")
        if b == 0:
            raise ExecutionError("modulo by zero")
        # C remainder: a == (a/b)*b + a%b with truncating division, so
        # the result carries the dividend's sign.  Integer-only again.
        q = a // b if (a < 0) == (b < 0) else -(-a // b)
        return a - b * q
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    raise ExecutionError(f"unknown operator {op!r}")


def _eval(expr, env: _Env):
    """Generator evaluating ``expr``; yields actions, returns the value."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name in env.locals:
            return env.locals[expr.name]
        value = yield ("read_sca", expr.name)
        return value
    if isinstance(expr, Idx):
        idx = _as_index((yield from _eval(expr.index, env)))
        value = yield ("read_arr", expr.array, idx)
        return value
    if isinstance(expr, BinOp):
        left = yield from _eval(expr.left, env)
        right = yield from _eval(expr.right, env)
        return _arith(expr.op, left, right)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _exec(stmt, env: _Env):
    """Generator executing one statement."""
    if isinstance(stmt, Assign):
        yield from _exec_assign(stmt, env, atomic=False)
    elif isinstance(stmt, AtomicStmt):
        yield from _exec_assign(stmt.update, env, atomic=True)
    elif isinstance(stmt, Seq):
        for s in stmt:
            yield from _exec(s, env)
    elif isinstance(stmt, IfStmt):
        cond = yield from _eval(stmt.cond, env)
        if cond:
            yield from _exec(stmt.then_body, env)
        elif stmt.else_body is not None:
            yield from _exec(stmt.else_body, env)
    elif isinstance(stmt, Loop):
        if stmt.pragma is not None:
            raise ExecutionError("nested parallel constructs are not supported")
        lo = _as_index((yield from _eval(stmt.lo, env)))
        hi = _as_index((yield from _eval(stmt.hi, env)))
        stop = hi + 1 if stmt.inclusive else hi
        saved = stmt.var in env.locals
        old = env.locals.get(stmt.var)
        for i in range(lo, stop, stmt.step):
            env.locals[stmt.var] = i
            yield from _exec(stmt.body, env)
        if saved:
            env.locals[stmt.var] = old
        else:
            env.locals.pop(stmt.var, None)
    elif isinstance(stmt, CriticalSection):
        lock = f"$critical:{stmt.name or '<anon>'}"
        yield ("acquire", lock)
        try:
            yield from _exec(stmt.body, env)
        finally:
            yield ("release", lock)
    elif isinstance(stmt, OrderedBlock):
        yield ("acquire", "$ordered")
        try:
            yield from _exec(stmt.body, env)
        finally:
            yield ("release", "$ordered")
    elif isinstance(stmt, Barrier):
        yield ("barrier",)
    elif isinstance(stmt, FlushStmt):
        pass  # memory model noise; no scheduling effect in this machine
    elif isinstance(stmt, MasterSection):
        am_master = yield ("am_master",)
        if am_master:
            yield from _exec(stmt.body, env)
    elif isinstance(stmt, SingleSection):
        chosen = yield ("single",)
        if chosen:
            yield from _exec(stmt.body, env)
        if not stmt.nowait:
            yield ("barrier",)
    elif isinstance(stmt, ParallelRegion):
        raise ExecutionError("nested parallel regions are not supported")
    else:
        raise ExecutionError(f"cannot execute {stmt!r}")


def _exec_assign(stmt: Assign, env: _Env, atomic: bool):
    if atomic and not (stmt.op is not None or isinstance(stmt.expr, BinOp)):
        # `#pragma omp atomic write` style plain store — still indivisible.
        pass
    if isinstance(stmt.target, Var):
        name = stmt.target.name
        if name in env.locals:
            # Private variable: no shared events at all.
            rhs = yield from _eval(stmt.expr, env)
            if stmt.op is None:
                env.locals[name] = rhs
            else:
                env.locals[name] = _arith(stmt.op, env.locals[name], rhs)
            return
        if atomic:
            # Fortran-style `s = s + x(i)` under atomic: evaluate the RHS
            # reads normally, then commit the RMW indivisibly.
            if stmt.op is None and isinstance(stmt.expr, BinOp) and (
                isinstance(stmt.expr.left, Var) and stmt.expr.left.name == name
            ):
                rhs = yield from _eval(stmt.expr.right, env)
                yield ("atomic_rmw_sca", name, stmt.expr.op, rhs)
                return
            if stmt.op is not None:
                rhs = yield from _eval(stmt.expr, env)
                yield ("atomic_rmw_sca", name, stmt.op, rhs)
                return
            rhs = yield from _eval(stmt.expr, env)
            yield ("atomic_write_sca", name, rhs)
            return
        rhs = yield from _eval(stmt.expr, env)
        if stmt.op is not None:
            current = yield ("read_sca", name)
            rhs = _arith(stmt.op, current, rhs)
        yield ("write_sca", name, rhs)
        return

    # Array element target.
    idx = _as_index((yield from _eval(stmt.target.index, env)))
    name = stmt.target.array
    if atomic:
        if stmt.op is not None:
            rhs = yield from _eval(stmt.expr, env)
            yield ("atomic_rmw_arr", name, idx, stmt.op, rhs)
            return
        if (
            isinstance(stmt.expr, BinOp)
            and isinstance(stmt.expr.left, Idx)
            and stmt.expr.left.array == name
        ):
            rhs = yield from _eval(stmt.expr.right, env)
            yield ("atomic_rmw_arr", name, idx, stmt.expr.op, rhs)
            return
        rhs = yield from _eval(stmt.expr, env)
        yield ("atomic_write_arr", name, idx, rhs)
        return
    rhs = yield from _eval(stmt.expr, env)
    if stmt.op is not None:
        current = yield ("read_arr", name, idx)
        rhs = _arith(stmt.op, current, rhs)
    yield ("write_arr", name, idx, rhs)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

_REDUCTION_INIT = {"+": 0.0, "-": 0.0, "*": 1.0, "max": -np.inf, "min": np.inf}


class _Thread:
    __slots__ = ("tid", "gen", "vc", "locks", "status", "send_value", "wait_lock", "is_master", "lane")

    def __init__(self, tid, gen, vc: EpochClock, is_master: bool = False, lane: bool = False) -> None:
        self.tid = tid
        self.gen = gen
        self.vc = vc
        self.locks: set[str] = set()
        self.status = "ready"  # ready | blocked | barrier | done
        self.send_value = None
        self.wait_lock: str | None = None
        self.is_master = is_master
        self.lane = lane


class _Scheduler:
    """Runs one team of threads to completion under one exploration
    strategy (the seed behaviour is ``strategy="random"``)."""

    def __init__(
        self,
        mem: SharedMemory,
        trace: Trace,
        strategy: ScheduleStrategy,
        region: int,
        seq_counter: itertools.count,
    ) -> None:
        self.mem = mem
        self.trace = trace
        self.strategy = strategy
        self.region = region
        self.seq = seq_counter
        self.bank: ClockBank = trace.clock_bank
        self.lock_vcs: dict[str, list[int]] = {}  # raw clock snapshots
        self.lock_owner: dict[str, object] = {}
        self.lock_waiters: dict[str, list[_Thread]] = {}
        self.single_winner: dict[int, object] = {}
        self.single_counter: dict[object, int] = {}

    # -- event logging -------------------------------------------------------

    def _log(self, t: _Thread, is_write: bool, loc: tuple, atomic: bool = False) -> None:
        # One interned row per sync interval instead of a dict copy per
        # event: vc.row() only allocates when the clock changed.
        self.trace.events.append(
            MemEvent(
                seq=next(self.seq),
                tid=t.tid,
                is_write=is_write,
                loc=loc,
                clock_row=t.vc.row(),
                locks=frozenset(t.locks),
                atomic=atomic,
                lane=t.lane,
                region=self.region,
            )
        )

    # -- action processing ------------------------------------------------------

    def _process(self, t: _Thread, action: tuple) -> bool:
        """Apply ``action``; returns True if the thread stays ready (its
        ``send_value`` holds the resume payload)."""
        kind = action[0]
        mem = self.mem
        if kind == "read_sca":
            name = action[1]
            self._log(t, False, ("sca", name))
            t.send_value = mem.read_scalar(name)
            return True
        if kind == "write_sca":
            _, name, value = action
            self._log(t, True, ("sca", name))
            mem.write_scalar(name, float(value))
            t.send_value = None
            return True
        if kind == "read_arr":
            _, name, idx = action
            self._log(t, False, ("arr", name, idx))
            t.send_value = mem.read_array(name, idx)
            return True
        if kind == "write_arr":
            _, name, idx, value = action
            self._log(t, True, ("arr", name, idx))
            mem.write_array(name, idx, float(value))
            t.send_value = None
            return True
        if kind == "atomic_rmw_sca":
            _, name, op, rhs = action
            self._log(t, False, ("sca", name), atomic=True)
            self._log(t, True, ("sca", name), atomic=True)
            mem.write_scalar(name, float(_arith(op, mem.read_scalar(name), rhs)))
            t.send_value = None
            return True
        if kind == "atomic_write_sca":
            _, name, rhs = action
            self._log(t, True, ("sca", name), atomic=True)
            mem.write_scalar(name, float(rhs))
            t.send_value = None
            return True
        if kind == "atomic_rmw_arr":
            _, name, idx, op, rhs = action
            self._log(t, False, ("arr", name, idx), atomic=True)
            self._log(t, True, ("arr", name, idx), atomic=True)
            mem.write_array(name, idx, float(_arith(op, mem.read_array(name, idx), rhs)))
            t.send_value = None
            return True
        if kind == "atomic_write_arr":
            _, name, idx, rhs = action
            self._log(t, True, ("arr", name, idx), atomic=True)
            mem.write_array(name, idx, float(rhs))
            t.send_value = None
            return True
        if kind == "acquire":
            name = action[1]
            owner = self.lock_owner.get(name)
            if owner is None:
                self.lock_owner[name] = t.tid
                t.locks.add(name)
                lvc = self.lock_vcs.get(name)
                if lvc is not None:
                    t.vc.join(lvc)
                t.send_value = None
                return True
            t.status = "blocked"
            t.wait_lock = name
            self.lock_waiters.setdefault(name, []).append(t)
            return False
        if kind == "release":
            name = action[1]
            if self.lock_owner.get(name) != t.tid:
                raise ExecutionError(f"thread {t.tid} released lock {name!r} it does not own")
            self.lock_vcs[name] = t.vc.snapshot()
            t.vc.tick(t.tid)
            t.locks.discard(name)
            del self.lock_owner[name]
            waiters = self.lock_waiters.get(name)
            if waiters:
                nxt = waiters.pop(0)
                self.lock_owner[name] = nxt.tid
                nxt.locks.add(name)
                nxt.vc.join(self.lock_vcs[name])
                nxt.status = "ready"
                nxt.wait_lock = None
                nxt.send_value = None
            t.send_value = None
            return True
        if kind == "barrier":
            t.status = "barrier"
            return False
        if kind == "am_master":
            t.send_value = t.is_master
            return True
        if kind == "single":
            k = self.single_counter.get(t.tid, 0)
            self.single_counter[t.tid] = k + 1
            winner = self.single_winner.setdefault(k, t.tid)
            t.send_value = winner == t.tid
            return True
        raise ExecutionError(f"unknown action {kind!r}")

    # -- the scheduling loop --------------------------------------------------------

    def run(self, threads: list[_Thread]) -> None:
        # Start every generator to its first action.
        pending: dict[object, tuple | None] = {}
        for t in threads:
            try:
                pending[t.tid] = t.gen.send(None)
            except StopIteration:
                t.status = "done"
                pending[t.tid] = None

        def ready_threads() -> list[_Thread]:
            return [t for t in threads if t.status == "ready"]

        while any(t.status != "done" for t in threads):
            ready = ready_threads()
            if not ready:
                waiting = [t for t in threads if t.status == "barrier"]
                live = [t for t in threads if t.status != "done"]
                if waiting and len(waiting) == len(live):
                    # Barrier release: join clocks, tick, resume everyone.
                    merged = EpochClock(self.bank)
                    for t in threads:
                        merged.join(t.vc.values)
                    for t in waiting:
                        t.vc = merged.copy()
                        t.vc.tick(t.tid)
                        t.status = "ready"
                        t.send_value = None
                    continue
                raise ExecutionError(
                    "deadlock: no runnable thread "
                    f"(states: {[(t.tid, t.status) for t in threads]})"
                )
            t = self.strategy.pick(ready, pending)
            action = pending[t.tid]
            if action is None:
                # Thread resumed after block; pull the next action.
                try:
                    pending[t.tid] = t.gen.send(t.send_value)
                except StopIteration:
                    t.status = "done"
                continue
            stays_ready = self._process(t, action)
            if stays_ready:
                try:
                    pending[t.tid] = t.gen.send(t.send_value)
                except StopIteration:
                    t.status = "done"
            else:
                pending[t.tid] = None  # re-armed when unblocked


# ---------------------------------------------------------------------------
# Top-level execution
# ---------------------------------------------------------------------------


class _MasterContext:
    """Serial execution of top-level statements plus team spawning."""

    def __init__(self, program: Program, n_threads: int, strategy: ScheduleStrategy) -> None:
        self.program = program
        self.mem = SharedMemory(program)
        self.n_threads = n_threads
        self.strategy = strategy
        self.bank = ClockBank()
        self.trace = Trace(n_threads=n_threads, clock_bank=self.bank)
        self.master_vc = EpochClock(self.bank)
        self.master_vc.tick("master")
        self.seq = itertools.count()
        self.region_counter = itertools.count()

    # Serial driver: drains a generator, applying memory actions directly
    # (no events — serial code cannot race).
    def _drain(self, gen) -> None:
        send = None
        while True:
            try:
                action = gen.send(send)
            except StopIteration:
                return
            kind = action[0]
            mem = self.mem
            if kind == "read_sca":
                send = mem.read_scalar(action[1])
            elif kind == "write_sca":
                mem.write_scalar(action[1], float(action[2]))
                send = None
            elif kind == "read_arr":
                send = mem.read_array(action[1], action[2])
            elif kind == "write_arr":
                mem.write_array(action[1], action[2], float(action[3]))
                send = None
            elif kind in ("atomic_rmw_sca", "atomic_rmw_arr", "atomic_write_sca", "atomic_write_arr"):
                # Serial atomics reduce to plain ops.
                if kind == "atomic_rmw_sca":
                    _, name, op, rhs = action
                    mem.write_scalar(name, float(_arith(op, mem.read_scalar(name), rhs)))
                elif kind == "atomic_write_sca":
                    mem.write_scalar(action[1], float(action[2]))
                elif kind == "atomic_rmw_arr":
                    _, name, idx, op, rhs = action
                    mem.write_array(name, idx, float(_arith(op, mem.read_array(name, idx), rhs)))
                else:
                    mem.write_array(action[1], action[2], float(action[3]))
                send = None
            elif kind in ("acquire", "release", "barrier", "am_master", "single"):
                send = True if kind in ("am_master", "single") else None
            else:
                raise ExecutionError(f"unknown serial action {kind!r}")

    # -- spawning ------------------------------------------------------------

    def _make_env(self, pragma: Pragma, tid, loop_var: str | None) -> tuple[_Env, dict]:
        """Build the thread-private environment and reduction accumulators."""
        env = _Env({})
        reductions = pragma.reductions if pragma else {}
        for v in (pragma.private_vars if pragma else set()):
            if v in set(pragma.clause_args("firstprivate")):
                env.locals[v] = self.mem.read_scalar(v)
            else:
                env.locals[v] = 0
        for v, op in reductions.items():
            if op not in _REDUCTION_INIT:
                raise ExecutionError(f"unsupported reduction operator {op!r}")
            env.locals[v] = _REDUCTION_INIT[op]
        if loop_var is not None:
            env.locals[loop_var] = 0  # loop variable is always private
        return env, reductions

    def _run_team(self, thread_specs: list[tuple[object, object, bool]], region: int) -> list[_Thread]:
        """thread_specs: (tid, generator, lane_flag)."""
        threads = []
        for tid, gen, lane in thread_specs:
            vc = self.master_vc.copy()
            vc.tick(tid)
            threads.append(_Thread(tid, gen, vc, is_master=(tid == 0), lane=lane))
        sched = _Scheduler(self.mem, self.trace, self.strategy, region, self.seq)
        sched.run(threads)
        for t in threads:
            self.master_vc.join(t.vc.values)
        self.master_vc.tick("master")
        return threads

    def _commit_reductions(
        self, envs: list[_Env], reductions: dict[str, str]
    ) -> None:
        for name, op in reductions.items():
            acc = self.mem.read_scalar(name)
            for env in envs:
                acc = float(_arith(op, acc, env.locals[name]))
            self.mem.write_scalar(name, acc)

    # -- construct execution ------------------------------------------------------

    def _collapse_space(self, loop: Loop) -> tuple[list, list[str], "Seq"]:
        """Flatten a ``collapse(2)`` nest into (index tuples, vars, body)."""
        from repro.openmp.ast_nodes import Seq as _Seq

        inner_stmts = [s for s in loop.body]
        if len(inner_stmts) != 1 or not isinstance(inner_stmts[0], Loop):
            raise ExecutionError("collapse(2) requires a perfectly nested inner loop")
        inner = inner_stmts[0]
        if inner.pragma is not None:
            raise ExecutionError("collapse over a directive-bearing inner loop")
        lo1 = self._eval_serial(loop.lo)
        hi1 = self._eval_serial(loop.hi)
        stop1 = hi1 + 1 if loop.inclusive else hi1
        lo2 = self._eval_serial(inner.lo)
        hi2 = self._eval_serial(inner.hi)
        stop2 = hi2 + 1 if inner.inclusive else hi2
        space = [
            (i, j)
            for i in range(lo1, stop1, loop.step)
            for j in range(lo2, stop2, inner.step)
        ]
        return space, [loop.var, inner.var], inner.body

    def run_parallel_loop(self, loop: Loop) -> None:
        pragma = loop.pragma
        assert pragma is not None
        region = next(self.region_counter)
        self.trace.regions = region + 1

        if pragma.kind == "simd":
            lo = self._eval_serial(loop.lo)
            hi = self._eval_serial(loop.hi)
            stop = hi + 1 if loop.inclusive else hi
            self._run_simd(loop, lo, stop, region)
            return

        collapse_args = pragma.clause_args("collapse")
        if collapse_args and int(collapse_args[0]) >= 2:
            if int(collapse_args[0]) != 2:
                raise ExecutionError("only collapse(2) is supported")
            space, loop_vars, body = self._collapse_space(loop)
        else:
            lo = self._eval_serial(loop.lo)
            hi = self._eval_serial(loop.hi)
            stop = hi + 1 if loop.inclusive else hi
            space = [(i,) for i in range(lo, stop, loop.step)]
            loop_vars, body = [loop.var], loop.body

        n = pragma.num_threads or self.n_threads
        device = pragma.is_target
        sched_args = pragma.clause_args("schedule")
        dynamic = bool(sched_args) and sched_args[0] == "dynamic"
        dyn_chunk = int(sched_args[1]) if dynamic and len(sched_args) > 1 else 1

        specs = []
        envs = []
        reductions: dict[str, str] = {}

        def assign(env: _Env, point) -> None:
            for var, value in zip(loop_vars, point):
                env.locals[var] = value

        if dynamic:
            # Work queue: threads pull chunks as they go.  Pops happen
            # between yields, so they are atomic under the cooperative
            # scheduler — exactly the runtime's internal synchronisation,
            # which (like reductions) produces no user-visible events.
            queue: list = list(space)

            def worker_dyn(env: _Env):
                def gen():
                    while queue:
                        grabbed = queue[:dyn_chunk]
                        del queue[:dyn_chunk]
                        for point in grabbed:
                            assign(env, point)
                            yield from _exec(body, env)
                return gen()

            for k in range(n):
                env, reductions = self._make_env(pragma, k, None)
                for var in loop_vars:
                    env.locals[var] = 0
                envs.append(env)
                tid = ("dev", k) if device else k
                specs.append((tid, worker_dyn(env), False))
        else:
            chunk_size = (len(space) + n - 1) // n if space else 0
            chunks = [
                space[k * chunk_size : (k + 1) * chunk_size] if space else []
                for k in range(n)
            ]

            def worker_static(chunk: list, env: _Env):
                def gen():
                    for point in chunk:
                        assign(env, point)
                        yield from _exec(body, env)
                return gen()

            for k in range(n):
                env, reductions = self._make_env(pragma, k, None)
                for var in loop_vars:
                    env.locals[var] = 0
                envs.append(env)
                tid = ("dev", k) if device else k
                specs.append((tid, worker_static(chunks[k], env), False))

        self._run_team(specs, region)
        self._commit_reductions(envs, reductions)

    def _run_simd(self, loop: Loop, lo: int, stop: int, region: int) -> None:
        pragma = loop.pragma
        safelen_args = pragma.clause_args("safelen")
        vl = int(safelen_args[0]) if safelen_args else 4
        iters = list(range(lo, stop, loop.step))
        n_chunks = (len(iters) + vl - 1) // vl
        envs = []
        specs = []
        reductions: dict[str, str] = {}

        def lane_worker(lane: int, env: _Env):
            def gen():
                for c in range(n_chunks):
                    pos = c * vl + lane
                    if pos < len(iters):
                        env.locals[loop.var] = iters[pos]
                        yield from _exec(loop.body, env)
                    yield ("barrier",)  # end of the vector step
            return gen()

        for lane in range(vl):
            env, reductions = self._make_env(pragma, lane, loop.var)
            envs.append(env)
            specs.append((("lane", lane), lane_worker(lane, env), True))
        self._run_team(specs, region)
        self._commit_reductions(envs, reductions)

    def run_parallel_region(self, node: ParallelRegion) -> None:
        pragma = node.pragma
        region = next(self.region_counter)
        self.trace.regions = region + 1
        n = (pragma.num_threads if pragma else None) or self.n_threads
        specs = []
        envs = []
        reductions: dict[str, str] = {}

        def worker(env: _Env):
            def gen():
                yield from _exec(node.body, env)
            return gen()

        for k in range(n):
            env, reductions = self._make_env(pragma or Pragma("parallel"), k, None)
            envs.append(env)
            specs.append((k, worker(env), False))
        self._run_team(specs, region)
        self._commit_reductions(envs, reductions)

    # -- serial helpers ----------------------------------------------------------

    def _eval_serial(self, expr) -> int:
        box: list = []

        def gen():
            value = yield from _eval(expr, _Env({}))
            box.append(value)

        self._drain(gen())
        return _as_index(box[0])

    def run(self) -> Trace:
        for stmt in self.program.body:
            if isinstance(stmt, Loop) and stmt.pragma is not None:
                kind = stmt.pragma.kind
                if kind == "simd" or "for" in kind.split() or kind.startswith("target"):
                    self.run_parallel_loop(stmt)
                    continue
                raise ExecutionError(f"unsupported loop directive {kind!r}")
            elif isinstance(stmt, ParallelRegion):
                self.run_parallel_region(stmt)
            else:
                self._drain(_exec(stmt, _Env({})))
        self.trace.final_arrays = self.mem.snapshot()
        return self.trace


def execute_reference(
    program: Program,
    n_threads: int = 2,
    schedule_seed: int = 0,
    strategy: str = "random",
) -> Trace:
    """Run ``program`` once under a seeded exploration strategy.

    ``strategy="random"`` reproduces the seed machine bit for bit; see
    :mod:`repro.runtime.schedules` for the other policies.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    rng = np.random.Generator(np.random.PCG64(schedule_seed))
    ctx = _MasterContext(program, n_threads, make_strategy(strategy, rng))
    trace = ctx.run()
    trace.schedule_seed = schedule_seed
    trace.schedule_strategy = strategy
    return trace
