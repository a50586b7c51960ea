"""Access-pattern analysis over the kernel IR.

Extracts every scalar and array access inside a loop (or region) with its
context: read/write, the enclosing synchronization (critical / atomic /
single / master), and — for array subscripts — the affine form
``a * loopvar + b`` when one exists.  The static race checker
(:mod:`repro.detectors.llov`) and the tool-support predicates build on
these summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.openmp.ast_nodes import (
    Assign, AtomicStmt, Barrier, BinOp, CriticalSection, FlushStmt, Idx,
    IfStmt, Loop, MasterSection, Num, OrderedBlock, ParallelRegion, Seq,
    SingleSection, Var,
)


@dataclass(frozen=True)
class Affine:
    """Subscript of the form ``coef * var + const`` (integer coefficients)."""

    coef: int
    const: int

    def at(self, i: int) -> int:
        return self.coef * i + self.const


def affine_of(expr, var: str) -> Affine | None:
    """Return the affine form of ``expr`` with respect to ``var``, or
    ``None`` when the subscript is non-affine (indirect access, modulo,
    products of variables, or a different free variable)."""
    if isinstance(expr, Num):
        return Affine(0, expr.value)
    if isinstance(expr, Var):
        if expr.name == var:
            return Affine(1, 0)
        return None  # depends on another runtime variable
    if isinstance(expr, Idx):
        return None  # indirect subscript
    if isinstance(expr, BinOp):
        if expr.op == "+":
            l, r = affine_of(expr.left, var), affine_of(expr.right, var)
            if l is None or r is None:
                return None
            return Affine(l.coef + r.coef, l.const + r.const)
        if expr.op == "-":
            l, r = affine_of(expr.left, var), affine_of(expr.right, var)
            if l is None or r is None:
                return None
            return Affine(l.coef - r.coef, l.const - r.const)
        if expr.op == "*":
            l, r = affine_of(expr.left, var), affine_of(expr.right, var)
            if l is None or r is None:
                return None
            if l.coef == 0:
                return Affine(l.const * r.coef, l.const * r.const)
            if r.coef == 0:
                return Affine(r.const * l.coef, r.const * l.const)
            return None  # quadratic
        return None  # / and % are non-affine for dependence purposes
    return None


@dataclass(frozen=True)
class AccessInfo:
    """One memory access found in a region."""

    array: str  # array name, or "" for scalar accesses
    scalar: str  # scalar name, or "" for array accesses
    is_write: bool
    affine: Affine | None  # for array accesses, w.r.t. the loop variable
    index_expr: object | None
    in_critical: bool = False
    in_atomic: bool = False
    in_single_or_master: bool = False
    conditional: bool = False  # under an IfStmt

    @property
    def is_array(self) -> bool:
        return bool(self.array)

    @property
    def synchronized(self) -> bool:
        return self.in_critical or self.in_atomic or self.in_single_or_master


@dataclass
class _Ctx:
    critical: bool = False
    atomic: bool = False
    single_master: bool = False
    conditional: bool = False


def _expr_accesses(expr, var: str, ctx: _Ctx, out: list[AccessInfo]) -> None:
    """Record read accesses inside an expression."""
    if isinstance(expr, Idx):
        out.append(
            AccessInfo(
                array=expr.array, scalar="", is_write=False,
                affine=affine_of(expr.index, var), index_expr=expr.index,
                in_critical=ctx.critical, in_atomic=ctx.atomic,
                in_single_or_master=ctx.single_master, conditional=ctx.conditional,
            )
        )
        _expr_accesses(expr.index, var, ctx, out)
    elif isinstance(expr, BinOp):
        _expr_accesses(expr.left, var, ctx, out)
        _expr_accesses(expr.right, var, ctx, out)
    elif isinstance(expr, Var):
        out.append(
            AccessInfo(
                array="", scalar=expr.name, is_write=False, affine=None,
                index_expr=None, in_critical=ctx.critical, in_atomic=ctx.atomic,
                in_single_or_master=ctx.single_master, conditional=ctx.conditional,
            )
        )


def _stmt_accesses(stmt, var: str, ctx: _Ctx, out: list[AccessInfo]) -> None:
    if isinstance(stmt, Assign):
        # Compound ops read the target too.
        if stmt.op is not None:
            _expr_accesses(stmt.target, var, ctx, out)
        elif isinstance(stmt.target, Idx):
            _expr_accesses(stmt.target.index, var, ctx, out)
        _expr_accesses(stmt.expr, var, ctx, out)
        if isinstance(stmt.target, Idx):
            out.append(
                AccessInfo(
                    array=stmt.target.array, scalar="", is_write=True,
                    affine=affine_of(stmt.target.index, var), index_expr=stmt.target.index,
                    in_critical=ctx.critical, in_atomic=ctx.atomic,
                    in_single_or_master=ctx.single_master, conditional=ctx.conditional,
                )
            )
        else:
            out.append(
                AccessInfo(
                    array="", scalar=stmt.target.name, is_write=True, affine=None,
                    index_expr=None, in_critical=ctx.critical, in_atomic=ctx.atomic,
                    in_single_or_master=ctx.single_master, conditional=ctx.conditional,
                )
            )
    elif isinstance(stmt, AtomicStmt):
        inner = _Ctx(ctx.critical, True, ctx.single_master, ctx.conditional)
        _stmt_accesses(stmt.update, var, inner, out)
    elif isinstance(stmt, CriticalSection):
        inner = _Ctx(True, ctx.atomic, ctx.single_master, ctx.conditional)
        for s in stmt.body:
            _stmt_accesses(s, var, inner, out)
    elif isinstance(stmt, (MasterSection, SingleSection)):
        inner = _Ctx(ctx.critical, ctx.atomic, True, ctx.conditional)
        for s in stmt.body:
            _stmt_accesses(s, var, inner, out)
    elif isinstance(stmt, OrderedBlock):
        inner = _Ctx(True, ctx.atomic, ctx.single_master, ctx.conditional)
        for s in stmt.body:
            _stmt_accesses(s, var, inner, out)
    elif isinstance(stmt, IfStmt):
        _expr_accesses(stmt.cond, var, ctx, out)
        inner = _Ctx(ctx.critical, ctx.atomic, ctx.single_master, True)
        for s in stmt.then_body:
            _stmt_accesses(s, var, inner, out)
        if stmt.else_body is not None:
            for s in stmt.else_body:
                _stmt_accesses(s, var, inner, out)
    elif isinstance(stmt, Loop):
        # Inner serial loop: accesses analysed w.r.t. the *outer* loop var.
        _expr_accesses(stmt.lo, var, ctx, out)
        _expr_accesses(stmt.hi, var, ctx, out)
        for s in stmt.body:
            _stmt_accesses(s, var, ctx, out)
    elif isinstance(stmt, ParallelRegion):
        for s in stmt.body:
            _stmt_accesses(s, var, ctx, out)
    elif isinstance(stmt, (Barrier, FlushStmt)):
        pass
    elif isinstance(stmt, Seq):
        for s in stmt:
            _stmt_accesses(s, var, ctx, out)


def collect_accesses(loop: Loop) -> list[AccessInfo]:
    """Every memory access inside ``loop``'s body, annotated w.r.t. its
    loop variable and synchronization context."""
    out: list[AccessInfo] = []
    ctx = _Ctx()
    for stmt in loop.body:
        _stmt_accesses(stmt, loop.var, ctx, out)
    return out
