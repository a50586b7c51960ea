"""Language-neutral kernel IR.

Both front ends lower to these nodes, so every consumer (interpreter,
static analyzer, token counter) is independent of the surface language.
Expressions are tiny: integers, scalar variables, array elements, binary
arithmetic, and comparisons (inside ``IfStmt`` conditions only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# -- expressions ----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % and comparisons < <= > >= == !=
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Idx:
    """Array element access ``array[index]`` / ``array(index)``."""

    array: str
    index: "Expr"

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


Expr = Union[Num, Var, BinOp, Idx]

# -- declarations -----------------------------------------------------------------


@dataclass(frozen=True)
class ScalarDecl:
    name: str
    ctype: str = "int"


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    size: int
    ctype: str = "double"


# -- statements --------------------------------------------------------------------


@dataclass
class Assign:
    """``target op= expr``; ``op`` is None for plain assignment, or one of
    ``+ - * /`` for compound updates (the form atomics take)."""

    target: Union[Var, Idx]
    expr: Expr
    op: str | None = None


@dataclass
class IfStmt:
    cond: Expr  # a comparison BinOp
    then_body: "Seq"
    else_body: "Seq | None" = None


@dataclass
class Loop:
    """Counted loop ``for (var = lo; var < hi; var += step)``.

    ``pragma`` holds an attached OpenMP directive (``parallel for``,
    ``simd``, ``target``, ...) or None for a serial loop.  ``inclusive``
    distinguishes Fortran ``do i = lo, hi`` (inclusive upper bound).
    """

    var: str
    lo: Expr
    hi: Expr
    body: "Seq"
    step: int = 1
    inclusive: bool = False
    pragma: "Pragma | None" = None  # type: ignore[name-defined]


@dataclass
class Barrier:
    pass


@dataclass
class FlushStmt:
    names: tuple[str, ...] = ()


@dataclass
class CriticalSection:
    body: "Seq"
    name: str = ""


@dataclass
class AtomicStmt:
    """``#pragma omp atomic`` guarding a single compound update."""

    update: Assign


@dataclass
class OrderedBlock:
    body: "Seq"


@dataclass
class MasterSection:
    body: "Seq"


@dataclass
class SingleSection:
    body: "Seq"
    nowait: bool = False


@dataclass
class ParallelRegion:
    """``#pragma omp parallel`` structured block (not combined with a
    loop; combined forms attach the pragma to the Loop)."""

    body: "Seq"
    pragma: "Pragma | None" = None  # type: ignore[name-defined]


@dataclass
class Seq:
    stmts: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


Stmt = Union[
    Assign, IfStmt, Loop, Barrier, FlushStmt, CriticalSection, AtomicStmt,
    OrderedBlock, MasterSection, SingleSection, ParallelRegion,
]

# -- program -------------------------------------------------------------------------


@dataclass
class Program:
    """A parsed microkernel: declarations plus top-level statements."""

    scalars: list[ScalarDecl]
    arrays: list[ArrayDecl]
    body: Seq
    language: str = "C/C++"  # or "Fortran"
    source: str = ""


def walk(node) -> list:
    """Pre-order traversal over statements and nested bodies."""
    out = [node]
    if isinstance(node, Seq):
        out = []
        for s in node.stmts:
            out.extend(walk(s))
    elif isinstance(node, Loop):
        out.extend(walk(node.body))
    elif isinstance(node, IfStmt):
        out.extend(walk(node.then_body))
        if node.else_body is not None:
            out.extend(walk(node.else_body))
    elif isinstance(node, (CriticalSection, OrderedBlock, MasterSection, SingleSection, ParallelRegion)):
        out.extend(walk(node.body))
    elif isinstance(node, AtomicStmt):
        out.append(node.update)
    return out
