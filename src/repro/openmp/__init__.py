"""OpenMP mini-compiler: front ends for the C/C++ and Fortran microkernel
subset that DataRaceBench-style programs use, a language-neutral kernel
IR, the OpenMP pragma/clause model, and access-pattern analysis.

This substrate plays the role of Clang/LLVM, the Intel compiler, and
gfortran in the paper's Table 4: it turns benchmark source text into a
form that both the static race checker (:mod:`repro.detectors.llov`) and
the simulated parallel machine (:mod:`repro.runtime`) consume.
"""

from repro.openmp.ast_nodes import (
    ArrayDecl,
    Assign,
    AtomicStmt,
    Barrier,
    BinOp,
    CriticalSection,
    FlushStmt,
    IfStmt,
    Idx,
    Loop,
    MasterSection,
    Num,
    OrderedBlock,
    ParallelRegion,
    Program,
    ScalarDecl,
    Seq,
    SingleSection,
    Var,
)
from repro.openmp.pragmas import Clause, Pragma, parse_pragma_text
from repro.openmp.parser_c import CParseError, parse_c
from repro.openmp.parser_fortran import FortranParseError, parse_fortran
from repro.openmp.analysis import AccessInfo, collect_accesses

__all__ = [
    "ArrayDecl",
    "Assign",
    "AtomicStmt",
    "Barrier",
    "BinOp",
    "CriticalSection",
    "FlushStmt",
    "IfStmt",
    "Idx",
    "Loop",
    "MasterSection",
    "Num",
    "OrderedBlock",
    "ParallelRegion",
    "Program",
    "ScalarDecl",
    "Seq",
    "SingleSection",
    "Var",
    "Clause",
    "Pragma",
    "parse_pragma_text",
    "CParseError",
    "parse_c",
    "FortranParseError",
    "parse_fortran",
    "AccessInfo",
    "collect_accesses",
]
