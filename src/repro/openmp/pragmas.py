"""OpenMP directive and clause model.

Handles the directive kinds DataRaceBench-style kernels use and the
clause set the paper's Table-3 categories revolve around (data-sharing
clauses, reductions, SIMD, device/target, synchronization).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Directive kinds, normalised across languages ("parallel do" -> "parallel for").
DIRECTIVE_KINDS = (
    "parallel",
    "for",
    "parallel for",
    "simd",
    "parallel for simd",
    "for simd",
    "target teams distribute parallel for",
    "target teams distribute",
    "target parallel for",
    "critical",
    "atomic",
    "barrier",
    "single",
    "master",
    "ordered",
    "flush",
    "task",
    "taskwait",
)

_REDUCTION_OPS = {"+", "-", "*", "max", "min", "&&", "||", ".and.", ".or."}


@dataclass(frozen=True)
class Clause:
    """One OpenMP clause: ``kind(args)``."""

    kind: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.kind if not self.args else f"{self.kind}({', '.join(self.args)})"


@dataclass(frozen=True)
class Pragma:
    """A parsed directive with its clauses."""

    kind: str
    clauses: tuple[Clause, ...] = ()

    # -- clause accessors --------------------------------------------------

    def clause_args(self, kind: str) -> tuple[str, ...]:
        for c in self.clauses:
            if c.kind == kind:
                return c.args
        return ()

    def has_clause(self, kind: str) -> bool:
        return any(c.kind == kind for c in self.clauses)

    @property
    def private_vars(self) -> set[str]:
        return set(self.clause_args("private")) | set(self.clause_args("firstprivate")) | set(
            self.clause_args("lastprivate")
        )

    @property
    def reductions(self) -> dict[str, str]:
        """Map reduced variable -> operator."""
        out: dict[str, str] = {}
        for c in self.clauses:
            if c.kind == "reduction" and c.args:
                op = c.args[0]
                for v in c.args[1:]:
                    out[v] = op
        return out

    @property
    def nowait(self) -> bool:
        return self.has_clause("nowait")

    @property
    def num_threads(self) -> int | None:
        args = self.clause_args("num_threads")
        return int(args[0]) if args else None

    @property
    def is_target(self) -> bool:
        return "target" in self.kind.split()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = " ".join(str(c) for c in self.clauses)
        return f"omp {self.kind}" + (f" {tail}" if tail else "")


class PragmaError(ValueError):
    """Raised on unrecognisable directives."""


_CLAUSE_RE = re.compile(
    r"""
    (?P<kind>[a-z_]+)
    (?:\(\s*(?P<args>[^()]*)\s*\))?
    """,
    re.VERBOSE,
)

_KNOWN_CLAUSES = {
    "private", "firstprivate", "lastprivate", "shared", "default", "reduction",
    "schedule", "nowait", "num_threads", "collapse", "safelen", "ordered",
    "map", "device", "if", "linear", "aligned",
}


def _normalise_directive(text: str) -> str:
    """Canonicalise the directive words (Fortran ``do`` -> ``for``)."""
    words = text.split()
    words = ["for" if w == "do" else w for w in words]
    return " ".join(words)


def parse_pragma_text(text: str) -> Pragma:
    """Parse the body of a directive line.

    ``text`` is everything after ``#pragma omp`` / ``!$omp``, e.g.
    ``"parallel for private(tmp) reduction(+:sum)"``.
    """
    text = text.strip()
    if not text:
        raise PragmaError("empty directive")

    # Longest-match the directive kind against the known list.
    normalised = _normalise_directive(text)
    kind = ""
    rest = normalised
    for cand in sorted(DIRECTIVE_KINDS, key=len, reverse=True):
        if normalised == cand or normalised.startswith(cand + " ") or normalised.startswith(cand + "("):
            kind = cand
            rest = normalised[len(cand):].strip()
            break
    if not kind:
        raise PragmaError(f"unknown directive in: {text!r}")

    clauses: list[Clause] = []
    # critical(name) — treat the parenthesised name as a clause.
    if kind == "critical" and rest.startswith("("):
        m = re.match(r"\(\s*([A-Za-z_]\w*)\s*\)", rest)
        if m:
            clauses.append(Clause("name", (m.group(1),)))
            rest = rest[m.end():].strip()

    pos = 0
    while pos < len(rest):
        if rest[pos] in " ,\t":
            pos += 1
            continue
        m = _CLAUSE_RE.match(rest, pos)
        if m is None:
            raise PragmaError(f"cannot parse clause near {rest[pos:pos+20]!r}")
        ckind = m.group("kind")
        raw_args = m.group("args")
        if ckind not in _KNOWN_CLAUSES:
            raise PragmaError(f"unknown clause {ckind!r}")
        if raw_args is None:
            clauses.append(Clause(ckind))
        elif ckind == "reduction":
            if ":" not in raw_args:
                raise PragmaError(f"malformed reduction clause: {raw_args!r}")
            op, vars_part = raw_args.split(":", 1)
            op = op.strip()
            if op not in _REDUCTION_OPS:
                raise PragmaError(f"unsupported reduction operator {op!r}")
            names = tuple(v.strip() for v in vars_part.split(",") if v.strip())
            clauses.append(Clause("reduction", (op,) + names))
        elif ckind == "map":
            # map(to: a, b) / map(tofrom: c) — keep direction + names.
            parts = raw_args.split(":", 1)
            if len(parts) == 2:
                direction = parts[0].strip()
                names = tuple(v.strip() for v in parts[1].split(",") if v.strip())
                clauses.append(Clause("map", (direction,) + names))
            else:
                names = tuple(v.strip() for v in raw_args.split(",") if v.strip())
                clauses.append(Clause("map", names))
        else:
            args = tuple(v.strip() for v in raw_args.split(",") if v.strip())
            clauses.append(Clause(ckind, args))
        pos = m.end()

    return Pragma(kind, tuple(clauses))
