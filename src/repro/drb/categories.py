"""The 14 Table-3 categories with their labels and the paper's
evaluation-suite composition.

Totals follow §4.7.2: "177 C/C++ test programs and 166 Fortran test
programs.  Among these, 88 C/C++ and 84 Fortran test cases exhibit data
races, while 89 C/C++ and 82 Fortran test cases are free from data
races."
"""

from __future__ import annotations

from repro.datagen.pipeline import NORACE_CATEGORIES, RACE_CATEGORIES

#: category -> "yes" (has a data race) or "no".
CATEGORY_LABELS: dict[str, str] = {
    **{c: "yes" for c in RACE_CATEGORIES},
    **{c: "no" for c in NORACE_CATEGORIES},
}


def _spread(total: int, n: int) -> list[int]:
    """Distribute ``total`` across ``n`` categories as evenly as possible,
    larger shares first (deterministic)."""
    base, extra = divmod(total, n)
    return [base + (1 if k < extra else 0) for k in range(n)]


def _eval_counts() -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for lang, race_total, norace_total in (("C/C++", 88, 89), ("Fortran", 84, 82)):
        for cat, cnt in zip(RACE_CATEGORIES, _spread(race_total, len(RACE_CATEGORIES))):
            out[(lang, cat)] = cnt
        for cat, cnt in zip(NORACE_CATEGORIES, _spread(norace_total, len(NORACE_CATEGORIES))):
            out[(lang, cat)] = cnt
    return out


#: (language, category) -> number of programs in the evaluation suite.
EVAL_COUNTS: dict[tuple[str, str], int] = _eval_counts()

assert sum(v for (l, c), v in EVAL_COUNTS.items() if l == "C/C++") == 177
assert sum(v for (l, c), v in EVAL_COUNTS.items() if l == "Fortran") == 166
assert sum(
    v for (l, c), v in EVAL_COUNTS.items() if l == "C/C++" and CATEGORY_LABELS[c] == "yes"
) == 88
assert sum(
    v for (l, c), v in EVAL_COUNTS.items() if l == "Fortran" and CATEGORY_LABELS[c] == "yes"
) == 84
