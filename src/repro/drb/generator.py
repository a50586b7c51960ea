"""Kernel generation: the evaluation suite and the training pool."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.drb.categories import CATEGORY_LABELS, EVAL_COUNTS
from repro.drb.params import Params
from repro.drb.templates_c import C_TEMPLATES
from repro.drb.templates_fortran import F_TEMPLATES
from repro.utils.rng import derive_rng

LANGUAGES = ("C/C++", "Fortran")


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark program with its ground truth."""

    id: str
    language: str
    category: str
    label: str  # "yes" (data race) / "no"
    source: str
    features: frozenset
    #: The parsed program, once known; excluded from equality, hash and
    #: repr (it is a function of ``source`` and ``language``).
    program: object = field(default=None, compare=False, repr=False)

    def parse(self):
        """Parse the source through the matching front end, once: the
        runtime, LLOV and the harness share the memoised program (none
        of them mutates it)."""
        if self.program is None:
            from repro.openmp import parse_c, parse_fortran

            parse = parse_c if self.language == "C/C++" else parse_fortran
            object.__setattr__(self, "program", parse(self.source))
        return self.program


def _templates_for(language: str) -> dict[str, list]:
    if language == "C/C++":
        return C_TEMPLATES
    if language == "Fortran":
        return F_TEMPLATES
    raise ValueError(f"unknown language {language!r}")


def _generate(
    language: str,
    category: str,
    count: int,
    split: str,
    seed: int,
    id_prefix: str,
) -> list[KernelSpec]:
    templates = _templates_for(language)[category]
    rng = derive_rng(seed, f"drb/{split}/{language}/{category}")
    label = CATEGORY_LABELS[category]
    specs: list[KernelSpec] = []
    seen_sources: set[str] = set()
    attempt = 0
    while len(specs) < count:
        attempt += 1
        if attempt > 60 * count:
            raise RuntimeError(
                f"cannot generate {count} distinct kernels for {language}/{category}"
            )
        template = templates[(attempt - 1) % len(templates)]
        source, features = template(Params(rng, split))
        if source in seen_sources:
            continue
        seen_sources.add(source)
        lang_tag = "C" if language == "C/C++" else "F"
        specs.append(
            KernelSpec(
                id=f"{id_prefix}-{lang_tag}-{len(specs):03d}-{_slug(category)}",
                language=language,
                category=category,
                label=label,
                source=source,
                features=features,
            )
        )
    return specs


def _slug(category: str) -> str:
    return "".join(w[0] for w in category.split()).lower()


#: Number of C/C++ evaluation kernels padded beyond the LLM token budget.
#: §4.7.2: "For C/C++, TSR is lower than existing tools, with 14 test
#: cases exceeding 8k tokens."
N_OVERSIZE_C = 14

_PAD_LINE = (
    " * extended validation harness: reference kernels, timing scaffolding,"
    " command-line parsing, residual checks, and per-thread statistics"
    " retained verbatim from the original benchmark distribution."
)


def _oversize_banner(n_lines: int = 1600) -> str:
    """A C comment block large enough to push the file past 8k BPE tokens.

    Comments are stripped by the front end, so compiler-based tools are
    unaffected — only prompt-fed LLM methods pay for the length, exactly
    the paper's mechanism.
    """
    body = "\n".join(f" * [{k:04d}]{_PAD_LINE}" for k in range(n_lines))
    return f"/*\n{body}\n */\n"


def _pad_oversize(specs: list[KernelSpec]) -> list[KernelSpec]:
    c_indices = [i for i, s in enumerate(specs) if s.language == "C/C++"]
    if len(c_indices) < N_OVERSIZE_C:
        return specs
    stride = len(c_indices) // N_OVERSIZE_C
    chosen = {c_indices[k * stride] for k in range(N_OVERSIZE_C)}
    banner = _oversize_banner()
    out: list[KernelSpec] = []
    for i, s in enumerate(specs):
        if i in chosen:
            out.append(
                KernelSpec(
                    id=s.id,
                    language=s.language,
                    category=s.category,
                    label=s.label,
                    source=banner + s.source,
                    features=s.features | {"oversize"},
                )
            )
        else:
            out.append(s)
    return out


def generate_eval_suite(seed: int = 0, pad_oversize: bool = True) -> list[KernelSpec]:
    """The paper-composition evaluation suite (177 C/C++ + 166 Fortran).

    ``pad_oversize`` embeds the 14 over-8k-token C/C++ files of §4.7.2.
    """
    specs: list[KernelSpec] = []
    for (language, category), count in EVAL_COUNTS.items():
        specs.extend(_generate(language, category, count, "eval", seed, "DRB-E"))
    if pad_oversize:
        specs = _pad_oversize(specs)
    return specs


def generate_training_pool(
    n_per_category: int = 12, seed: int = 1, languages: tuple[str, ...] = LANGUAGES
) -> list[KernelSpec]:
    """Disjoint kernels feeding the instruction-data pipeline (Table 3).

    Uses the train parameter pools (different array/scalar names and
    sizes), so no training program equals an evaluation program.
    """
    specs: list[KernelSpec] = []
    for language in languages:
        for category in _templates_for(language):
            specs.extend(
                _generate(language, category, n_per_category, "train", seed, "DRB-T")
            )
    return specs
