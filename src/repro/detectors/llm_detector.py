"""LLM-based race detection methods.

All six LLM rows of Table 5 share one mechanism: build the Table-1
instruction prompt for the program, obtain a yes/no answer, and respect
an 8k-token context budget (programs whose prompt exceeds it are
*unsupported* — the TSR mechanism of §4.7.2 / §5).

The methods differ in who answers:

* :class:`LLMBaseModelDetector` — an *actual* tiny pretrained base model
  (the LLaMA / LLaMA-2 sims): the prompt is formatted, the model decodes
  greedily, and the first yes/no in the output is taken.  Base models
  lack HPC knowledge, so answers hover near chance with a yes bias —
  reproducing the paper's LLaMA rows (high recall, terrible specificity).
* :class:`HPCGPTDetector` — the same mechanism over a *fine-tuned*
  model (HPC-GPT L1/L2); accuracy comes entirely from SFT.
* :class:`GPTHeuristicDetector` — the commercial comparators (GPT-3.5 /
  GPT-4), which we cannot run.  Simulated as calibrated prompt-level
  reasoners: keyword/pattern heuristics of differing sophistication with
  a deterministic per-program error channel.  Documented in DESIGN.md.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.datagen.prompts import race_instruction
from repro.detectors.base import Detector, ToolResult, Verdict
from repro.drb.generator import KernelSpec
from repro.llm.chat import ChatFormat
from repro.llm.engine import InferenceEngine
from repro.llm.model import CausalLM
from repro.runtime.interpreter import Trace
from repro.tokenizer import BPETokenizer
from repro.utils.text import stable_hash

#: The context budget of §4.7.2 ("an 8k token constraint").
TOKEN_BUDGET = 8192

_YES_NO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def race_prompt(spec: KernelSpec) -> str:
    """The full detection prompt for one program."""
    return race_instruction(spec.source, spec.language)


def parse_yes_no(text: str) -> str:
    """First standalone yes/no in the model output (LLMs often wrap the
    answer in a sentence); "yes" when the output contains neither,
    mirroring the yes-bias of base models."""
    m = _YES_NO_RE.search(text)
    return m.group(1).lower() if m else "yes"


class _TokenBudgetMixin(Detector):
    """Shared support predicate: prompt must fit the 8k context."""

    kind = "llm"

    def __init__(self, tokenizer: BPETokenizer) -> None:
        self.tokenizer = tokenizer
        self._count_cache: dict[str, int] = {}

    def prompt_tokens(self, spec: KernelSpec) -> int:
        cached = self._count_cache.get(spec.id)
        if cached is None:
            cached = self.tokenizer.token_count(race_prompt(spec))
            self._count_cache[spec.id] = cached
        return cached

    def supports(self, spec: KernelSpec) -> bool:
        return self.prompt_tokens(spec) <= TOKEN_BUDGET

    def detect_many(self, specs: list[KernelSpec]) -> list[Verdict]:
        """Verdicts for a batch of supported programs.  The default loops
        :meth:`detect`; engine-backed detectors batch the whole list."""
        return [self.detect(spec) for spec in specs]

    def run_many(
        self,
        specs: list[KernelSpec],
        traces_list: "list[Iterable[Trace] | None] | None" = None,
    ) -> list[ToolResult]:
        """Support checks, then one :meth:`detect_many` call over the
        supported programs (LLM detectors ignore traces)."""
        results = [ToolResult(self.name, spec.id, Verdict.UNSUPPORTED) for spec in specs]
        supported = [i for i, spec in enumerate(specs) if self.supports(spec)]
        if supported:
            verdicts = self.detect_many([specs[i] for i in supported])
            for i, verdict in zip(supported, verdicts):
                if not isinstance(verdict, Verdict):
                    raise TypeError(f"{self.name}.detect_many returned {verdict!r}")
                results[i] = ToolResult(self.name, specs[i].id, verdict)
        return results


class LLMBaseModelDetector(_TokenBudgetMixin):
    """Zero-shot detection with an actual (untuned) base model.

    The base model answers free-form; the first yes/no in its decoded
    output is taken (defaulting to "yes" when neither appears, the
    yes-bias the paper's LLaMA rows show)."""

    def __init__(self, name: str, model: CausalLM, tokenizer: BPETokenizer) -> None:
        super().__init__(tokenizer)
        self.name = name
        self.model = model
        self.chat = ChatFormat(tokenizer)
        self.engine = InferenceEngine(model, tokenizer)

    def _prompt_ids(self, spec: KernelSpec) -> list[int]:
        prompt_ids = self.chat.prompt_ids(race_prompt(spec))
        limit = self.model.config.max_seq_len - 16
        return prompt_ids[-limit:] if len(prompt_ids) > limit else prompt_ids

    def detect(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> Verdict:
        return self.detect_many([spec])[0]

    def detect_many(self, specs: list[KernelSpec]) -> list[Verdict]:
        outs = self.engine.generate_many(
            [self._prompt_ids(s) for s in specs], max_new_tokens=8
        )
        return [
            Verdict.RACE if parse_yes_no(self.tokenizer.decode(o)) == "yes" else Verdict.NO_RACE
            for o in outs
        ]


class HPCGPTDetector(_TokenBudgetMixin):
    """The paper's contribution behind the detector interface.

    The fine-tuned model is trained to emit exactly "yes"/"no", so
    detection compares the two answer-token logits (a calibrated margin
    threshold, fitted on the *training* split, absorbs any global class
    bias — standard practice for classifier heads)."""

    def __init__(
        self,
        name: str,
        model: CausalLM,
        tokenizer: BPETokenizer,
        threshold: float = 0.0,
    ) -> None:
        super().__init__(tokenizer)
        self.name = name
        self.model = model
        self.threshold = threshold
        self.engine = InferenceEngine(model, tokenizer)

    def detect(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> Verdict:
        return self.detect_many([spec])[0]

    def detect_many(self, specs: list[KernelSpec]) -> list[Verdict]:
        margins = self.engine.yes_no_margins([race_prompt(s) for s in specs])
        return [
            Verdict.RACE if m >= self.threshold else Verdict.NO_RACE for m in margins
        ]


class ChunkedHPCGPTDetector(HPCGPTDetector):
    """§5's proposed mitigation for the token limit: "devise a
    pre-processing or partitioning mechanism to break down large code
    snippets into smaller, manageable segments that fit within the token
    limit ... analyze each segment individually and then combine the
    results".

    The source is split on line boundaries into segments whose prompts
    fit the budget; the program is racy iff any segment's margin crosses
    the threshold.  With chunking, no program is unsupported (TSR 1.0).
    """

    def __init__(
        self,
        name: str,
        model: CausalLM,
        tokenizer: BPETokenizer,
        threshold: float = 0.0,
        budget: int = TOKEN_BUDGET,
    ) -> None:
        super().__init__(name, model, tokenizer, threshold)
        self.budget = budget

    def supports(self, spec: KernelSpec) -> bool:
        return True  # chunking removes the limit

    def _segments(self, source: str) -> list[str]:
        # Overhead of the instruction wrapper, measured once.
        wrapper = self.tokenizer.token_count(race_instruction("", "C/C++"))
        room = max(64, self.budget - wrapper)
        lines = source.splitlines(keepends=True)
        segments: list[str] = []
        current: list[str] = []
        used = 0
        for line in lines:
            cost = self.tokenizer.token_count(line)
            if current and used + cost > room:
                segments.append("".join(current))
                current, used = [], 0
            current.append(line)
            used += cost
        if current:
            segments.append("".join(current))
        return segments

    def detect_many(self, specs: list[KernelSpec]) -> list[Verdict]:
        # Flatten every program's segments into one scoring batch; a
        # program is racy iff any of its segments crosses the threshold.
        owners: list[int] = []
        instructions: list[str] = []
        for idx, spec in enumerate(specs):
            for segment in self._segments(spec.source):
                owners.append(idx)
                instructions.append(race_instruction(segment, spec.language))
        margins = self.engine.yes_no_margins(instructions)
        racy = {idx for idx, m in zip(owners, margins) if m >= self.threshold}
        return [
            Verdict.RACE if idx in racy else Verdict.NO_RACE for idx in range(len(specs))
        ]


# -- commercial comparator sims ------------------------------------------------

_PROTECT_RES = {
    "reduction": re.compile(r"reduction\s*\("),
    "critical": re.compile(r"\bcritical\b"),
    "atomic": re.compile(r"\batomic\b"),
    "single": re.compile(r"\bsingle\b"),
    "master": re.compile(r"\bmaster\b"),
    "ordered": re.compile(r"\bordered\b"),
    "barrier": re.compile(r"\bbarrier\b"),
}
_OFFSET_RE = re.compile(r"[\[(]\s*\w+\s*[-+]\s*\w+\s*[\])]|[-+]\s*i\s*\)")
_INDIRECT_RE = re.compile(r"\w+\s*[\[(]\s*\w+\s*[\[(]")
_MODULO_RE = re.compile(r"%")
_PRIVATE_RE = re.compile(r"(?:first|last)?private\s*\(([^)]*)\)")
_SCALAR_ACCUM_RE = re.compile(r"^\s*(\w+)\s*(?:\+=|=\s*\1\s*[+*-])", re.MULTILINE)
_SCALAR_ASSIGN_RE = re.compile(r"^\s*(\w+)\s*=\s*[^=]", re.MULTILINE)
_ARRAY_WRITE_RE = re.compile(r"^\s*(\w+)\s*[\[(][^\n]*[\])]\s*=", re.MULTILINE)
_IDENT_BEFORE_RE = re.compile(r"(\w+)\s*$")
_OMP_RE = re.compile(r"#pragma\s+omp|!\$omp", re.IGNORECASE)


def _private_names(source: str) -> set[str]:
    names: set[str] = set()
    for m in _PRIVATE_RE.finditer(source):
        names.update(v.strip() for v in m.group(1).split(",") if v.strip())
    return names


def _after_first_directive(source: str) -> str:
    m = _OMP_RE.search(source)
    return source[m.start():] if m else ""


def _offset_on_written_array(source: str, written: set[str]) -> bool:
    """Does any offset subscript (``a[i-1]``/``a(i+2)``/mirror forms)
    belong to an array that the code also writes?"""
    for m in _OFFSET_RE.finditer(source):
        pre = _IDENT_BEFORE_RE.search(source[: m.start()])
        if pre is None:
            # Mirror form "- i)": find the array owning this paren group.
            open_pos = source.rfind("(", 0, m.start())
            if open_pos <= 0:
                continue
            pre = _IDENT_BEFORE_RE.search(source[:open_pos])
            if pre is None:
                continue
        if pre.group(1) in written:
            return True
    return False


class GPTHeuristicDetector(_TokenBudgetMixin):
    """GPT-3.5 / GPT-4 stand-ins: pattern reasoners with calibrated noise.

    ``skill`` selects the rule set:

    * ``"gpt-4"`` — checks data-sharing clauses, reductions, sync
      constructs, and whether offset subscripts touch an array the loop
      *writes*; ~12% deterministic per-program error;
    * ``"gpt-3.5"`` — shallow: any accumulation or offset subscript means
      "race" unless a reduction is visible; ~22% error.

    The error channel hashes the program id, so results are reproducible
    and independent of evaluation order.
    """

    _ERROR_RATES = {"gpt-4": 0.12, "gpt-3.5": 0.22}

    def __init__(self, name: str, skill: str, tokenizer: BPETokenizer, seed: int = 0) -> None:
        super().__init__(tokenizer)
        if skill not in self._ERROR_RATES:
            raise ValueError(f"unknown skill {skill!r}")
        self.name = name
        self.skill = skill
        self.seed = seed

    # -- heuristic cores ---------------------------------------------------

    def _gpt4_answer(self, source: str) -> str:
        if not _OMP_RE.search(source):
            return "no"  # no OpenMP: serial code cannot race
        protections = {k for k, rx in _PROTECT_RES.items() if rx.search(source)}
        privates = _private_names(source)
        written_arrays = set(_ARRAY_WRITE_RE.findall(source))
        parallel_part = _after_first_directive(source)
        despaced = source.replace(" ", "")

        # Shared-scalar writes inside the parallel part, unless privatised,
        # reduced, or guarded by a mutual-exclusion construct.
        scalar_risk = False
        if not ({"critical", "atomic", "ordered"} & protections):
            for m in _SCALAR_ASSIGN_RE.finditer(parallel_part):
                var = m.group(1)
                if var in privates:
                    continue
                if "reduction" in protections and f":{var}" in despaced:
                    continue
                if {"single", "master"} & protections:
                    continue  # one-thread sections: writer is unique
                scalar_risk = True
                break

        indirect_risk = bool(_INDIRECT_RE.search(parallel_part))
        modulo_risk = bool(_MODULO_RE.search(parallel_part))
        offset_risk = _offset_on_written_array(parallel_part, written_arrays)

        if scalar_risk or indirect_risk or modulo_risk or offset_risk:
            return "yes"
        return "no"

    def _gpt35_answer(self, source: str) -> str:
        if not _OMP_RE.search(source):
            return "no"
        if "reduction" in source:
            return "no"
        if _SCALAR_ACCUM_RE.search(source):
            return "yes"
        if _OFFSET_RE.search(source) or _INDIRECT_RE.search(source) or _MODULO_RE.search(source):
            return "yes"
        return "no"

    # -- detection with the error channel --------------------------------------

    def _flips(self, spec: KernelSpec) -> bool:
        h = stable_hash(f"{self.name}:{self.seed}:{spec.id}")
        return (h % 10_000) / 10_000.0 < self._ERROR_RATES[self.skill]

    def detect(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> Verdict:
        answer = (
            self._gpt4_answer(spec.source)
            if self.skill == "gpt-4"
            else self._gpt35_answer(spec.source)
        )
        if self._flips(spec):
            answer = "no" if answer == "yes" else "yes"
        return Verdict.RACE if answer == "yes" else Verdict.NO_RACE
