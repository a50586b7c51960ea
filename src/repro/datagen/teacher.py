"""The teacher LLM stand-in (GPT-4 in the paper).

Given a knowledge chunk and the rendered Listing-1/Listing-2 prompts, the
teacher emits raw JSON strings in the paper's three-field format.  It is
template-based and deterministic, but injects the same defect families
the paper's postprocessing stage was built to remove:

* exact duplicates of earlier emissions ("do not generate the same...");
* over-length outputs (>50 words, violating requirement 2);
* under-length answers (<10 words for Task 1, violating requirement 4);
* malformed / truncated JSON ("become unparseable");
* hallucinated answers not obtainable from the knowledge (violating
  requirement 5) — wrong entity for Task 1, flipped label for Task 2.

Rates are configurable; the defaults make the filter's work visible
without dominating generation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.datagen.prompts import render_answer_prompt, render_instruction_prompt
from repro.knowledge.corpus import KnowledgeChunk
from repro.utils.rng import derive_rng

_PAD_WORDS = (
    "indeed moreover furthermore additionally consequently specifically "
    "generally importantly notably essentially particularly strictly "
    "broadly roughly arguably certainly definitely absolutely clearly "
    "obviously surely likely possibly perhaps maybe somewhat rather quite "
    "fairly truly deeply widely openly richly neatly plainly simply fully "
    "nearly mostly partly jointly solely chiefly mainly largely"
).split()

# Question templates per task.  The leading verbs rotate to satisfy the
# "do not repeat the verb" diversity requirement.
_PLP_TEMPLATES: tuple[tuple[str, str], ...] = (
    (
        "What kind of dataset can be used for {category} tasks if the language is {Language} and the baseline is {Baseline}?",
        "The {Dataset} dataset can be used for {category} tasks if the language is {Language} and the baseline is {Baseline}.",
    ),
    (
        "Which baseline model is commonly evaluated on the {Dataset} dataset?",
        "The {Baseline} model is commonly evaluated on the {Dataset} dataset for {category} tasks.",
    ),
    (
        "Identify the evaluation metric used for the {Dataset} dataset.",
        "For {category} tasks, the {Dataset} dataset is evaluated with the {Metric} metric.",
    ),
    (
        "Name the programming language targeted by the {Dataset} dataset.",
        "The {Dataset} dataset targets the {Language} programming language for {category} tasks.",
    ),
    (
        "Specify a representative dataset for {category} in {Language}.",
        "A representative dataset for {category} in {Language} is {Dataset}, typically paired with {Baseline}.",
    ),
    (
        "Describe which model and metric pair with the {Dataset} dataset.",
        "The {Dataset} dataset pairs with the {Baseline} model and is scored using the {Metric} metric.",
    ),
)

_PLP_TRANSLATION_TEMPLATE = (
    "What kind of dataset can be used for code translation tasks if the source language is {Source} and the target language is {Target}?",
    "The {Dataset} dataset can be used for code translation tasks if the source language is {Source} and the target language is {Target}.",
)

_MLPERF_TEMPLATES: dict[str, tuple[tuple[str, str], ...]] = {
    "System": (
        (
            "What is the System if the Accelerator used is {Accelerator} and the Software used is {Software}?",
            "If the Accelerator used is {Accelerator} and the Software used is {Software}, the System is {System}.",
        ),
        (
            "Identify the system that pairs the {Accelerator} accelerator with {Software}.",
            "The system pairing the {Accelerator} accelerator with {Software} is {System}.",
        ),
        (
            "Which system did {Submitter} use for the {Benchmark} benchmark with {Software}?",
            "{Submitter} used the {System} system for the {Benchmark} benchmark with {Software}.",
        ),
        (
            "Name the system built around {Processor} processors and {Accelerator} accelerators.",
            "The system built around {Processor} processors and {Accelerator} accelerators is {System}.",
        ),
    ),
    "Submitter": (
        (
            "Which organization submitted the {System} system?",
            "The {System} system was submitted by {Submitter} for the {Benchmark} benchmark.",
        ),
        (
            "Name the submitter behind the {System} entry.",
            "The submitter behind the {System} entry is {Submitter}, running the {Benchmark} benchmark.",
        ),
        (
            "Who submitted results pairing {Accelerator} with {Software}?",
            "Results pairing {Accelerator} with {Software} were submitted by {Submitter} on {System}.",
        ),
        (
            "Identify the vendor that entered {System} in MLPerf Training v3.0.",
            "The vendor that entered {System} in MLPerf Training v3.0 is {Submitter}.",
        ),
    ),
    "Processor": (
        (
            "What processor does the {System} system use?",
            "The {System} system uses the {Processor} processor in its MLPerf submission.",
        ),
        (
            "Specify the host CPU of the {System} system.",
            "The host CPU of the {System} system is the {Processor} processor.",
        ),
        (
            "Which CPU accompanies the {Accelerator} accelerator in the {System} system?",
            "The {Accelerator} accelerator is accompanied by the {Processor} CPU in the {System} system.",
        ),
        (
            "Determine the processor model in the {Submitter} submission named {System}.",
            "The processor model in the {Submitter} submission named {System} is {Processor}.",
        ),
    ),
    "Accelerator": (
        (
            "What accelerator does the {System} system rely on?",
            "The {System} system relies on the {Accelerator} accelerator for its results.",
        ),
        (
            "Determine the accelerator installed in the {System} system.",
            "The accelerator installed in the {System} system is the {Accelerator}.",
        ),
        (
            "Which accelerator did {Submitter} pair with {Software} on {System}?",
            "{Submitter} paired the {Accelerator} accelerator with {Software} on {System}.",
        ),
        (
            "Identify the accelerator used for the {Benchmark} run on {System}.",
            "The accelerator used for the {Benchmark} run on {System} is the {Accelerator}.",
        ),
    ),
    "Software": (
        (
            "What software stack powers the {System} system?",
            "The {System} system is powered by the {Software} software stack.",
        ),
        (
            "Describe the framework release used by the {System} system.",
            "The framework release used by the {System} system is {Software}.",
        ),
        (
            "Which software did {Submitter} run on the {Accelerator} accelerator?",
            "{Submitter} ran {Software} on the {Accelerator} accelerator in the {System} system.",
        ),
        (
            "Name the software stack behind the {Benchmark} submission on {System}.",
            "The software stack behind the {Benchmark} submission on {System} is {Software}.",
        ),
    ),
}

from repro.datagen.prompts import race_instruction


@dataclass(frozen=True)
class TeacherConfig:
    """Defect-injection rates (fractions of emissions)."""

    duplicate_rate: float = 0.05
    overlong_rate: float = 0.04
    short_answer_rate: float = 0.03
    malformed_rate: float = 0.04
    hallucination_rate: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        total = (
            self.duplicate_rate
            + self.overlong_rate
            + self.short_answer_rate
            + self.malformed_rate
            + self.hallucination_rate
        )
        if total > 0.9:
            raise ValueError("defect rates sum too high; the teacher must mostly work")
        for r in (
            self.duplicate_rate,
            self.overlong_rate,
            self.short_answer_rate,
            self.malformed_rate,
            self.hallucination_rate,
        ):
            if r < 0:
                raise ValueError("defect rates must be non-negative")


class TeacherLM:
    """Deterministic GPT-4 stand-in emitting raw JSON instruction data."""

    def __init__(self, config: TeacherConfig | None = None) -> None:
        self.config = config or TeacherConfig()
        self._rng = derive_rng(self.config.seed, "datagen/teacher")
        self._emitted: list[str] = []
        self._alt_entities: dict[str, list[str]] = {}
        self.prompt_log: list[str] = []

    # -- public API ----------------------------------------------------------

    def generate_batch(
        self,
        chunk: KnowledgeChunk,
        number: int,
        category: str | None = None,
        variant: int = 0,
    ) -> list[str]:
        """Run the Listing-1 + Listing-2 round trip for one chunk.

        Returns ``number`` raw JSON strings (possibly defective).
        ``category`` selects the MLPerf template family; ``variant``
        offsets template rotation so repeated calls on the same chunk
        produce different phrasings.
        """
        self.prompt_log.append(render_instruction_prompt(chunk.text, number))
        self._register_entities(chunk)
        out: list[str] = []
        for i in range(number):
            qa = self._make_qa(chunk, category, variant + i)
            if qa is None:
                break
            question, answer = qa
            self.prompt_log.append(render_answer_prompt(chunk.text, question))
            raw = self._emit(chunk, question, answer)
            out.append(raw)
        return out

    # -- template selection ------------------------------------------------------

    def _make_qa(
        self, chunk: KnowledgeChunk, category: str | None, variant: int
    ) -> tuple[str, str] | None:
        if chunk.task == "plp":
            facts = chunk.facts
            is_translation = "Source Language" in facts
            fmt = {
                "category": facts.get("Category", chunk.category),
                "Dataset": facts.get("Dataset Name", ""),
                "Language": facts.get("Language", ""),
                "Baseline": facts.get("Baseline", ""),
                "Metric": facts.get("Metric", ""),
                "Source": facts.get("Source Language", ""),
                "Target": facts.get("Target Language", ""),
            }
            if is_translation and variant % (len(_PLP_TEMPLATES) + 1) == 0:
                q_t, a_t = _PLP_TRANSLATION_TEMPLATE
            else:
                q_t, a_t = _PLP_TEMPLATES[variant % len(_PLP_TEMPLATES)]
            return q_t.format(**fmt), a_t.format(**fmt)
        if chunk.task == "mlperf":
            cat = category or "System"
            templates = _MLPERF_TEMPLATES.get(cat)
            if templates is None:
                raise KeyError(f"unknown MLPerf category {cat!r}")
            q_t, a_t = templates[variant % len(templates)]
            return q_t.format(**chunk.facts), a_t.format(**chunk.facts)
        if chunk.task == "datarace":
            question = race_instruction(
                chunk.facts["code"], chunk.facts.get("language", "C/C++")
            )
            return question, chunk.facts["label"]
        raise ValueError(f"unknown task {chunk.task!r}")

    def _register_entities(self, chunk: KnowledgeChunk) -> None:
        """Remember entity values per fact key for hallucination swaps."""
        for key, value in chunk.facts.items():
            if not isinstance(value, str) or len(value) > 60:
                continue
            bucket = self._alt_entities.setdefault(key, [])
            if value not in bucket:
                bucket.append(value)

    # -- defect injection ---------------------------------------------------------

    def _emit(self, chunk: KnowledgeChunk, question: str, answer: str) -> str:
        cfg = self.config
        roll = float(self._rng.random())
        record = {"instruction": question, "input": "", "output": answer}

        threshold = cfg.duplicate_rate
        if roll < threshold and self._emitted:
            dup = self._emitted[int(self._rng.integers(len(self._emitted)))]
            return dup
        threshold += cfg.malformed_rate
        if roll < threshold:
            raw = json.dumps(record)
            cut = max(10, int(len(raw) * 0.8))
            return raw[:cut]
        threshold += cfg.overlong_rate
        if roll < threshold:
            pad = " ".join(
                _PAD_WORDS[int(self._rng.integers(len(_PAD_WORDS)))] for _ in range(55)
            )
            record["output"] = answer + " " + pad
        threshold += cfg.short_answer_rate
        if roll < threshold and chunk.task != "datarace":
            record["output"] = " ".join(answer.split()[:4])
        threshold += cfg.hallucination_rate
        if roll < threshold:
            record["output"] = self._hallucinate(chunk, answer)
        raw = json.dumps(record)
        self._emitted.append(raw)
        return raw

    def _hallucinate(self, chunk: KnowledgeChunk, answer: str) -> str:
        """Produce a fluent but wrong answer."""
        if chunk.task == "datarace":
            return "no" if chunk.facts["label"] == "yes" else "yes"
        # Swap one fact value appearing in the answer for a different
        # entity of the same kind.
        for key, value in chunk.facts.items():
            if not isinstance(value, str) or value not in answer:
                continue
            pool = [v for v in self._alt_entities.get(key, []) if v != value]
            if pool:
                wrong = pool[int(self._rng.integers(len(pool)))]
                return answer.replace(value, wrong)
        return "That information is widely known in the HPC community."
