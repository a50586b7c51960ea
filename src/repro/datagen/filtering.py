"""Filtering and pruning (§3.2, third stage).

"We implement a postprocessing step to filter out inappropriate
responses and correct any formatting errors" — the rules below implement
the requirements stated in the Listing-1/2 prompts, with the thresholds
in the module constants ``MAX_INSTRUCTION_WORDS``, ``MAX_OUTPUT_WORDS``,
``MIN_OUTPUT_WORDS`` and ``NEAR_DUP_THRESHOLD``:

* parse failure or missing fields  -> drop (``unparseable``);
* instruction over 50 words         -> drop (``overlong_instruction``);
* Task-1 output over 50 words       -> drop (``overlong_output``);
* Task-1 output under 10 words      -> drop (``short_output``);
* Task-2 output not a yes/no        -> drop (``not_yes_no``) — with one
  *correction* pass first: a leading "yes"/"no" sentence is normalised,
  mirroring the paper's "correct any formatting errors";
* answer not obtainable from the knowledge -> drop (``unverifiable``);
* exact or near-duplicate (instruction word-Jaccard >= 0.95) of an
  accepted instance -> drop (``duplicate``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from repro.datagen.schema import InstructionRecord
from repro.knowledge.corpus import KnowledgeChunk
from repro.utils.text import jaccard_similarity, word_count

_YES_NO_RE = re.compile(r"^\s*[\"']?(yes|no)\b", re.IGNORECASE)

# Word limits the Listing-1/2 prompts state for an instance, and the
# instruction similarity at which a Task-1 instance counts as a near-duplicate.
MAX_INSTRUCTION_WORDS = 50
MAX_OUTPUT_WORDS = 50
MIN_OUTPUT_WORDS = 10
NEAR_DUP_THRESHOLD = 0.95


@dataclass
class FilterStats:
    """Counts per rejection reason (and acceptances)."""

    accepted: int = 0
    unparseable: int = 0
    missing_fields: int = 0
    overlong_instruction: int = 0
    overlong_output: int = 0
    short_output: int = 0
    not_yes_no: int = 0
    unverifiable: int = 0
    duplicate: int = 0
    corrected: int = 0

    def rejected(self) -> int:
        """Total instances dropped across all rules."""
        return (
            self.unparseable
            + self.missing_fields
            + self.overlong_instruction
            + self.overlong_output
            + self.short_output
            + self.not_yes_no
            + self.unverifiable
            + self.duplicate
        )

    def as_dict(self) -> dict[str, int]:
        """Counts per rule as a plain dict (logging/inspection)."""
        return {
            k: getattr(self, k)
            for k in (
                "accepted", "unparseable", "missing_fields", "overlong_instruction",
                "overlong_output", "short_output", "not_yes_no", "unverifiable",
                "duplicate", "corrected",
            )
        }


class InstructionFilter:
    """Stateful filter: remembers accepted instances for deduplication."""

    def __init__(self) -> None:
        self.stats = FilterStats()
        self._seen_exact: set[tuple[str, str]] = set()
        # Near-dup search is restricted per category to keep it cheap.
        self._accepted_by_cat: dict[str, list[str]] = {}

    # -- the rules ---------------------------------------------------------

    def _parse(self, raw: str) -> dict | None:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            return None
        return obj if isinstance(obj, dict) else None

    def _verifiable(self, record: dict, chunk: KnowledgeChunk) -> bool:
        """Requirement 5: the answer must be obtainable from the knowledge.

        Task 1: every catalog-entity mentioned must belong to the chunk's
        facts, and at least one fact value must appear.  Task 2: the label
        must match the source program's ground truth.
        """
        output = record["output"]
        if chunk.task == "datarace":
            m = _YES_NO_RE.match(output)
            return bool(m) and m.group(1).lower() == chunk.facts["label"]
        fact_values = [v for v in chunk.facts.values() if isinstance(v, str) and v]
        return any(v in output for v in fact_values if len(v) > 1)

    def accept(self, raw: str, chunk: KnowledgeChunk, category: str) -> InstructionRecord | None:
        """Apply every rule; return the cleaned record or ``None``."""
        obj = self._parse(raw)
        if obj is None:
            self.stats.unparseable += 1
            return None
        # The paper's prompt spells the second field "Input"; accept both.
        instruction = obj.get("instruction")
        output = obj.get("output")
        input_text = obj.get("input", obj.get("Input", ""))
        if not isinstance(instruction, str) or not isinstance(output, str) or not instruction or not output:
            self.stats.missing_fields += 1
            return None

        if chunk.task == "datarace":
            m = _YES_NO_RE.match(output)
            if m is None:
                self.stats.not_yes_no += 1
                return None
            normalized = m.group(1).lower()
            if normalized != output:
                self.stats.corrected += 1
            output = normalized
        else:
            if word_count(instruction) > MAX_INSTRUCTION_WORDS:
                self.stats.overlong_instruction += 1
                return None
            if word_count(output) > MAX_OUTPUT_WORDS:
                self.stats.overlong_output += 1
                return None
            if word_count(output) < MIN_OUTPUT_WORDS:
                self.stats.short_output += 1
                return None

        record_dict = {"instruction": instruction, "output": output}
        if not self._verifiable(record_dict, chunk):
            self.stats.unverifiable += 1
            return None

        key = (instruction, output)
        if key in self._seen_exact:
            self.stats.duplicate += 1
            return None
        bucket = self._accepted_by_cat.setdefault(category, [])
        if chunk.task != "datarace":
            for prev in bucket:
                if jaccard_similarity(prev, instruction) >= NEAR_DUP_THRESHOLD:
                    self.stats.duplicate += 1
                    return None

        self._seen_exact.add(key)
        bucket.append(instruction)
        self.stats.accepted += 1
        return InstructionRecord(
            instruction=instruction,
            output=output,
            input=input_text if isinstance(input_text, str) else "",
            task=chunk.task,
            category=category,
            language=chunk.facts.get("language", ""),
            source_id=chunk.facts.get("id", chunk.source),
        )
