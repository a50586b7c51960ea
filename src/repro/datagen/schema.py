"""The instruction-record schema (paper Table 1 / Listing 2 line 15).

Records serialise to the three-field JSON the paper stores in its
database: ``{"instruction": <question>, "input": "", "output": <answer>}``
plus reproduction-side metadata (task, category, language, provenance)
kept in a separate ``meta`` object so the training-facing JSON stays
format-identical to the paper's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class InstructionRecord:
    """One supervised fine-tuning instance."""

    instruction: str
    output: str
    input: str = ""
    task: str = ""  # plp | mlperf | datarace
    category: str = ""  # Table-2 / Table-3 category
    language: str = ""  # for datarace: C/C++ or Fortran
    source_id: str = ""  # provenance: knowledge chunk / program id

    def to_training_json(self) -> dict:
        """The paper's exact three-field training format."""
        return {"instruction": self.instruction, "input": self.input, "output": self.output}

    def to_json(self) -> dict:
        """Training JSON plus reproduction metadata under a "meta" key."""
        d = self.to_training_json()
        d["meta"] = {
            "task": self.task,
            "category": self.category,
            "language": self.language,
            "source_id": self.source_id,
        }
        return d

    @classmethod
    def from_json(cls, d: dict) -> "InstructionRecord":
        meta = d.get("meta", {})
        return cls(
            instruction=d["instruction"],
            output=d["output"],
            input=d.get("input", ""),
            task=meta.get("task", ""),
            category=meta.get("category", ""),
            language=meta.get("language", ""),
            source_id=meta.get("source_id", ""),
        )


def records_to_json(records: list[InstructionRecord]) -> str:
    """Serialise a dataset to the JSON database format of Figure 1."""
    return json.dumps([r.to_json() for r in records], indent=1)
