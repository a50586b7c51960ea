"""Automatic instruction-data collection with an LLM teacher (§3.2).

The stages mirror Figure 1's first box:

1. **prompts** — the verbatim instruction-generation and answer-generation
   prompts (Listings 1 and 2);
2. **teacher** — the GPT-4 stand-in: a deterministic template generator
   over knowledge chunks that *injects realistic defects* (duplicates,
   over-length outputs, malformed JSON, hallucinated answers) at
   configurable rates, because the paper's filtering stage exists
   precisely to handle such defects;
3. **filtering** — the postprocessing rules that drop unparseable,
   rule-violating, duplicated, or unverifiable instances;
4. **pipeline** — quota-driven generation that assembles the balanced
   instruction dataset of Tables 2 and 3.
"""

from repro.datagen.schema import InstructionRecord, records_to_json
from repro.datagen.prompts import (
    ANSWER_PROMPT_TEMPLATE,
    INSTRUCTION_PROMPT_TEMPLATE,
    render_answer_prompt,
    render_instruction_prompt,
)
from repro.datagen.teacher import TeacherConfig, TeacherLM
from repro.datagen.filtering import FilterStats, InstructionFilter
from repro.datagen.pipeline import (
    TABLE2_TARGETS,
    TABLE3_TARGETS,
    DataCollectionPipeline,
    DatasetBundle,
)

__all__ = [
    "InstructionRecord",
    "records_to_json",
    "ANSWER_PROMPT_TEMPLATE",
    "INSTRUCTION_PROMPT_TEMPLATE",
    "render_answer_prompt",
    "render_instruction_prompt",
    "TeacherConfig",
    "TeacherLM",
    "FilterStats",
    "InstructionFilter",
    "TABLE2_TARGETS",
    "TABLE3_TARGETS",
    "DataCollectionPipeline",
    "DatasetBundle",
]
