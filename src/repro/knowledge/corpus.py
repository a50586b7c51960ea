"""Figure 2: transformation of structured data into unsupervised text.

The paper converts tables into sentences in two ways:

1. **slot-filling with templates** — e.g. the figure's own example: *"A
   task called 'Defect Detection' along with the corresponding dataset
   name and programming language used. The dataset used for this task is
   called 'Devign,' and the programming language employed is C."*;
2. **attribute concatenation** — joining each value with its column name.

Both are implemented here, along with :class:`KnowledgeChunk`, the unit
of "unsupervised knowledge data" that the instruction-generation prompts
(Listings 1 and 2) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.knowledge.mlperf import MLPERF_FIELDS, MLPerfRow, build_mlperf_table
from repro.knowledge.plp_catalog import PLPEntry, build_plp_catalog


@dataclass(frozen=True)
class KnowledgeChunk:
    """One unit of unsupervised knowledge.

    Attributes
    ----------
    text:
        The unstructured rendering fed into the teacher prompt.
    source:
        Where it came from (``plp-table``, ``mlperf-table``, ``paper``).
    task:
        Which HPC application it belongs to (``plp`` / ``mlperf`` /
        ``datarace``).
    category:
        Table-2/Table-3 category label, used to balance the dataset.
    facts:
        The structured key->value pairs behind the text (ground truth for
        answer checking and for the ontology).
    """

    text: str
    source: str
    task: str
    category: str
    facts: dict = field(default_factory=dict)


def slot_fill(entry: PLPEntry) -> str:
    """Figure 2's template rendering of one PLP row."""
    return (
        f'A task called "{entry.task}" along with the corresponding dataset '
        f"name and programming language used. The dataset used for this task "
        f'is called "{entry.dataset}," and the programming language employed '
        f"is {entry.language}. The baseline model is {entry.baseline} and the "
        f"evaluation metric is {entry.metric}."
    )


def attribute_concat(values: dict[str, str]) -> str:
    """Figure 2's alternative rendering: ``col: value`` concatenation."""
    return ". ".join(f"{k}: {v}" for k, v in values.items()) + "."


def plp_chunk(entry: PLPEntry) -> KnowledgeChunk:
    facts = {
        "Task": entry.task,
        "Category": entry.category,
        "Dataset Name": entry.dataset,
        "Language": entry.language,
        "Baseline": entry.baseline,
        "Metric": entry.metric,
    }
    if entry.source_language:
        facts["Source Language"] = entry.source_language
        facts["Target Language"] = entry.target_language
    return KnowledgeChunk(
        text=slot_fill(entry),
        source="plp-table",
        task="plp",
        category=entry.category,
        facts=facts,
    )


def mlperf_chunk(row: MLPerfRow) -> KnowledgeChunk:
    facts = {name: row.field(name) for name in MLPERF_FIELDS}
    facts["Benchmark"] = row.benchmark
    text = (
        f"An MLPerf Training v3.0 submission for the {row.benchmark} "
        f"benchmark. " + attribute_concat({name: row.field(name) for name in MLPERF_FIELDS})
    )
    # One chunk per row, but tagged with every MLPerf field category so the
    # dataset balancer can draw Submitter/System/... instructions from it.
    return KnowledgeChunk(
        text=text,
        source="mlperf-table",
        task="mlperf",
        category="System",
        facts=facts,
    )


def build_knowledge_base(
    plp_entries_per_category: int = 8,
    mlperf_rows: int = 24,
    seed: int = 0,
) -> list[KnowledgeChunk]:
    """Assemble the full Task-1 knowledge base (structured + unstructured)."""
    chunks: list[KnowledgeChunk] = []
    for entry in build_plp_catalog(plp_entries_per_category, seed=seed):
        chunks.append(plp_chunk(entry))
    for row in build_mlperf_table(mlperf_rows, seed=seed):
        chunks.append(mlperf_chunk(row))
    from repro.knowledge.documents import build_mlperf_documents, build_plp_documents

    chunks.extend(build_plp_documents(seed=seed))
    chunks.extend(build_mlperf_documents(seed=seed))
    return chunks
