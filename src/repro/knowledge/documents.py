"""Synthetic unstructured documents — the "more than 40 papers related to
PLP tasks" and "papers related to ML performance" of §4.2.

Each document is a short paper-like paragraph grounded in catalog facts,
so instruction/answer pairs generated from it remain verifiable against
the structured ground truth.
"""

from __future__ import annotations

from repro.knowledge.mlperf import build_mlperf_table
from repro.knowledge.plp_catalog import build_plp_catalog
from repro.utils.rng import derive_rng

#: PLP paragraphs (§4.2 collects "more than 40" PLP papers) and MLPerf
#: paragraphs in every knowledge base.
N_PLP_DOCS = 40
N_MLPERF_DOCS = 12

_PLP_OPENERS = [
    "Recent work on {cat} explores transformer models for source code.",
    "The {cat} literature has converged on benchmark-driven evaluation.",
    "We survey machine-learning components that address {cat}.",
    "Reusable pipelines for {cat} reduce the effort of building PLP tools.",
]

_PLP_BODY = (
    " The {dataset} dataset targets {lang} programs and is commonly "
    "evaluated with the {model} baseline using {metric}. Researchers "
    "report that pretraining on code improves downstream {cat} quality."
)

_MLPERF_OPENERS = [
    "MLPerf is a standardized benchmark for comparing ML system performance.",
    "Inference and training submissions follow strict MLPerf run rules.",
    "Vendor submissions document the full hardware and software stack.",
]

_MLPERF_BODY = (
    " The submission from {submitter} used the {system} system with "
    "{processor} processors, {accelerator} accelerators, and {software} "
    "for the {benchmark} benchmark."
)


def build_plp_documents(seed: int = 0) -> list:
    """``N_PLP_DOCS`` paper-like paragraphs grounded in the PLP catalog."""
    from repro.knowledge.corpus import KnowledgeChunk

    rng = derive_rng(seed, "knowledge/plp-docs")
    catalog = build_plp_catalog(seed=seed)
    docs: list[KnowledgeChunk] = []
    for i in range(N_PLP_DOCS):
        entry = catalog[int(rng.integers(len(catalog)))]
        opener = _PLP_OPENERS[i % len(_PLP_OPENERS)].format(cat=entry.category)
        body = _PLP_BODY.format(
            dataset=entry.dataset,
            lang=entry.language,
            model=entry.baseline,
            metric=entry.metric,
            cat=entry.category,
        )
        docs.append(
            KnowledgeChunk(
                text=opener + body,
                source="paper",
                task="plp",
                category=entry.category,
                facts={
                    "Dataset Name": entry.dataset,
                    "Language": entry.language,
                    "Baseline": entry.baseline,
                    "Metric": entry.metric,
                    "Category": entry.category,
                },
            )
        )
    return docs


def build_mlperf_documents(seed: int = 0) -> list:
    """``N_MLPERF_DOCS`` paper-like paragraphs grounded in the MLPerf table."""
    from repro.knowledge.corpus import KnowledgeChunk

    rng = derive_rng(seed, "knowledge/mlperf-docs")
    table = build_mlperf_table(seed=seed)
    docs: list[KnowledgeChunk] = []
    for i in range(N_MLPERF_DOCS):
        row = table[int(rng.integers(len(table)))]
        opener = _MLPERF_OPENERS[i % len(_MLPERF_OPENERS)]
        body = _MLPERF_BODY.format(
            submitter=row.submitter,
            system=row.system,
            processor=row.processor,
            accelerator=row.accelerator,
            software=row.software,
            benchmark=row.benchmark,
        )
        docs.append(
            KnowledgeChunk(
                text=opener + body,
                source="paper",
                task="mlperf",
                category="System",
                facts={
                    "Submitter": row.submitter,
                    "System": row.system,
                    "Processor": row.processor,
                    "Accelerator": row.accelerator,
                    "Software": row.software,
                    "Benchmark": row.benchmark,
                },
            )
        )
    return docs
