"""Quota-driven data collection assembling the Tables 2/3 datasets.

The paper collected 5.86k instruction instances whose per-category
composition is given in Table 2 (Task 1: 13 PLP + 5 MLPerf categories)
and Table 3 (Task 2: 14 categories x {C/C++, Fortran}).  The pipeline
reproduces exactly those compositions: for each category it keeps asking
the teacher for batches over that category's knowledge chunks, pushes
everything through the filter, and stops at the target count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.filtering import FilterStats, InstructionFilter
from repro.datagen.schema import InstructionRecord, records_to_json
from repro.datagen.teacher import TeacherConfig, TeacherLM
from repro.knowledge.corpus import KnowledgeChunk

#: Instances asked of the teacher per Task-1 request.
TEACHER_BATCH = 4
#: Teacher requests allowed per wanted instance before a category is
#: reported as a shortfall.
MAX_ATTEMPT_FACTOR = 60

#: Table 2 — Task-1 instruction counts per category.
TABLE2_TARGETS: dict[str, int] = {
    # PLP subtasks
    "Performance Modeling": 44,
    "Algorithm Classification": 41,
    "Defect detection": 47,
    "Clone detection": 45,
    "Code Completion": 39,
    "Compiler Analyses": 37,
    "Code Repair": 48,
    "Code Translation": 41,
    "Cloze Testing": 48,
    "Text-to-Code Generation": 58,
    "Code Summarization": 48,
    "Document Translation": 52,
    "Code Search": 55,
    # MLPerf subtasks
    "Submitter": 324,
    "System": 386,
    "Processor": 347,
    "Accelerator": 362,
    "Software": 401,
}

_MLPERF_CATEGORIES = ("Submitter", "System", "Processor", "Accelerator", "Software")

#: Table 3 — Task-2 instruction counts per (language, category).
#: Categories are ordered as in the paper: 7 race types then 7 race-free.
RACE_CATEGORIES: tuple[str, ...] = (
    "Unresolvable dependencies",
    "Missing data sharing clauses",
    "Missing synchronization",
    "SIMD data races",
    "Accelerator data races",
    "Undefined behavior",
    "Numerical kernel data races",
)
NORACE_CATEGORIES: tuple[str, ...] = (
    "Single thread execution",
    "Use of data sharing clauses",
    "Use of synchronization",
    "Use of SIMD directives",
    "Use of accelerator directives",
    "Use of special language features",
    "Numerical kernels",
)
ALL_DRB_CATEGORIES: tuple[str, ...] = RACE_CATEGORIES + NORACE_CATEGORIES

TABLE3_TARGETS: dict[tuple[str, str], int] = {
    ("C/C++", "Unresolvable dependencies"): 132,
    ("C/C++", "Missing data sharing clauses"): 129,
    ("C/C++", "Missing synchronization"): 130,
    ("C/C++", "SIMD data races"): 124,
    ("C/C++", "Accelerator data races"): 110,
    ("C/C++", "Undefined behavior"): 128,
    ("C/C++", "Numerical kernel data races"): 133,
    ("C/C++", "Single thread execution"): 133,
    ("C/C++", "Use of data sharing clauses"): 105,
    ("C/C++", "Use of synchronization"): 144,
    ("C/C++", "Use of SIMD directives"): 119,
    ("C/C++", "Use of accelerator directives"): 118,
    ("C/C++", "Use of special language features"): 126,
    ("C/C++", "Numerical kernels"): 131,
    ("Fortran", "Unresolvable dependencies"): 125,
    ("Fortran", "Missing data sharing clauses"): 103,
    ("Fortran", "Missing synchronization"): 117,
    ("Fortran", "SIMD data races"): 122,
    ("Fortran", "Accelerator data races"): 101,
    ("Fortran", "Undefined behavior"): 109,
    ("Fortran", "Numerical kernel data races"): 111,
    ("Fortran", "Single thread execution"): 98,
    ("Fortran", "Use of data sharing clauses"): 126,
    ("Fortran", "Use of synchronization"): 105,
    ("Fortran", "Use of SIMD directives"): 130,
    ("Fortran", "Use of accelerator directives"): 97,
    ("Fortran", "Use of special language features"): 108,
    ("Fortran", "Numerical kernels"): 124,
}


@dataclass
class DatasetBundle:
    """Collected records plus filter statistics."""

    records: list[InstructionRecord]
    stats: FilterStats
    shortfalls: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def counts_by_category(self) -> dict[str, int]:
        """Record counts per Table-2/Table-3 category."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.category] = out.get(r.category, 0) + 1
        return out

    def counts_by_language_category(self) -> dict[tuple[str, str], int]:
        """Record counts per (language, category) — the Table-3 key."""
        out: dict[tuple[str, str], int] = {}
        for r in self.records:
            key = (r.language, r.category)
            out[key] = out.get(key, 0) + 1
        return out

    def percentages(self, group: str | None = None) -> dict[str, float]:
        """Per-category share (Table 2's Percentage column).  For Task 1,
        PLP and MLPerf percentages are computed within their own blocks,
        matching the paper's table."""
        counts = self.counts_by_category()
        if group == "plp":
            keys = [k for k in counts if k not in _MLPERF_CATEGORIES]
        elif group == "mlperf":
            keys = [k for k in counts if k in _MLPERF_CATEGORIES]
        else:
            keys = list(counts)
        total = sum(counts[k] for k in keys) or 1
        return {k: 100.0 * counts[k] / total for k in keys}

    def to_json(self) -> str:
        """The Figure-1 JSON-database serialization of the records."""
        return records_to_json(self.records)

    def merge(self, other: "DatasetBundle") -> "DatasetBundle":
        """Concatenate records and add per-rule filter statistics."""
        merged_stats = FilterStats()
        for k in self.stats.as_dict():
            setattr(merged_stats, k, getattr(self.stats, k) + getattr(other.stats, k))
        shortfalls = dict(self.shortfalls)
        shortfalls.update(other.shortfalls)
        return DatasetBundle(self.records + other.records, merged_stats, shortfalls)


class DataCollectionPipeline:
    """Figure 1, stage 1: automatic data collection with an LLM.

    Each ``collect_*`` call runs its own :class:`InstructionFilter`, so
    per-bundle statistics stay independent (and merging bundles adds them
    correctly).
    """

    def __init__(self, teacher: TeacherLM | None = None) -> None:
        self.teacher = teacher or TeacherLM(TeacherConfig())

    # -- Task 1 ---------------------------------------------------------------

    def collect_task1(
        self,
        chunks: list[KnowledgeChunk],
        targets: dict[str, int] | None = None,
        scale: float = 1.0,
    ) -> DatasetBundle:
        """Collect the Task-1 dataset (PLP + MLPerf categories).

        ``scale`` shrinks every target proportionally (used by tests and
        quick examples); full Table-2 counts need ``scale=1.0``.
        """
        targets = targets or TABLE2_TARGETS
        filt = InstructionFilter()
        goals = {k: max(1, round(v * scale)) for k, v in targets.items()}
        records: list[InstructionRecord] = []
        shortfalls: dict[str, int] = {}

        plp_by_cat: dict[str, list[KnowledgeChunk]] = {}
        mlperf_chunks: list[KnowledgeChunk] = []
        for c in chunks:
            if c.task == "plp":
                plp_by_cat.setdefault(c.category, []).append(c)
            elif c.task == "mlperf":
                mlperf_chunks.append(c)

        for category, goal in goals.items():
            if category in _MLPERF_CATEGORIES:
                pool = mlperf_chunks
                teacher_category: str | None = category
            else:
                pool = plp_by_cat.get(category, [])
                teacher_category = None
            if not pool:
                shortfalls[category] = goal
                continue
            got = self._collect_category(filt, pool, goal, category, teacher_category)
            if len(got) < goal:
                shortfalls[category] = goal - len(got)
            records.extend(got)
        return DatasetBundle(records, filt.stats, shortfalls)

    # -- Task 2 ---------------------------------------------------------------

    def collect_task2(
        self,
        chunks: list[KnowledgeChunk],
        targets: dict[tuple[str, str], int] | None = None,
        scale: float = 1.0,
    ) -> DatasetBundle:
        """Collect the Task-2 dataset (data-race detection).

        ``chunks`` must be DRB-derived (``task="datarace"`` with
        ``facts={"code", "label", "language", "category", "id"}``); each
        program yields at most one instruction, as in DataRaceBench.
        """
        targets = targets or TABLE3_TARGETS
        filt = InstructionFilter()
        goals = {k: max(1, round(v * scale)) for k, v in targets.items()}
        by_key: dict[tuple[str, str], list[KnowledgeChunk]] = {}
        for c in chunks:
            if c.task != "datarace":
                raise ValueError(f"collect_task2 got a non-datarace chunk: {c.task}")
            by_key.setdefault((c.facts["language"], c.category), []).append(c)

        records: list[InstructionRecord] = []
        shortfalls: dict[str, int] = {}
        for key, goal in goals.items():
            pool = by_key.get(key, [])
            got: list[InstructionRecord] = []
            used: set[str] = set()
            attempts = 0
            limit = MAX_ATTEMPT_FACTOR * goal
            # Cycle the pool: a chunk whose first emission was defective
            # (malformed JSON, flipped label, ...) gets another chance; a
            # chunk already accepted re-emits an exact duplicate that the
            # filter drops, so each program yields at most one record.
            while pool and len(got) < goal and attempts < limit:
                chunk = pool[attempts % len(pool)]
                attempts += 1
                cid = chunk.facts.get("id", "")
                if cid in used:
                    continue
                for raw in self.teacher.generate_batch(chunk, 1):
                    rec = filt.accept(raw, chunk, chunk.category)
                    if rec is not None:
                        got.append(rec)
                        used.add(cid)
            if len(got) < goal:
                shortfalls[f"{key[0]}/{key[1]}"] = goal - len(got)
            records.extend(got)
        return DatasetBundle(records, filt.stats, shortfalls)

    # -- shared quota loop -----------------------------------------------------

    def _collect_category(
        self,
        filt: InstructionFilter,
        pool: list[KnowledgeChunk],
        goal: int,
        category: str,
        teacher_category: str | None,
    ) -> list[InstructionRecord]:
        got: list[InstructionRecord] = []
        attempts = 0
        limit = MAX_ATTEMPT_FACTOR * goal
        variant = 0
        while len(got) < goal and attempts < limit:
            chunk = pool[attempts % len(pool)]
            attempts += 1
            if attempts % len(pool) == 0:
                variant += 1
            raws = self.teacher.generate_batch(
                chunk,
                min(TEACHER_BATCH, goal - len(got)),
                category=teacher_category,
                variant=variant * TEACHER_BATCH,
            )
            for raw in raws:
                rec = filt.accept(raw, chunk, category)
                if rec is not None:
                    got.append(rec)
                    if len(got) >= goal:
                        break
        return got
