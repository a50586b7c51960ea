"""Catalog of programming-language-processing (PLP) tasks, datasets, and
models — the structured side of the paper's Task-1 knowledge.

The 13 categories match Table 2 exactly.  Seed entries are the real
facts the paper quotes (CodeTrans for Java→C# translation, POJ-104 with
CodeBERT for clone detection, Devign for defect detection, Bugs2Fix for
code repair — see Fig. 2 and Listing 3); the remainder of the catalog is
synthesised deterministically so every category holds enough distinct
facts to generate its Table-2 share of instruction data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import derive_rng

#: The 13 PLP categories of Table 2, in the paper's order.
PLP_CATEGORIES: tuple[str, ...] = (
    "Performance Modeling",
    "Algorithm Classification",
    "Defect detection",
    "Clone detection",
    "Code Completion",
    "Compiler Analyses",
    "Code Repair",
    "Code Translation",
    "Cloze Testing",
    "Text-to-Code Generation",
    "Code Summarization",
    "Document Translation",
    "Code Search",
)


@dataclass(frozen=True)
class PLPEntry:
    """One catalog row: a task instance with its dataset/model/languages."""

    category: str
    task: str
    dataset: str
    language: str
    baseline: str
    metric: str
    source_language: str = ""
    target_language: str = ""

    def key(self) -> tuple[str, str, str]:
        return (self.category, self.dataset, self.baseline)


# Real anchor facts quoted in the paper (Fig. 2, Table 1, Listing 3).
_ANCHORS: tuple[PLPEntry, ...] = (
    PLPEntry("Defect detection", "Defect Detection", "Devign", "C", "CodeBERT", "Accuracy"),
    PLPEntry("Code Repair", "Code Repair", "Bugs2Fix", "Java", "CodeBERT", "BLEU"),
    PLPEntry("Clone detection", "Clone Detection", "POJ-104", "C/C++", "CodeBERT", "MAP@R"),
    PLPEntry(
        "Code Translation",
        "Code Translation",
        "CodeTrans",
        "Java-C#",
        "CodeBERT",
        "BLEU",
        source_language="Java",
        target_language="C#",
    ),
    PLPEntry("Cloze Testing", "Cloze Testing", "ClozeTest-maxmin", "Python", "CodeBERT", "Accuracy"),
    PLPEntry("Text-to-Code Generation", "Text-to-Code", "CONCODE", "Java", "CodeGPT", "BLEU"),
    PLPEntry("Code Summarization", "Code Summarization", "CodeSearchNet", "Python", "CodeT5", "BLEU"),
    PLPEntry("Code Search", "Code Search", "CodeSearchNet-AdvTest", "Python", "GraphCodeBERT", "MRR"),
    PLPEntry("Code Completion", "Code Completion", "PY150", "Python", "CodeGPT", "Accuracy"),
    PLPEntry("Document Translation", "Documentation Translation", "Microsoft-Docs", "en-zh", "XLM-R", "BLEU"),
)

_DATASET_STEMS = [
    "HPCorpus", "KernelBench", "ParaBank", "OMPSet", "LoopDB", "AutoPar",
    "SrcML", "CompBench", "PolyData", "TransSet", "QueryCode", "DocPair",
    "GraphSet", "FlowBench", "TokenSet", "AstBank", "PerfDB", "ScaleSet",
]
_MODELS = [
    "CodeBERT", "GraphCodeBERT", "CodeT5", "CodeGPT", "PLBART", "UniXcoder",
    "InCoder", "PolyCoder", "CuBERT", "CodeReviewer",
]
_LANGS = ["C", "C++", "C/C++", "Fortran", "Java", "Python", "Go", "CUDA", "OpenCL"]
_METRICS = ["Accuracy", "F1", "BLEU", "MRR", "MAP@R", "Exact Match", "CodeBLEU"]
# Java->C# is reserved for the CodeTrans anchor (Listing 3 expects a
# unique answer), so synthetic translation entries draw other pairs.
_TRANSLATION_PAIRS = [
    ("C", "Fortran"), ("Fortran", "C"), ("Python", "C++"),
    ("C++", "CUDA"), ("Java", "Python"), ("Go", "C"),
]


def build_plp_catalog(entries_per_category: int = 8, seed: int = 0) -> list[PLPEntry]:
    """Build the full deterministic catalog.

    Each category receives the anchor facts that belong to it plus enough
    synthetic rows to reach ``entries_per_category`` distinct entries.
    """
    rng = derive_rng(seed, "knowledge/plp")
    catalog: list[PLPEntry] = list(_ANCHORS)
    per_cat: dict[str, int] = {}
    for e in catalog:
        per_cat[e.category] = per_cat.get(e.category, 0) + 1
    # (language, baseline) pairs used by anchors stay unique so Table-1
    # style questions ("dataset if the language is X and the baseline is
    # Y") keep a single ground-truth answer.
    reserved_pairs = {(e.language, e.baseline) for e in _ANCHORS}

    for category in PLP_CATEGORIES:
        have = per_cat.get(category, 0)
        for i in range(have, entries_per_category):
            stem = _DATASET_STEMS[int(rng.integers(len(_DATASET_STEMS)))]
            dataset = f"{stem}-{category.split()[0][:4]}{i}"
            metric = _METRICS[int(rng.integers(len(_METRICS)))]
            if category == "Code Translation":
                model = _MODELS[int(rng.integers(len(_MODELS)))]
                src, dst = _TRANSLATION_PAIRS[int(rng.integers(len(_TRANSLATION_PAIRS)))]
                catalog.append(
                    PLPEntry(
                        category, category, dataset, f"{src}-{dst}", model, metric,
                        source_language=src, target_language=dst,
                    )
                )
            else:
                for _ in range(64):
                    lang = _LANGS[int(rng.integers(len(_LANGS)))]
                    model = _MODELS[int(rng.integers(len(_MODELS)))]
                    if (lang, model) not in reserved_pairs:
                        break
                catalog.append(PLPEntry(category, category, dataset, lang, model, metric))
    return catalog
