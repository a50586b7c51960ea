"""Suite object and the bridge from kernels to instruction-data chunks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.drb.generator import KernelSpec, generate_eval_suite, generate_training_pool
from repro.knowledge.corpus import KnowledgeChunk


def spec_to_chunk(spec: KernelSpec) -> KnowledgeChunk:
    """Render a kernel as the 'unsupervised knowledge' unit that the
    teacher prompts (Listings 1-2) consume for Task 2."""
    return KnowledgeChunk(
        text=spec.source,
        source="drb",
        task="datarace",
        category=spec.category,
        facts={
            "code": spec.source,
            "label": spec.label,
            "language": spec.language,
            "category": spec.category,
            "id": spec.id,
        },
    )


@dataclass
class DRBSuite:
    """The evaluation benchmark: kernels plus lookup helpers."""

    specs: list[KernelSpec] = field(default_factory=list)

    @classmethod
    def evaluation(cls, seed: int = 0) -> "DRBSuite":
        return cls(generate_eval_suite(seed))

    @classmethod
    def training(cls, n_per_category: int = 12, seed: int = 1) -> "DRBSuite":
        return cls(generate_training_pool(n_per_category, seed))

    def __len__(self) -> int:
        return len(self.specs)

    def by_language(self, language: str) -> list[KernelSpec]:
        return [s for s in self.specs if s.language == language]

    def labels(self) -> dict[str, str]:
        return {s.id: s.label for s in self.specs}

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-language totals and race/no-race splits (paper §4.7.2)."""
        out: dict[str, dict[str, int]] = {}
        for s in self.specs:
            d = out.setdefault(s.language, {"total": 0, "race": 0, "norace": 0})
            d["total"] += 1
            d["race" if s.label == "yes" else "norace"] += 1
        return out

    def chunks(self) -> list[KnowledgeChunk]:
        return [spec_to_chunk(s) for s in self.specs]

    def write_tree(self, out_dir: str | Path) -> int:
        """Write the suite as a scannable source tree — each kernel at
        ``<out>/<language>/<id>.{c,f90}`` plus a ground-truth
        ``manifest.json`` — mirroring the real DataRaceBench layout.
        ``repro scan`` over the result is the suite-level self-test."""
        out_dir = Path(out_dir)
        manifest = []
        for spec in self.specs:
            lang_dir = out_dir / ("c" if spec.language == "C/C++" else "fortran")
            lang_dir.mkdir(parents=True, exist_ok=True)
            ext = "c" if spec.language == "C/C++" else "f90"
            path = lang_dir / f"{spec.id}.{ext}"
            path.write_text(spec.source)
            manifest.append({
                "id": spec.id, "language": spec.language, "category": spec.category,
                "label": spec.label, "file": str(path.relative_to(out_dir)),
            })
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
        return len(manifest)
