"""The scan orchestrator: tree -> kernels -> cached ensemble verdicts.

Stages (timed into the report; stages 2-3 together as ``extract_s``):

1. **walk** the tree (:mod:`repro.scan.walker`);
2. **cache** lookup per file, before any parse: the key a file's
   whole-file kernel would have is looked up in the persistent verdict
   store (read once per scan, see :mod:`repro.scan.cache`), and an
   entry that recorded ``parse_ok`` rebuilds that kernel from the line
   count and features it stored — an unchanged file costs one read and
   one hash, with no extraction, no parse, no model and no tools;
3. **extract** OpenMP kernels from every other file
   (:mod:`repro.scan.extractor`), then look up each kernel whose key
   was not read yet;
4. **dedupe** by content hash — identical kernels (vendored copies,
   generated variants) are looked up and detected once and fanned back
   out; ``report.cache`` counts these unique kernels (hits served,
   misses detected, entries written);
5. for the misses: the **tool ensemble** (LLOV / Inspector / ROMP /
   TSan) runs through :func:`repro.detectors.run_detectors`, the same
   executor as the Table-5 harness (shared per-kernel traces, failures
   contained per tool and kernel), while **LLM scoring** routes every
   kernel through :meth:`InferenceEngine.yes_no_margins` in large
   batches — the same calibrated-margin path as single-kernel
   ``detect_race``, so scan verdicts match it exactly.  Every miss's
   verdict is stored at once, as one new cache segment.

The optional ``llm_lock`` serialises only the engine phase, letting the
HTTP server run long scans concurrently with its micro-batched
answer/detect traffic (the model itself is single-threaded).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.datagen.prompts import race_instruction
from repro.detectors.base import Verdict, run_detectors
from repro.detectors.registry import build_tool_detectors
from repro.runtime import Machine, MachineConfig
from repro.scan.cache import VerdictCache, kernel_key, pipeline_fingerprint
from repro.scan.extractor import ExtractedKernel, extract_kernels, whole_file_kernel
from repro.scan.report import KernelResult, ScanReport
from repro.scan.walker import DEFAULT_MAX_BYTES, walk_tree
from repro.utils.languages import normalize_language


@dataclass(frozen=True)
class ScanConfig:
    """Everything that shapes one scan (and the cache fingerprint)."""

    languages: tuple[str, ...] | None = None
    tools_only: bool = False
    llm_version: str = "l2"
    use_cache: bool = True
    cache_dir: str | Path | None = None
    n_threads: int = 2
    n_schedules: int = 4
    base_seed: int = 0
    max_file_bytes: int = DEFAULT_MAX_BYTES


def default_scan_cache_dir() -> Path:
    from repro.llm.registry import default_cache_dir

    return default_cache_dir() / "scan"


class ScanPipeline:
    """Programmatic scanning API (the CLI, server, and bench share it)."""

    def __init__(
        self,
        system=None,
        config: ScanConfig | None = None,
        detectors: list | None = None,
        llm_lock=None,
    ) -> None:
        self.config = config or ScanConfig()
        if self.config.languages:
            # Normalise aliases once, up front (raises on unknown names).
            import dataclasses

            self.config = dataclasses.replace(
                self.config,
                languages=tuple(normalize_language(l) for l in self.config.languages),
            )
        # Build (and thereby validate, here rather than mid-scan) the
        # machine configuration once.
        self._machine_config = MachineConfig(
            n_threads=self.config.n_threads,
            n_schedules=self.config.n_schedules,
            base_seed=self.config.base_seed,
        )
        if not self.config.tools_only and system is None:
            raise ValueError("LLM scanning needs a system; pass tools_only=True to skip it")
        self.system = system
        if detectors is not None:
            self.detectors = detectors
        else:
            # Single-language scans let the registry drop tools that
            # cannot ingest that language at all.
            langs = self.config.languages
            self.detectors = build_tool_detectors(
                langs[0] if langs and len(langs) == 1 else None
            )
        self._llm_lock = llm_lock
        self.cache = (
            VerdictCache(self.config.cache_dir or default_scan_cache_dir())
            if self.config.use_cache
            else None
        )

    # -- fingerprint ---------------------------------------------------------

    def _fingerprint(self) -> str:
        parts = {
            "detectors": sorted(d.name for d in self.detectors),
            "machine": [self.config.n_threads, self.config.n_schedules,
                        self.config.base_seed],
            "tools_only": self.config.tools_only,
        }
        if not self.config.tools_only:
            parts["model"] = self.system.config.cache_key()
            parts["version"] = self.config.llm_version
            parts["threshold"] = self._threshold()
        return pipeline_fingerprint(parts)

    def _threshold(self) -> float:
        if self._llm_lock is not None:
            with self._llm_lock:
                return self.system.threshold(self.config.llm_version)
        return self.system.threshold(self.config.llm_version)

    # -- the scan ------------------------------------------------------------

    def scan(self, root: str | Path) -> ScanReport:
        t0 = time.perf_counter()
        files, walk_stats = walk_tree(
            root, languages=self.config.languages,
            max_bytes=self.config.max_file_bytes,
        )
        t_walk = time.perf_counter()

        fingerprint = self._fingerprint()  # may calibrate: timed as detect
        t_fingerprint = time.perf_counter()
        # One cache read per unique key: a file's whole-file key, then
        # the key of any kernel extracted under another key.
        lookups: dict[str, dict | None] = {}

        def lookup(key: str) -> dict | None:
            if key not in lookups:
                lookups[key] = self.cache.get(key) if self.cache is not None else None
            return lookups[key]

        per_file: list[tuple] = []
        for f in files:
            file_key = kernel_key(f.text, f.language, fingerprint)
            hit = lookup(file_key)
            # A stored parse_ok is this exact text parsing (same
            # language, same fingerprint): precisely when the extractor
            # returns the one whole-file kernel.  A tier-2 kernel that
            # spans the whole file failed that parse, so its entry says
            # parse_ok false and is never trusted here.
            if hit is not None and hit.get("parse_ok") is True:
                kernel = whole_file_kernel(f, hit["lines"], frozenset(hit["features"]))
                keyed = [(file_key, kernel)]
            else:
                keyed = [
                    (file_key if k.source == f.text
                     else kernel_key(k.source, k.language, fingerprint), k)
                    for k in extract_kernels(f)
                ]
            per_file.append((f, keyed))
        t_extract = time.perf_counter()

        # Content-hash dedupe: one verdict per unique (source, language).
        owners: dict[str, list[ExtractedKernel]] = {}
        for _, keyed in per_file:
            for key, k in keyed:
                owners.setdefault(key, []).append(k)

        payloads = {key: hit for key in owners if (hit := lookup(key)) is not None}
        cached_keys = set(payloads)
        misses = [key for key in owners if key not in payloads]
        detected = self._detect_batch([(key, owners[key][0]) for key in misses])
        payloads.update(detected)
        if self.cache is not None:
            self.cache.put(detected)
        t_detect = time.perf_counter()

        results = [
            self._result(k, payloads[key], cached=key in cached_keys)
            for key, group in owners.items()
            for k in group
        ]
        results.sort(key=lambda r: (r.file, r.start_line))

        total_s = time.perf_counter() - t0
        report = ScanReport(
            root=str(root),
            detectors=[d.name for d in self.detectors]
            + ([] if self.config.tools_only else [self._llm_name()]),
            kernels=results,
            files={f.relpath: len(ks) for f, ks in per_file if ks},
        )
        report.totals = {
            "files_scanned": walk_stats.files_taken,
            "files_with_omp": sum(1 for _, ks in per_file if ks),
            "kernels": len(results),
            "unique_kernels": len(owners),
            "cache_hits": sum(len(owners[key]) for key in cached_keys),
            "races": len(report.racy()),
            "disagreements": len(report.disagreements()),
            "tool_failures": sum(len(k.details) for k in results),
        }
        report.timing = {
            "walk_s": round(t_walk - t0, 4),
            "extract_s": round(t_extract - t_fingerprint, 4),
            "detect_s": round(t_detect - t_extract + t_fingerprint - t_walk, 4),
            "total_s": round(total_s, 4),
            "kernels_per_s": round(len(results) / total_s, 2) if total_s > 0 else 0.0,
        }
        # Per unique kernel: served from the cache, detected, stored.
        report.cache = {
            "hits": len(cached_keys),
            "misses": len(misses),
            "writes": len(misses) if self.cache is not None else 0,
        }
        return report

    def _llm_name(self) -> str:
        return f"HPC-GPT ({self.config.llm_version.upper()})"

    # -- detection over the cache misses ------------------------------------

    def _detect_batch(self, items: list[tuple[str, ExtractedKernel]]) -> dict[str, dict]:
        """Ensemble verdicts for unique kernels: the shared executor over
        the parsed kernels, then one LLM batch over all of them."""
        if not items:
            return {}
        # Only kernels the extractor marked parse_ok reach the tools.
        # Parsing again would not do: declaration-only sources parse but
        # are not kernels.  The others stay UNSUPPORTED for every tool.
        parsed = [i for i, (_, k) in enumerate(items) if k.parse_ok]
        machine = Machine(self._machine_config)
        results = run_detectors(
            self.detectors,
            [items[i][1].to_spec() for i in parsed],
            lambda spec: machine.traces(spec.parse()),
        )
        tool_verdicts = [
            {d.name: Verdict.UNSUPPORTED.value for d in self.detectors} for _ in items
        ]
        # Why a tool failed on a kernel ("ExcType: message"), if it did.
        tool_details: list[dict[str, str]] = [{} for _ in items]
        for name, column in results.items():
            for i, result in zip(parsed, column):
                tool_verdicts[i][name] = result.verdict.value
                if result.detail:
                    tool_details[i][name] = result.detail

        llm_verdicts: list[str | None] = [None] * len(items)
        llm_margins: list[float | None] = [None] * len(items)
        if not self.config.tools_only:
            # The exact detect_race path: calibrated yes/no margins from
            # the batched engine, compared against the fitted threshold.
            instructions = [
                race_instruction(k.source, k.language) for _, k in items
            ]
            threshold = self._threshold()
            engine = self.system.engine(self.config.llm_version)
            if self._llm_lock is not None:
                with self._llm_lock:
                    margins = engine.yes_no_margins(instructions)
            else:
                margins = engine.yes_no_margins(instructions)
            for i, margin in enumerate(margins):
                llm_margins[i] = float(margin)
                llm_verdicts[i] = "yes" if margin >= threshold else "no"

        payloads: dict[str, dict] = {}
        for i, (key, kernel) in enumerate(items):
            payloads[key] = {
                "verdicts": tool_verdicts[i],
                "details": tool_details[i],
                "llm_verdict": llm_verdicts[i],
                "llm_margin": llm_margins[i],
                "parse_ok": kernel.parse_ok,
                # What a hit needs to rebuild a whole-file kernel: both
                # follow from the source, wherever the kernel sat.
                "lines": kernel.end_line - kernel.start_line + 1,
                "features": sorted(kernel.features),
            }
        return payloads

    def _result(self, kernel: ExtractedKernel, payload: dict, cached: bool) -> KernelResult:
        return KernelResult(
            id=kernel.id,
            file=kernel.file,
            language=kernel.language,
            start_line=kernel.start_line,
            end_line=kernel.end_line,
            parse_ok=kernel.parse_ok,
            cached=cached,
            verdicts=dict(payload.get("verdicts", {})),
            details=dict(payload.get("details", {})),  # absent in older entries
            llm_verdict=payload.get("llm_verdict"),
            llm_margin=payload.get("llm_margin"),
        )
