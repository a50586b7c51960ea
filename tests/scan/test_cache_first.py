"""Rescans look up the verdict cache before parsing: a file whose
whole-file kernel is cached with ``parse_ok`` is rebuilt from its text
alone, so an unchanged tree costs one read and one hash per file.

Tools-only throughout (no model build)."""

import dataclasses
from collections import Counter

import pytest

import repro.openmp
from repro.drb import DRBSuite
from repro.scan import ScanConfig, ScanPipeline
from repro.scan.cache import VerdictCache
from repro.scan.extractor import extract_kernels, whole_file_kernel
from repro.scan.walker import walk_tree

RACY_C = (
    "int i;\n"
    "double y[32], x[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
)
SAFE_C = (
    "int i;\n"
    "double a[32], b[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 0; i < 32; i++) { a[i] = b[i]; }\n"
)
SERIAL_C = "int i;\ndouble z[64];\nfor (i = 3; i < 64; i++) {\n  z[i] = z[i-3] + 1;\n}\n"
UNPARSEABLE_C = "int main(void) { return 0; }\n"
#: Tier 2: two function-context kernels.
FUNCTIONS_C = (
    "void f(double *y) {\n"
    "  #pragma omp parallel for\n"
    "  for (int i = 1; i < 32; i++) y[i] = y[i-1];\n"
    "}\n"
    "\n"
    "void g(double *y) {\n"
    "  #pragma omp target teams distribute parallel for\n"
    "  for (int i = 0; i < 32; i++) y[i] = 0.0;\n"
    "}\n"
)
#: Tier 2: the directive lies outside every function, so the one kernel
#: spans the whole file and has the whole-file key, but does not parse.
OUTSIDE_C = (
    "#include <stdio.h>\n"
    "double y[8];\n"
    "#pragma omp target teams distribute parallel for\n"
    "for (int i = 1; i < 8; i++) y[i] = y[i-1];\n"
)


def fortran_kernel() -> str:
    suite = DRBSuite.evaluation(seed=0)
    return min(
        (s.source for s in suite.by_language("Fortran") if "oversize" not in s.features),
        key=len,
    )


WHOLE_FILE = {
    "racy.c": RACY_C,
    "safe.c": SAFE_C,
    "sub/copy_of_racy.c": RACY_C,  # content duplicate
    "serial.c": SERIAL_C,
}
TIER2 = {"functions.c": FUNCTIONS_C, "outside.c": OUTSIDE_C}


def write_tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


@pytest.fixture()
def tree(tmp_path):
    files = {**WHOLE_FILE, **TIER2, "main.c": UNPARSEABLE_C,
             "kernel.f90": fortran_kernel()}
    return write_tree(tmp_path / "proj", files)


@pytest.fixture()
def parsed(monkeypatch):
    """Every text the front ends parse, counted."""
    texts: Counter = Counter()
    for name in ("parse_c", "parse_fortran"):
        real = getattr(repro.openmp, name)

        def spy(text, *args, _real=real, **kw):
            texts[text] += 1
            return _real(text, *args, **kw)

        monkeypatch.setattr(repro.openmp, name, spy)
    return texts


@pytest.fixture()
def built(monkeypatch):
    """Every kernel the pipeline turns into a result, by file."""
    kernels: dict = {}
    real = ScanPipeline._result

    def spy(self, kernel, payload, cached):
        kernels.setdefault(kernel.file, []).append(kernel)
        return real(self, kernel, payload, cached)

    monkeypatch.setattr(ScanPipeline, "_result", spy)
    return kernels


def pipeline(tmp_path, **kw):
    return ScanPipeline(config=ScanConfig(tools_only=True, cache_dir=tmp_path / "cache", **kw))


def comparable(report):
    """Everything in a report but per-kernel ``cached`` and the timings
    and cache counters a warm scan changes by design."""
    return (
        [k.to_dict() | {"cached": None} for k in report.kernels],
        report.files,
        {k: v for k, v in report.totals.items() if k != "cache_hits"},
        report.detectors,
    )


def assert_same_kernel(built, extracted):
    for field in dataclasses.fields(extracted):
        if field.name != "program":
            assert getattr(built, field.name) == getattr(extracted, field.name), field.name


class TestExtractorParity:
    def test_suite_files_are_their_whole_file_kernel(self, tmp_path):
        """For every exported suite file, the kernel built from the
        text alone equals the extractor's one kernel, field by field."""
        DRBSuite.evaluation(seed=0).write_tree(tmp_path)
        files, _ = walk_tree(tmp_path)
        assert len(files) == 343
        for f in files:
            (extracted,) = extract_kernels(f)
            built = whole_file_kernel(f)
            assert built.parse_ok and built.program is None
            assert_same_kernel(built, extracted)

    def test_warm_kernels_equal_extracted_ones(self, tree, tmp_path, built):
        pipeline(tmp_path).scan(tree)
        built.clear()
        pipeline(tmp_path).scan(tree)
        files, _ = walk_tree(tree)
        extracted = {f.relpath: extract_kernels(f) for f in files}
        assert set(built) == {rel for rel, ks in extracted.items() if ks}
        for rel, kernels in built.items():
            assert len(kernels) == len(extracted[rel])
            for b, e in zip(sorted(kernels, key=lambda k: k.start_line), extracted[rel]):
                assert_same_kernel(b, e)
        (outside,) = built["outside.c"]
        assert not outside.parse_ok  # a whole-span tier-2 kernel stays unparsed


class TestWarmRescan:
    def test_whole_file_kernels_are_not_parsed(self, tree, tmp_path, parsed):
        cold = pipeline(tmp_path).scan(tree)
        for text in (RACY_C, SAFE_C, SERIAL_C, fortran_kernel(), FUNCTIONS_C, OUTSIDE_C):
            assert parsed[text] >= 1
        parsed.clear()
        warm = pipeline(tmp_path).scan(tree)
        for text in (RACY_C, SAFE_C, SERIAL_C, fortran_kernel()):
            assert parsed[text] == 0, text
        # Tier-2 files and files that yield no kernel are still parsed.
        assert parsed[FUNCTIONS_C] == 1 and parsed[OUTSIDE_C] == 2
        assert parsed[UNPARSEABLE_C] == 1
        assert sum(parsed.values()) == 6  # plus f() and g() on their own
        assert comparable(warm) == comparable(cold)
        assert all(k.cached for k in warm.kernels)
        assert warm.totals["cache_hits"] == warm.totals["kernels"] == 8
        unique = cold.totals["unique_kernels"]
        assert unique == 7
        assert cold.cache == {"hits": 0, "misses": unique, "writes": unique}
        assert warm.cache == {"hits": unique, "misses": 0, "writes": 0}

    def test_editing_one_whole_file_kernel_parses_only_it(self, tmp_path, parsed):
        root = write_tree(tmp_path / "proj", WHOLE_FILE)
        cold = pipeline(tmp_path).scan(root)
        parsed.clear()
        edited = SAFE_C + "// revision 1\n"
        (root / "safe.c").write_text(edited)
        report = pipeline(tmp_path).scan(root)
        assert parsed == Counter({edited: 1})
        by_file = {k.file: k for k in report.kernels}
        assert [k.file for k in report.kernels if not k.cached] == ["safe.c"]
        assert by_file["safe.c"].verdicts == {k.file: k for k in cold.kernels}["safe.c"].verdicts
        assert report.cache == {"hits": 2, "misses": 1, "writes": 1}

    def test_cold_whole_file_tree_reads_each_unique_key_once(
        self, tmp_path, monkeypatch
    ):
        root = write_tree(tmp_path / "proj", WHOLE_FILE)
        keys: Counter = Counter()
        real = VerdictCache.get

        def spy(self, key):
            keys[key] += 1
            return real(self, key)

        monkeypatch.setattr(VerdictCache, "get", spy)
        report = pipeline(tmp_path).scan(root)
        assert report.totals["unique_kernels"] == 3
        assert len(keys) == 3 and set(keys.values()) == {1}

    def test_without_cache_every_scan_parses_every_file(self, tree, tmp_path, parsed):
        counts = []
        for _ in range(2):
            parsed.clear()
            report = pipeline(tmp_path, use_cache=False).scan(tree)
            counts.append(dict(parsed))
            assert report.cache == {"hits": 0, "misses": 7, "writes": 0}
        assert counts[0] == counts[1]
        for text in (RACY_C, SAFE_C, SERIAL_C, fortran_kernel()):
            assert counts[0][text] >= 1
