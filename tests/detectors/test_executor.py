"""The shared ensemble executor: the Table-5 harness and repository scans
run the same detectors through :func:`run_detectors`, and a failure
stays with its (detector, program) pair on both paths."""

import pytest

from repro.detectors import Detector, Verdict, build_tool_detectors, run_detectors
from repro.drb import DRBSuite
from repro.drb.generator import KernelSpec
from repro.eval import EvaluationHarness
from repro.runtime import Machine, MachineConfig
from repro.scan import ScanConfig, ScanPipeline

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
# Parses, but the runtime rejects it (division by zero on every schedule).
DIV_ZERO_C = (
    "int i;\n"
    "double a[4];\n"
    "#pragma omp parallel for\n"
    "for (i = 0; i < 4; i++) { a[i] = 1 / (i - i); }\n"
)
SOURCES = {"racy": RACY_C, "safe": SAFE_C, "divzero": DIV_ZERO_C}
MACHINE = MachineConfig(n_schedules=2)


class FlakyDetector(Detector):
    """A static tool that crashes on the racy kernel only."""

    name = "Flaky"

    def detect(self, spec, traces=None):
        if "y[i-1]" in spec.source:
            raise RuntimeError("flaky on the stencil")
        return Verdict.NO_RACE


def _spec(key: str) -> KernelSpec:
    return KernelSpec(key, "C/C++", "Test", "yes" if key == "racy" else "no",
                      SOURCES[key], frozenset())


@pytest.fixture(scope="module")
def expected():
    """Each real tool's verdict on the two healthy kernels, one
    program at a time."""
    machine = Machine(MACHINE)
    out = {}
    for key in ("racy", "safe"):
        spec = _spec(key)
        traces = machine.traces(spec.parse())
        for det in build_tool_detectors():
            out[det.name, key] = det.run(spec, traces).verdict
    return out


def _check(verdicts: dict, expected: dict) -> None:
    """``verdicts[(tool, kernel)]`` against the contained-failure rule."""
    for det in build_tool_detectors():
        for key in ("racy", "safe"):
            assert verdicts[det.name, key] == expected[det.name, key]
        # Only the tools that need traces lose the rejected kernel.
        unsupported = verdicts[det.name, "divzero"] == Verdict.UNSUPPORTED
        assert unsupported == (det.kind == "dynamic")
    assert verdicts["Flaky", "racy"] == Verdict.UNSUPPORTED
    assert verdicts["Flaky", "safe"] == Verdict.NO_RACE
    assert verdicts["Flaky", "divzero"] == Verdict.NO_RACE


def test_failures_are_contained_in_harness_and_scan(expected, tmp_path):
    detectors = build_tool_detectors() + [FlakyDetector()]

    # The Table-5 harness.
    suite = DRBSuite([_spec(key) for key in SOURCES])
    out = EvaluationHarness(suite, MACHINE).run(detectors, languages=("C/C++",))
    results = {
        (r.tool, r.program_id): r for det in detectors
        for r in out.results[f"{det.name}|C/C++"]
    }
    _check({k: r.verdict for k, r in results.items()}, expected)
    assert results["Flaky", "racy"].detail == "RuntimeError: flaky on the stencil"
    assert results["Thread Sanitizer", "divzero"].detail.startswith("ExecutionError: ")
    assert results["LLOV", "racy"].detail == ""

    # A repository scan of the same three kernels.
    root = tmp_path / "proj"
    root.mkdir()
    for key, source in SOURCES.items():
        (root / f"{key}.c").write_text(source)
    pipeline = ScanPipeline(
        config=ScanConfig(tools_only=True, use_cache=False, n_schedules=2),
        detectors=detectors,
    )
    report = pipeline.scan(root)
    verdicts = {
        (tool, k.file.removesuffix(".c")): Verdict(v)
        for k in report.kernels for tool, v in k.verdicts.items()
    }
    _check(verdicts, expected)


def test_traces_generated_once_and_only_when_needed():
    calls = []

    def traces_of(spec):
        calls.append(spec.id)
        return Machine(MACHINE).traces(spec.parse())

    specs = [_spec("racy"), _spec("safe")]
    tools = build_tool_detectors()
    run_detectors(tools, specs, traces_of)
    assert calls == ["racy", "safe"]

    calls.clear()
    static = [d for d in tools if d.kind == "static"]
    results = run_detectors(static, specs, traces_of)
    assert calls == []
    assert [r.program_id for r in results["LLOV"]] == ["racy", "safe"]


class BatchedFlakyDetector(FlakyDetector):
    """A batched ``run_many`` override with no containment of its own:
    one bad program sinks the whole batch."""

    name = "BatchedFlaky"

    def run_many(self, specs, traces_list=None):
        return [self.run(spec) for spec in specs]


def test_raising_batch_is_retried_program_by_program():
    def no_traces(spec):
        raise AssertionError("no dynamic detector asked for traces")

    specs = [_spec(key) for key in SOURCES]
    (results,) = run_detectors([BatchedFlakyDetector()], specs, no_traces).values()
    assert [r.verdict for r in results] == [
        Verdict.UNSUPPORTED, Verdict.NO_RACE, Verdict.NO_RACE,
    ]
    assert results[0].detail == "RuntimeError: flaky on the stencil"
