"""The shared ensemble executor: the Table-5 harness and repository scans
run the same detectors through :func:`run_detectors`, and a failure
stays with its (detector, program) pair on both paths."""

import json

import pytest

import repro.runtime.machine as machine_mod
from repro.detectors import Detector, Verdict, build_tool_detectors, run_detectors
from repro.drb import DRBSuite
from repro.drb.generator import KernelSpec
from repro.eval import EvaluationHarness
from repro.runtime import Machine, MachineConfig, execute
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
# Parses, but indexes one past the end of ``a`` on every schedule.
OUT_OF_BOUNDS_C = (
    "int i;\n"
    "double a[4];\n"
    "#pragma omp parallel for\n"
    "for (i = 0; i < 4; i++) { a[i + 1] = 1; }\n"
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

    # The reasons reach the JSON report, next to the verdicts.
    payload = json.loads(report.to_json())
    details = {k["file"].removesuffix(".c"): k["details"] for k in payload["kernels"]}
    assert details["racy"] == {"Flaky": "RuntimeError: flaky on the stencil"}
    assert details["safe"] == {}
    dynamic = {d.name for d in detectors if d.kind == "dynamic"}
    assert set(details["divzero"]) == dynamic
    for detail in details["divzero"].values():
        assert detail == "ExecutionError: integer division by zero"
    assert payload["totals"]["tool_failures"] == 1 + len(dynamic)


def test_failure_reasons_survive_the_verdict_cache(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "divzero.c").write_text(DIV_ZERO_C)
    config = ScanConfig(tools_only=True, cache_dir=tmp_path / "cache", n_schedules=2)
    cold = ScanPipeline(config=config).scan(root)
    warm = ScanPipeline(config=config).scan(root)
    assert warm.totals["cache_hits"] == 1
    assert warm.kernels[0].details == cold.kernels[0].details != {}
    assert warm.totals["tool_failures"] == cold.totals["tool_failures"] == 3

    # Entries written before reasons were cached carry no "details" key.
    pipeline = ScanPipeline(config=config)
    (key,) = [p.stem for p in (tmp_path / "cache").rglob("*.json")]
    payload = pipeline.cache.get(key)
    del payload["details"]
    pipeline.cache.put(key, payload)
    old = pipeline.scan(root)
    assert old.totals["cache_hits"] == 1
    assert old.kernels[0].details == {}
    assert old.totals["tool_failures"] == 0


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


class _CountingExecute:
    """Stands in for the machine's ``execute``: records the seed of each
    schedule run and raises on the seeds in ``failing``."""

    def __init__(self, failing=()):
        self.seeds = []
        self.failing = set(failing)

    def __call__(self, code, **kwargs):
        seed = kwargs["schedule_seed"]
        self.seeds.append(seed)
        if seed in self.failing:
            raise RuntimeError(f"schedule {seed} failed")
        return execute(code, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    def install(failing=()):
        counter = _CountingExecute(failing)
        monkeypatch.setattr(machine_mod, "execute", counter)
        return counter

    return install


def _dynamic_run(specs, n_schedules=3):
    """The three dynamic tools over ``specs`` on one lazy exploration
    each, as scan and the harness run them."""
    tools = [d for d in build_tool_detectors() if d.kind == "dynamic"]
    assert {d.name for d in tools} == {"Intel Inspector", "ROMP", "Thread Sanitizer"}
    machine = Machine(MachineConfig(n_schedules=n_schedules))
    results = run_detectors(tools, specs, lambda spec: machine.traces(spec.parse()))
    return {(name, r.program_id): r for name, col in results.items() for r in col}


def test_race_free_kernel_runs_each_schedule_once(counting):
    counter = counting()
    results = _dynamic_run([_spec("safe")])
    assert {r.verdict for r in results.values()} == {Verdict.NO_RACE}
    assert sorted(counter.seeds) == [0, 1, 2]


def test_racy_kernel_settled_on_schedule_0_runs_once(counting):
    counter = counting()
    results = _dynamic_run([_spec("racy")])
    assert {r.verdict for r in results.values()} == {Verdict.RACE}
    assert counter.seeds == [0]


def test_failing_schedule_lands_only_on_its_readers(counting):
    counter = counting(failing={1})
    results = _dynamic_run([_spec("racy"), _spec("safe")])
    reason = "RuntimeError: schedule 1 failed"
    # Both thread-level tools read schedule 1 of the race-free kernel.
    for tool in ("Thread Sanitizer", "Intel Inspector"):
        assert results[tool, "safe"].verdict is Verdict.UNSUPPORTED
        assert results[tool, "safe"].detail == reason
        # ... but settled the racy one on schedule 0.
        assert results[tool, "racy"].verdict is Verdict.RACE
        assert results[tool, "racy"].detail == ""
    # ROMP reads schedule 0 only.
    assert results["ROMP", "safe"].verdict is Verdict.NO_RACE
    assert results["ROMP", "racy"].verdict is Verdict.RACE
    # The failing schedule ran once, although two tools read it.
    seeds = counter.seeds
    assert seeds.count(1) == 1 and seeds.count(0) == 2 and seeds.count(2) == 0


def test_out_of_bounds_schedule_is_unsupported_for_every_reader(counting):
    # IndexError must not read as the end of the schedule sequence.
    counter = counting()
    spec = KernelSpec("oob", "C/C++", "Test", "no", OUT_OF_BOUNDS_C, frozenset())
    results = _dynamic_run([spec])
    for tool in ("Thread Sanitizer", "Intel Inspector", "ROMP"):
        assert results[tool, "oob"].verdict is Verdict.UNSUPPORTED
        assert results[tool, "oob"].detail.startswith("IndexError: array 'a' index 4 out of bounds")
    assert counter.seeds == [0]
    with pytest.raises(IndexError, match="out of bounds"):
        Machine(MACHINE).any_hb_race(spec.parse())


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
