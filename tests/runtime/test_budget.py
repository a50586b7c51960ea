"""The per-execution step budget: runaway kernels fail fast with a
typed error, and the ensemble executor reports it as the reason the
dynamic tools are unsupported."""

import time
from pathlib import Path

import pytest

from repro.detectors import Verdict, build_tool_detectors, run_detectors
from repro.drb.generator import KernelSpec
from repro.openmp import parse_c
from repro.runtime import (
    MAX_ARRAY_CELLS, STEP_BUDGET, BudgetExceeded, ExecutionError, Machine,
    MachineConfig, execute,
)

STENCIL = Path(__file__).resolve().parents[2] / "examples" / "kernels" / "stencil_racy.c"


def runaway_stencil(n: int = 400_000) -> str:
    """The example stencil over ``n`` elements (64 in the example)."""
    text = STENCIL.read_text()
    assert text.count("64") == 3  # two array sizes and the loop bound
    return text.replace("64", str(n))


def test_budget_error_is_an_execution_error():
    assert issubclass(BudgetExceeded, ExecutionError)
    # 100x headroom over the largest DRB evaluation trace (320 events).
    assert STEP_BUDGET >= 100 * 320


def test_runaway_stencil_fails_fast():
    program = parse_c(runaway_stencil())
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="step budget"):
        execute(program)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("where", ["parallel", "serial"])
def test_private_only_loop_is_counted(where):
    """A loop over private state never yields to the scheduler, so its
    iterations must be charged directly."""
    inner = "for (j = 0; j < 1000000000; j++) { t = t + 1; }"
    if where == "parallel":
        src = (
            "int i, j;\ndouble t, a[4];\n"
            "#pragma omp parallel for private(j, t)\n"
            f"for (i = 0; i < 4; i++) {{\n  {inner}\n  a[i] = t;\n}}\n"
        )
    else:
        src = f"int j;\ndouble t;\n{inner}\n"
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        execute(parse_c(src))
    assert time.perf_counter() - start < 5.0


def test_budget_covers_the_whole_execution():
    """Loops that each fit the budget still fail together."""
    half = STEP_BUDGET // 2 + 1
    src = (
        "int i, j;\ndouble t;\n"
        f"for (i = 0; i < {half}; i++) {{ t = t + 1; }}\n"
        f"for (j = 0; j < {half}; j++) {{ t = t + 1; }}\n"
    )
    with pytest.raises(BudgetExceeded):
        execute(parse_c(src))
    ok = src.replace(str(half), str(half // 2))
    execute(parse_c(ok))


def test_runaway_kernel_is_unsupported_with_reason():
    spec = KernelSpec("runaway", "C/C++", "Test", "yes", runaway_stencil(), frozenset())
    machine = Machine(MachineConfig(n_schedules=4))
    start = time.perf_counter()
    results = run_detectors(
        build_tool_detectors(), [spec], lambda s: machine.traces(s.parse())
    )
    assert time.perf_counter() - start < 5.0
    for det in build_tool_detectors():
        (result,) = results[det.name]
        if det.kind == "dynamic":
            assert result.verdict is Verdict.UNSUPPORTED
            assert result.detail.startswith("BudgetExceeded: ")
        else:
            assert result.verdict is Verdict.RACE  # LLOV is static


HUGE_ARRAY = (
    "int i;\n"
    "double a[100000000];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 64; i++) { a[i] = a[i-1] + 1; }\n"
)


def test_array_limit_headroom():
    # The largest DRB declaration total is 240 cells; the 400k runaway
    # stencil (800k cells) must still fail on the step budget instead.
    assert MAX_ARRAY_CELLS >= 1000 * 240
    assert MAX_ARRAY_CELLS > 2 * 400_000


def test_huge_array_fails_before_allocating():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="array limit"):
        execute(parse_c(HUGE_ARRAY))
    assert time.perf_counter() - start < 1.0


def test_huge_array_is_unsupported_with_reason():
    spec = KernelSpec("huge", "C/C++", "Test", "yes", HUGE_ARRAY, frozenset())
    machine = Machine(MachineConfig(n_schedules=4))
    start = time.perf_counter()
    results = run_detectors(
        build_tool_detectors(), [spec], lambda s: machine.traces(s.parse())
    )
    assert time.perf_counter() - start < 1.0
    for det in build_tool_detectors():
        if det.kind == "dynamic":
            (result,) = results[det.name]
            assert result.verdict is Verdict.UNSUPPORTED
            assert result.detail.startswith("BudgetExceeded: ")
            assert "array limit" in result.detail
