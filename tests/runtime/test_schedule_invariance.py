"""Settling on schedule 0: a schedule-invariant program whose first
schedule has no race runs no other schedule, and no tool can tell.

The suite-wide and generated-program checks hold every dynamic tool's
result (verdict and detail) under the early stop to its result over
every planned schedule.  The unit checks pin which constructs the
classification admits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import build_tool_detectors, run_detectors
from repro.drb import CATEGORY_LABELS, DRBSuite
from repro.drb.generator import KernelSpec
from repro.drb.params import Params
from repro.drb.templates_c import C_TEMPLATES
from repro.drb.templates_fortran import F_TEMPLATES
from repro.openmp import parse_c
from repro.runtime import CompiledProgram, Machine, MachineConfig
from repro.runtime.machine import hb_races

from support.any_race import any_hb_race
from support.every_schedule import EverySchedule


@pytest.fixture(scope="module")
def suite():
    return DRBSuite.evaluation(seed=0)


@pytest.mark.parametrize(
    "config",
    [
        MachineConfig(n_threads=2, n_schedules=4),
        MachineConfig(n_threads=2, n_schedules=8),
    ],
    ids=["scan-default-2x4", "2x8"],
)
def test_early_stop_matches_every_schedule_on_suite(suite, config):
    assert_early_stop_matches(suite.specs, Machine(config))


def assert_early_stop_matches(specs: list[KernelSpec], machine: Machine) -> None:
    tools = [d for d in build_tool_detectors() if d.kind == "dynamic"]
    fast = run_detectors(tools, specs, lambda s: machine.traces(s.parse()))
    full = run_detectors(tools, specs, lambda s: EverySchedule(s.parse(), machine))
    assert len(fast) == 3
    for name, results in fast.items():
        for got, want in zip(results, full[name], strict=True):
            assert got == want, (name, got.program_id)


TEMPLATES = {"C/C++": C_TEMPLATES, "Fortran": F_TEMPLATES}


@st.composite
def generated_kernels(draw) -> KernelSpec:
    """A kernel from a drawn template of a drawn category and language,
    with parameters from a drawn seed (the evaluation split's pools)."""
    language = draw(st.sampled_from(sorted(TEMPLATES)))
    category = draw(st.sampled_from(sorted(TEMPLATES[language])))
    template = draw(st.sampled_from(TEMPLATES[language][category]))
    seed = draw(st.integers(0, 2**32 - 1))
    source, features = template(Params(np.random.default_rng(seed), "eval"))
    return KernelSpec(
        id=f"{template.__name__}@{seed}", language=language, category=category,
        label=CATEGORY_LABELS[category], source=source, features=features,
    )


@settings(max_examples=100, deadline=None)
@given(generated_kernels())
def test_early_stop_matches_every_schedule_on_generated_kernels(spec):
    assert_early_stop_matches([spec], Machine(MachineConfig(n_threads=2, n_schedules=8)))


def test_any_hb_race_matches_every_schedule_on_suite(suite):
    machine = Machine(MachineConfig(n_threads=2, n_schedules=4))
    for spec in suite.specs:
        program = spec.parse()
        want = any(hb_races(t, max_reports=1) for t in EverySchedule(program, machine))
        assert any_hb_race(machine, program) == want, spec.id


def test_suite_has_293_invariant_kernels(suite):
    invariant = sum(CompiledProgram(s.parse()).schedule_invariant for s in suite.specs)
    assert (len(suite.specs), invariant) == (343, 293)


def _invariant(body: str, decls: str = "int i, j;\ndouble a[64], b[64], s;\n") -> bool:
    return CompiledProgram(parse_c(decls + body)).schedule_invariant


VARIANT = {
    "critical": """#pragma omp parallel for
for (i = 0; i < 8; i++) {
  #pragma omp critical
  { s = s + 1; }
}
""",
    "atomic": """#pragma omp parallel for
for (i = 0; i < 8; i++) {
  #pragma omp atomic
  s = s + 1;
}
""",
    "ordered_block": """#pragma omp parallel for
for (i = 1; i < 8; i++) {
  #pragma omp ordered
  { a[i] = a[i-1] + 1; }
}
""",
    "ordered_clause": """#pragma omp parallel for ordered
for (i = 0; i < 8; i++) { a[i] = b[i]; }
""",
    "single": """#pragma omp parallel
{
  #pragma omp single
  a[0] = 1;
}
""",
    "schedule_dynamic": """#pragma omp parallel for schedule(dynamic)
for (i = 0; i < 8; i++) { a[i] = b[i]; }
""",
}

INVARIANT = {
    "master": """#pragma omp parallel
{
  #pragma omp master
  a[0] = 1;
}
""",
    "reduction": """#pragma omp parallel for reduction(+:s)
for (i = 0; i < 8; i++) { s = s + a[i]; }
""",
    "barrier": """#pragma omp parallel
{
  #pragma omp master
  a[0] = 1;
  #pragma omp barrier
  b[1] = a[0];
}
""",
    "simd": """#pragma omp simd
for (i = 0; i < 16; i++) { a[i] = b[i] + 1; }
""",
    "target_teams": """#pragma omp target teams distribute parallel for map(tofrom: a)
for (i = 0; i < 8; i++) { a[i] = a[i] + 1; }
""",
    "nowait": """#pragma omp parallel for nowait
for (i = 0; i < 8; i++) { a[i] = b[i]; }
""",
    "collapse2": """#pragma omp parallel for collapse(2)
for (i = 0; i < 4; i++) {
  for (j = 0; j < 4; j++) { a[i * 4 + j] = b[i * 4 + j]; }
}
""",
    "schedule_static": """#pragma omp parallel for schedule(static)
for (i = 0; i < 8; i++) { a[i] = b[i]; }
""",
}


@pytest.mark.parametrize("name", sorted(VARIANT))
def test_schedule_dependent_constructs_are_variant(name):
    assert not _invariant(VARIANT[name])


@pytest.mark.parametrize("name", sorted(INVARIANT))
def test_determinate_constructs_are_invariant(name):
    assert _invariant(INVARIANT[name])


# Race-free, but which thread runs which iteration depends on the
# interleaving: a dynamic schedule must never be settled on schedule 0.
DYNAMIC_SAFE = """int i;
double a[16], b[16];
#pragma omp parallel for schedule(dynamic)
for (i = 0; i < 16; i++) { a[i] = b[i] + 1; }
"""


def _writer_of_each_cell(trace) -> dict:
    return {e.loc: e.tid for e in trace.events if e.is_write}


def test_race_free_dynamic_kernel_maps_iterations_by_schedule():
    program = parse_c(DYNAMIC_SAFE)
    assert not CompiledProgram(program).schedule_invariant
    machine = Machine(MachineConfig(n_threads=2, n_schedules=4))
    traces = list(EverySchedule(program, machine))
    assert not any(hb_races(t, max_reports=1) for t in traces)
    mappings = [_writer_of_each_cell(t) for t in traces]
    assert any(m != mappings[0] for m in mappings[1:])
    # ... so the machine runs every planned schedule of it.
    assert len(list(machine.traces(program))) == 4


# Whether this races depends on who wins the `single`: the master
# writes s in both places when it does, two threads race when it does not.
SINGLE_WINNER = """double s;
#pragma omp parallel
{
  #pragma omp master
  s = s + 1;
  #pragma omp single nowait
  s = s + 1;
}
"""


@pytest.mark.parametrize("base_seed", range(6))
def test_default_budget_finds_single_winner_race(base_seed):
    """Two schedules from base seed 2 both let the master win; the
    default four find the race from every base seed."""
    machine = Machine(MachineConfig(n_threads=2, n_schedules=4, base_seed=base_seed))
    assert machine.schedule_plan() == [base_seed + k for k in range(4)]
    assert any_hb_race(machine, parse_c(SINGLE_WINNER))
