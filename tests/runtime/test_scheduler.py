"""The seeded uniform scheduler: semantics-preserving at every seed,
reproducible per seed, and exploring different interleavings across
the seeds a :class:`Machine` plans."""

import numpy as np
import pytest

from repro.openmp import parse_c
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.machine import hb_races

# The seeds of the scan and Table-5 default, MachineConfig(n_schedules=4).
SEEDS = (0, 1, 2, 3)

RACE_FREE = """
int i;
double a[32];
#pragma omp parallel for
for (i = 0; i < 32; i++) { a[i] = i * 2; }
"""

# Race-free with a lock: the schedule picks who enters first.
LOCKED = """
int i;
double s[1];
#pragma omp parallel for
for (i = 0; i < 8; i++) {
  #pragma omp critical
  { s[0] = s[0] + 1; }
}
"""

CONTENDED = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 16; i++) { s = s + 1; }
"""


def _order(trace) -> list[tuple]:
    return [(e.seq, e.tid, e.loc, e.is_write) for e in trace.events]


@pytest.mark.parametrize("seed", SEEDS)
def test_scheduler_preserves_race_free_semantics(seed):
    trace = execute(parse_c(RACE_FREE), n_threads=4, schedule_seed=seed)
    np.testing.assert_allclose(trace.final_arrays["a"], np.arange(32) * 2.0)
    assert not hb_races(trace)
    assert trace.schedule_seed == seed


@pytest.mark.parametrize("seed", SEEDS)
def test_scheduler_detects_unconditional_race(seed):
    trace = execute(parse_c(CONTENDED), n_threads=2, schedule_seed=seed)
    assert hb_races(trace, max_reports=1)


def test_same_seed_gives_same_trace():
    """A seed fixes the whole interleaving, so caches and goldens keyed
    by seed stay valid."""
    prog = parse_c(CONTENDED)
    a = execute(prog, n_threads=2, schedule_seed=5)
    b = execute(prog, n_threads=2, schedule_seed=5)
    assert _order(a) == _order(b)


def test_seeds_explore_different_interleavings():
    prog = parse_c(CONTENDED)
    orders = {tuple(_order(execute(prog, n_threads=2, schedule_seed=s))) for s in SEEDS}
    assert len(orders) > 1


def test_critical_section_serialises_at_every_seed():
    prog = parse_c(LOCKED)
    for seed in SEEDS:
        trace = execute(prog, n_threads=2, schedule_seed=seed)
        # s[0] starts at 1.0 (the memory's deterministic init).
        np.testing.assert_allclose(trace.final_arrays["s"], [1.0 + 8])
        assert not hb_races(trace)


def test_machine_runs_consecutive_seeds():
    cfg = MachineConfig(n_threads=2, n_schedules=5, base_seed=3)
    traces = list(Machine(cfg).traces(parse_c(LOCKED)))
    assert [t.schedule_seed for t in traces] == [3, 4, 5, 6, 7]


def test_machine_config_rejects_empty_team_or_budget():
    with pytest.raises(ValueError):
        MachineConfig(n_schedules=0)
    with pytest.raises(ValueError):
        MachineConfig(n_threads=0)


def test_dynamic_schedule_spreads_iterations():
    src = """
int i;
double a[24];
#pragma omp parallel for schedule(dynamic)
for (i = 0; i < 24; i++) { a[i] = 1; }
"""
    prog = parse_c(src)
    for seed in SEEDS:
        trace = execute(prog, n_threads=2, schedule_seed=seed)
        writers = {e.tid for e in trace.events if e.is_write}
        assert writers == {0, 1}, seed
        np.testing.assert_allclose(trace.final_arrays["a"], np.ones(24))
