"""Schedule exploration strategies: selectable, semantics-preserving,
and genuinely more diverse than the seed's uniform-random policy."""

import numpy as np
import pytest

from repro.openmp import parse_c
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.machine import hb_races
from repro.runtime.schedules import SCHEDULE_STRATEGIES

ALL = sorted(SCHEDULE_STRATEGIES)

RACE_FREE = """
int i;
double a[32];
#pragma omp parallel for
for (i = 0; i < 32; i++) { a[i] = i * 2; }
"""

# Race-free with a lock: the schedule picks who enters first, so the
# machine runs every planned schedule of it.
LOCKED = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 8; i++) {
  #pragma omp critical
  { s = s + 1; }
}
"""

CONTENDED = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 16; i++) { s = s + 1; }
"""

# Whether this kernel races depends on which thread wins the `single`:
# if the master wins, both writes come from thread 0 (no conflict);
# otherwise two unordered threads write s.
SCHEDULE_DEPENDENT = """
double s;
#pragma omp parallel
{
  #pragma omp master
  s = s + 1;
  #pragma omp single nowait
  s = s + 1;
}
"""


def test_registry_has_at_least_four_strategies():
    assert {"random", "round_robin", "chunked", "adversarial"} <= set(ALL)


@pytest.mark.parametrize("strategy", ALL)
def test_every_strategy_preserves_race_free_semantics(strategy):
    prog = parse_c(RACE_FREE)
    for seed in (0, 1):
        trace = execute(prog, n_threads=4, schedule_seed=seed, strategy=strategy)
        np.testing.assert_allclose(trace.final_arrays["a"], np.arange(32) * 2.0)
        assert not hb_races(trace)
        assert trace.schedule_strategy == strategy


@pytest.mark.parametrize("strategy", ALL)
def test_every_strategy_detects_unconditional_race(strategy):
    trace = execute(parse_c(CONTENDED), n_threads=2, schedule_seed=0, strategy=strategy)
    assert hb_races(trace, max_reports=1)


def test_random_is_bit_identical_to_seed_scheduler():
    """Same seed, same trace — `random` must consume the RNG exactly
    like the pre-strategy machine so caches and goldens stay valid."""
    prog = parse_c(CONTENDED)
    a = execute(prog, n_threads=2, schedule_seed=5)
    b = execute(prog, n_threads=2, schedule_seed=5, strategy="random")
    assert [(e.seq, e.tid, e.loc, e.is_write) for e in a.events] == [
        (e.seq, e.tid, e.loc, e.is_write) for e in b.events
    ]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown schedule strategy"):
        execute(parse_c(RACE_FREE), strategy="chaos-monkey")
    with pytest.raises(ValueError, match="unknown schedule strategy"):
        MachineConfig(strategies=("random", "chaos-monkey"))
    with pytest.raises(ValueError):
        MachineConfig(strategies=())


def test_machine_cycles_strategies_over_schedule_budget():
    cfg = MachineConfig(
        n_threads=2, n_schedules=5,
        strategies=("random", "round_robin", "adversarial"),
    )
    traces = list(Machine(cfg).traces(parse_c(LOCKED)))
    assert [t.schedule_strategy for t in traces] == [
        "random", "round_robin", "adversarial", "random", "round_robin",
    ]
    assert [t.schedule_seed for t in traces] == [0, 1, 2, 3, 4]


def test_machine_config_accepts_list_strategies():
    cfg = MachineConfig(strategies=["round_robin"])
    assert cfg.strategies == ("round_robin",)


def test_diverse_strategies_find_schedule_dependent_race():
    """Seeds 2..3 of the seed policy schedule the master first into the
    `single`, hiding the race; round-robin and adversarial exploration
    manifest it with the same two-schedule budget."""
    prog = parse_c(SCHEDULE_DEPENDENT)
    seed_policy = Machine(MachineConfig(n_schedules=2, base_seed=2))
    assert not seed_policy.any_hb_race(prog)
    diverse = Machine(
        MachineConfig(
            n_schedules=2, base_seed=2,
            strategies=("round_robin", "adversarial"),
        )
    )
    assert diverse.any_hb_race(prog)


def _alternation(trace, loc):
    events = [e for e in trace.events if e.loc == loc]
    return sum(1 for a, b in zip(events, events[1:]) if a.tid != b.tid) / (
        len(events) - 1
    )


def test_adversarial_interleaves_conflicting_accesses():
    """The adversarial picker schedules conflicting accesses back to
    back: at a contended scalar it alternates threads at every step,
    while chunked bursts barely switch."""
    prog = parse_c(CONTENDED)
    adv = execute(prog, n_threads=2, schedule_seed=0, strategy="adversarial")
    chunked = execute(prog, n_threads=2, schedule_seed=0, strategy="chunked")
    assert _alternation(adv, ("sca", "s")) == 1.0
    assert _alternation(chunked, ("sca", "s")) < 0.25


def test_round_robin_spreads_dynamic_iterations():
    src = """
int i;
double a[24];
#pragma omp parallel for schedule(dynamic)
for (i = 0; i < 24; i++) { a[i] = 1; }
"""
    trace = execute(parse_c(src), n_threads=2, schedule_seed=0, strategy="round_robin")
    writers = {e.tid for e in trace.events if e.is_write}
    assert writers == {0, 1}
    np.testing.assert_allclose(trace.final_arrays["a"], np.ones(24))
