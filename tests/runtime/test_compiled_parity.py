"""The compiled runtime against the generator interpreter it replaced.

``support.reference_runtime`` keeps the old runtime as the oracle: an AST
walk per schedule, a scheduler drawing from ``Generator.integers``
directly, NumPy-buffer memory.  The compiled runtime must reproduce it
bit for bit — every event field, the clock values behind each event,
the final arrays, the region count — over the whole DRB evaluation
suite at every seed a default scan explores, on hand-written kernels
covering the constructs the suite uses sparingly, and must fail the
same way (type and message) on the kernels the runtime rejects.
"""

import numpy as np
import pytest
from support.reference_runtime import execute_reference

from repro.drb import DRBSuite
from repro.openmp import parse_c, parse_fortran
from repro.runtime import CompiledProgram, execute
from repro.runtime.interpreter import lemire_draws

# The seeds of the scan and Table-5 default, MachineConfig(n_schedules=4).
SEEDS = (0, 1, 2, 3)


def signature(trace) -> tuple:
    rows = trace.clock_bank.rows
    events = [
        (e.seq, e.tid, e.is_write, e.loc, e.clock_row, rows[e.clock_row],
         e.locks, e.atomic, e.lane, e.region)
        for e in trace.events
    ]
    arrays = {name: (a.dtype.str, a.tobytes()) for name, a in trace.final_arrays.items()}
    return (events, arrays, trace.regions, trace.n_threads, trace.schedule_seed)


def outcome(run) -> tuple:
    try:
        return ("trace", signature(run()))
    except Exception as exc:  # noqa: BLE001 - the failure itself is compared
        return ("error", type(exc).__name__, str(exc))


def assert_parity(program, n_threads: int = 2) -> int:
    """Both runtimes over every seed; returns events seen."""
    code = CompiledProgram(program)  # compiled once, reused for every run
    events = 0
    for seed in SEEDS:
        want = outcome(lambda: execute_reference(program, n_threads, seed))
        got = outcome(lambda: execute(code, n_threads, seed))
        assert got == want, seed
        if want[0] == "trace":
            events += len(want[1][0])
    return events


@pytest.fixture(scope="module")
def suite():
    return DRBSuite.evaluation(seed=0)


def test_evaluation_suite_bit_identical(suite):
    assert len(suite.specs) == 343
    events = 0
    for spec in suite.specs:
        try:
            events += assert_parity(spec.parse())
        except AssertionError as exc:
            raise AssertionError(f"{spec.id}: {exc}") from None
    # 343 specs x 4 seeds.
    assert events == 183_088


CONSTRUCTS_C = {
    "mixed_sync": """
int i, k;
double s, t, a[16], b[16];
#pragma omp parallel
{
  #pragma omp master
  { s = s + 1; }
  #pragma omp barrier
  #pragma omp single
  { t = s * 2; }
  #pragma omp critical(upd)
  { a[0] = a[0] + t; }
  #pragma omp single nowait
  { b[1] = 3; }
  #pragma omp atomic
  s += 2;
  #pragma omp flush
}
""",
    "dyn_collapse": """
int i, j;
double a[64];
#pragma omp parallel for collapse(2) schedule(dynamic, 3)
for (i = 0; i < 8; i++) {
  for (j = 0; j < 8; j++) {
    a[i * 8 + j] = a[i * 8 + j] + i - j;
  }
}
""",
    "indirect_if": """
int i, n;
double x[16], y[16];
int idx[16];
n = 12;
#pragma omp parallel for firstprivate(n)
for (i = 0; i < 16; i++) {
  if (x[idx[i]] > n / 4) {
    y[idx[i]] = x[i] * 2 - y[i % 3];
  } else {
    y[i] += x[idx[i]];
  }
}
""",
    "simd_reduction": """
int i;
double s, a[40], b[40];
#pragma omp simd safelen(3) reduction(+:s)
for (i = 2; i < 40; i++) {
  a[i] = a[i-2] * b[i];
  s = s + a[i];
}
""",
    "target_ordered": """
int i;
double a[20], s;
#pragma omp target teams distribute parallel for
for (i = 1; i < 20; i++) {
  a[i] = a[i-1] + 1;
}
#pragma omp parallel for ordered
for (i = 0; i < 10; i++) {
  #pragma omp ordered
  { s = s + a[i]; }
}
""",
    "private_inner_loop": """
int i, j;
double a[8], t;
#pragma omp parallel for private(j, t)
for (i = 0; i < 8; i++) {
  t = 0;
  for (j = 0; j < i; j++) { t = t + j; }
  a[i] = t;
}
j = 3;
a[j] = a[j] / 2;
""",
    "atomic_arrays": """
int i;
double s, t, h[8], x[32];
int bin[32];
#pragma omp parallel for num_threads(3)
for (i = 0; i < 32; i++) {
  #pragma omp atomic
  h[bin[i]] += x[i];
  #pragma omp atomic
  h[i % 8] = h[i % 8] * 2;
  #pragma omp atomic
  x[0] = i;
  #pragma omp atomic
  s = s + x[i];
  #pragma omp atomic
  t = 3;
}
""",
}

CONSTRUCTS_FORTRAN = {
    "fortran_mixed": """
integer :: i
real :: a(32), s
!$omp parallel do reduction(+:s)
do i = 2, 32
  a(i) = a(i-1) + s
  s = s + a(i)
end do
!$omp end parallel do
""",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTS_C))
@pytest.mark.parametrize("n_threads", [2, 3])
def test_constructs_bit_identical(name, n_threads):
    assert assert_parity(parse_c(CONSTRUCTS_C[name]), n_threads) > 0


@pytest.mark.parametrize("name", sorted(CONSTRUCTS_FORTRAN))
def test_fortran_constructs_bit_identical(name):
    assert assert_parity(parse_fortran(CONSTRUCTS_FORTRAN[name])) > 0


FAILURES = {
    "nested_parallel": """
int i, j;
double a[8];
#pragma omp parallel for
for (i = 0; i < 4; i++) {
  #pragma omp parallel for
  for (j = 0; j < 2; j++) { a[i * 2 + j] = 1; }
}
""",
    "undeclared_array": """
int i;
double a[8];
#pragma omp parallel for
for (i = 0; i < 8; i++) { a[i] = b[i] + 1; }
""",
    "out_of_bounds": """
int i;
double a[8];
#pragma omp parallel for
for (i = 0; i < 8; i++) { a[i+1] = a[i] + 1; }
""",
    "division_by_zero": """
int i;
double a[8];
#pragma omp parallel for
for (i = 0; i < 8; i++) { a[i] = a[i] + 1 / (i - 5); }
""",
    "deadlock": """
double s;
#pragma omp parallel
{
  #pragma omp critical
  {
    s = s + 1;
    #pragma omp barrier
  }
}
""",
}


# The reference's generators hold a `yield` in a `finally`, so closing
# them after a deadlock raises inside __del__; the compiled runtime's do not.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures_identical(name):
    program = parse_c(FAILURES[name])
    for seed in SEEDS:
        want = outcome(lambda: execute_reference(program, 2, seed))
        got = outcome(lambda: execute(program, 2, seed))
        assert want[0] == "error"
        assert got == want, seed


BOUNDS = (1, 2, 3, 4, 13, 1 << 16, 3 << 30)


def test_buffered_draws_match_numpy():
    """``3 << 30`` rejects a quarter of its words, so Lemire's
    rejection loop runs; mixed bounds interleave in one stream."""
    for seed in range(20):
        draw = lemire_draws(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        picks = np.random.default_rng(1000 + seed).integers(len(BOUNDS), size=600)
        for k in picks:
            n = BOUNDS[k]
            assert draw(n) == int(rng.integers(n)), (seed, n)
    for n in BOUNDS + (1 << 32,):
        draw = lemire_draws(np.random.default_rng(7))
        rng = np.random.default_rng(7)
        assert [draw(n) for _ in range(300)] == [int(rng.integers(n)) for _ in range(300)]


def test_buffered_draws_reject_out_of_range_bounds():
    draw = lemire_draws(np.random.default_rng(0))
    for n in (0, -1, (1 << 32) + 1):
        with pytest.raises(ValueError):
            draw(n)
