"""Every planned schedule of one program, the reference for the
machine's lazy traces: those stop after schedule 0 of a race-free
schedule-invariant program, these never stop early."""

from __future__ import annotations

from repro.runtime import CompiledProgram, Machine, execute


class EverySchedule:
    """Runs each of ``machine.schedule_plan()`` once, on first read.  A
    schedule that raises is kept and re-raised to each reader that gets
    that far, as the machine does."""

    def __init__(self, program, machine: Machine) -> None:
        self.code = CompiledProgram(program)
        self.n_threads = machine.config.n_threads
        self.plan = machine.schedule_plan()
        self.runs: list = []

    def __iter__(self):
        for k, seed in enumerate(self.plan):
            if k == len(self.runs):
                try:
                    run = execute(self.code, n_threads=self.n_threads, schedule_seed=seed)
                except Exception as exc:  # noqa: BLE001 - kept like the machine does
                    run = exc
                self.runs.append(run)
            if isinstance(self.runs[k], Exception):
                raise self.runs[k]
            yield self.runs[k]
