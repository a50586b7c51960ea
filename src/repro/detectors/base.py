"""Detector interface and result types."""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable

from repro.drb.generator import KernelSpec
from repro.runtime.interpreter import Trace


class Verdict(str, enum.Enum):
    """A tool's answer for one program."""

    RACE = "yes"
    NO_RACE = "no"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ToolResult:
    """Outcome of running one detector on one program."""

    tool: str
    program_id: str
    verdict: Verdict
    detail: str = ""

    @property
    def supported(self) -> bool:
        """Whether the tool produced a verdict (TSR numerator)."""
        return self.verdict is not Verdict.UNSUPPORTED


class Detector:
    """Base class.  Subclasses define :attr:`name`, :meth:`supports`, and
    :meth:`detect`.

    Dynamic detectors receive a program's traces from
    :func:`run_detectors` (one lazy Machine exploration shared across
    all dynamic tools: a schedule runs when a tool first reads it);
    static and LLM-based detectors ignore them.
    """

    name: str = "detector"
    kind: str = "static"  # static | dynamic | llm
    #: Languages the tool can ingest at all (per-program support is the
    #: finer-grained :meth:`supports`); the registry filters on this.
    languages: tuple[str, ...] = ("C/C++", "Fortran")

    def supports(self, spec: KernelSpec) -> bool:  # pragma: no cover - default
        return True

    def detect(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> Verdict:
        raise NotImplementedError

    def run(self, spec: KernelSpec, traces: Iterable[Trace] | None = None) -> ToolResult:
        """Support check + detection, packaged."""
        if not self.supports(spec):
            return ToolResult(self.name, spec.id, Verdict.UNSUPPORTED)
        verdict = self.detect(spec, traces)
        if not isinstance(verdict, Verdict):
            raise TypeError(f"{self.name}.detect returned {verdict!r}")
        return ToolResult(self.name, spec.id, verdict)

    def run_many(
        self,
        specs: list[KernelSpec],
        traces_list: "list[Iterable[Trace] | None] | None" = None,
    ) -> list[ToolResult]:
        """:meth:`run` once per program; a program the detector raises on
        reports ``UNSUPPORTED`` with the exception as its ``detail``.

        LLM detectors override this to score the whole batch through
        the inference engine in a few batched forwards.
        """
        traces_list = traces_list or [None] * len(specs)
        return [_run_contained(self, spec, traces) for spec, traces in zip(specs, traces_list)]


def _failure_detail(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_contained(det: Detector, spec: KernelSpec, traces: Iterable[Trace] | None) -> ToolResult:
    try:
        return det.run(spec, traces)
    except Exception as exc:  # noqa: BLE001 - one program must not sink the batch
        return ToolResult(det.name, spec.id, Verdict.UNSUPPORTED, _failure_detail(exc))


def run_detectors(
    detectors: list[Detector],
    specs: list[KernelSpec],
    traces_of: Callable[[KernelSpec], Iterable[Trace]],
) -> dict[str, list[ToolResult]]:
    """Run an ensemble over ``specs``; results per detector name, in
    ``specs`` order.  The one executor behind the Table-5 harness and
    repository scans.

    * Each program's traces come from ``traces_of`` once, when the
      ensemble has a dynamic detector; dynamic detectors share them,
      static and LLM detectors get ``None``.  With
      :meth:`repro.runtime.Machine.traces` nothing runs yet: a schedule
      runs when the first tool reads it, and only once.
    * Every detector runs through :meth:`Detector.run_many`, so LLM
      detectors keep their batched path.
    * Failures stay with their (detector, program) pair: a schedule
      that raises makes the program ``UNSUPPORTED`` for the dynamic
      detectors that read it (one that settled its verdict on an
      earlier schedule keeps it), a ``traces_of`` that raises (with
      ``Machine.traces``, only a parse failure) does so for every
      dynamic detector that supports the program, and a batch
      that raises is retried program by program so only the failing
      programs turn ``UNSUPPORTED``.  ``detail`` carries
      ``"ExcType: message"``.
    """
    dynamic = any(d.kind == "dynamic" for d in detectors)
    traces: list[Iterable[Trace] | None] = [None] * len(specs)
    trace_errors: dict[int, str] = {}
    for i, spec in enumerate(specs if dynamic else ()):
        try:
            traces[i] = traces_of(spec)
        except Exception as exc:  # noqa: BLE001 - a program that does not parse
            trace_errors[i] = _failure_detail(exc)

    out: dict[str, list[ToolResult]] = {}
    for det in detectors:
        dyn = det.kind == "dynamic"
        by_index = {
            i: ToolResult(det.name, specs[i].id, Verdict.UNSUPPORTED, error)
            for i, error in trace_errors.items()
            if dyn and det.supports(specs[i])
        }
        todo = [i for i in range(len(specs)) if i not in by_index]
        batch = [specs[i] for i in todo]
        batch_traces = [traces[i] if dyn else None for i in todo]
        try:
            done = det.run_many(batch, batch_traces)
        except Exception:  # noqa: BLE001 - isolate the failing programs
            done = [_run_contained(det, s, t) for s, t in zip(batch, batch_traces)]
        by_index.update(zip(todo, done))
        out[det.name] = [by_index[i] for i in range(len(specs))]
    return out
