"""MLPerf-results-style structured knowledge (the paper's second Task-1
source: the MLPerf Training v3.0 results spreadsheet).

Rows carry the five fields of Table 2's MLPerf block — Submitter,
System, Processor, Accelerator, Software — anchored on the real example
the paper uses in Listing 4: accelerator ``NVIDIA H100-SXM5-80GB`` with
software ``MXNet NVIDIA Release 23.04`` on system ``dgxh100_n64``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import derive_rng

#: Field names (Table 2, MLPerf subtasks).
MLPERF_FIELDS: tuple[str, ...] = ("Submitter", "System", "Processor", "Accelerator", "Software")


@dataclass(frozen=True)
class MLPerfRow:
    """One submission row of the results table."""

    submitter: str
    system: str
    processor: str
    accelerator: str
    software: str
    benchmark: str = "ResNet"

    def field(self, name: str) -> str:
        return {
            "Submitter": self.submitter,
            "System": self.system,
            "Processor": self.processor,
            "Accelerator": self.accelerator,
            "Software": self.software,
        }[name]


# The paper's Listing-4 anchor row plus a 16-node SPR row quoted in §4.3.
_ANCHORS: tuple[MLPerfRow, ...] = (
    MLPerfRow(
        submitter="NVIDIA",
        system="dgxh100_n64",
        processor="Intel(R) Xeon(R) Platinum 8480C",
        accelerator="NVIDIA H100-SXM5-80GB",
        software="MXNet NVIDIA Release 23.04",
        benchmark="ResNet",
    ),
    MLPerfRow(
        submitter="Intel",
        system="16-nodes-SPR-pytorch",
        processor="Intel(R) Xeon(R) Platinum 8462Y+",
        accelerator="N/A",
        software="PyTorch NVIDIA Release 23.04",
        benchmark="BERT",
    ),
)

_SUBMITTERS = ["NVIDIA", "Intel", "Google", "Dell", "HPE", "Lenovo", "Supermicro", "Azure"]
_PROCESSORS = [
    "Intel(R) Xeon(R) Platinum 8480C",
    "Intel(R) Xeon(R) Platinum 8462Y+",
    "Intel(R) Xeon(R) Platinum 8380",
    "AMD EPYC 7763",
    "AMD EPYC 9654",
    "AMD EPYC 7713",
    "Intel(R) Xeon(R) Gold 6348",
    "Intel(R) Xeon(R) Gold 6338",
    "AMD EPYC 7543",
    "Intel(R) Xeon(R) Platinum 8368",
]
_ACCELERATORS = [
    "NVIDIA H100-SXM5-80GB",
    "NVIDIA H100-PCIe-80GB",
    "NVIDIA A100-SXM4-80GB",
    "NVIDIA A100-SXM4-40GB",
    "NVIDIA A100-PCIE-40GB",
    "NVIDIA L40S",
    "NVIDIA L4",
    "TPU-v4",
    "TPU-v5e",
    "Intel Habana Gaudi2",
    "AMD Instinct MI250X",
    "AMD Instinct MI300A",
]
_SOFTWARE = [
    "MXNet NVIDIA Release 23.04",
    "PyTorch NVIDIA Release 23.04",
    "PyTorch NVIDIA Release 23.03",
    "TensorFlow 2.12",
    "TensorFlow 2.11",
    "JAX 0.4.13",
    "PyTorch 2.0.1",
    "PyTorch 1.13.1",
    "PaddlePaddle 2.4",
    "OneFlow 0.9",
]
_BENCHMARKS = [
    "ResNet", "BERT", "DLRM-dcnv2", "RetinaNet", "GPT-3", "U-Net3D", "RNN-T",
    "Mask R-CNN", "SSD", "Stable Diffusion", "MiniGo", "Transformer",
]


def _system_name(submitter: str, accel: str, nodes: int) -> str:
    accel_tag = (
        accel.split("-")[0].split()[-1].lower() if accel != "N/A" else "cpu"
    )
    return f"{submitter.lower()}_{accel_tag}_n{nodes}"


def build_mlperf_table(n_rows: int = 24, seed: int = 0) -> list[MLPerfRow]:
    """Synthesise the deterministic results table (anchors first).

    The (accelerator, software) pair is unique per row so that the
    paper's "what is the System given accelerator X and software Y"
    questions are well posed.
    """
    rng = derive_rng(seed, "knowledge/mlperf")
    rows: list[MLPerfRow] = list(_ANCHORS)
    # (accelerator, software) uniquely determines the system so that
    # Listing-4-style questions have a single ground-truth answer.
    seen = {(r.accelerator, r.software) for r in rows}
    seen_systems = {r.system for r in rows}
    max_combos = len(_ACCELERATORS) * len(_SOFTWARE) + len(_ANCHORS)
    if n_rows > max_combos:
        raise ValueError(f"n_rows {n_rows} exceeds distinct (accelerator, software) combos {max_combos}")
    while len(rows) < n_rows:
        submitter = _SUBMITTERS[int(rng.integers(len(_SUBMITTERS)))]
        accel = _ACCELERATORS[int(rng.integers(len(_ACCELERATORS)))]
        nodes = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
        system = _system_name(submitter, accel, nodes)
        software = _SOFTWARE[int(rng.integers(len(_SOFTWARE)))]
        # System names are also unique so per-system questions ("what
        # processor does X use") have a single ground-truth answer.
        if (accel, software) in seen or system in seen_systems:
            continue
        seen.add((accel, software))
        seen_systems.add(system)
        rows.append(
            MLPerfRow(
                submitter=submitter,
                system=system,
                processor=_PROCESSORS[int(rng.integers(len(_PROCESSORS)))],
                accelerator=accel,
                software=software,
                benchmark=_BENCHMARKS[int(rng.integers(len(_BENCHMARKS)))],
            )
        )
    return rows
