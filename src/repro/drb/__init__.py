"""DataRaceBench-equivalent benchmark suite (Lin & Liao, the paper's
evaluation corpus, v1.4.0).

A parametric generator emits OpenMP microkernels in C/C++ and Fortran
across the exact 14 categories of the paper's Table 3 (7 with data races,
7 race-free), with ground-truth labels fixed by construction.  The
evaluation suite matches the paper's composition: 177 C/C++ programs
(88 race / 89 race-free) and 166 Fortran programs (84 / 82).  A separate
training pool (different identifier namespace and parameter regime)
feeds the instruction-data pipeline so fine-tuning never sees evaluation
programs.
"""

from repro.drb.categories import CATEGORY_LABELS, EVAL_COUNTS
from repro.drb.generator import KernelSpec, generate_eval_suite, generate_training_pool
from repro.drb.suite import DRBSuite, spec_to_chunk

__all__ = [
    "CATEGORY_LABELS",
    "EVAL_COUNTS",
    "KernelSpec",
    "generate_eval_suite",
    "generate_training_pool",
    "DRBSuite",
    "spec_to_chunk",
]
