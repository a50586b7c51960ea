"""Tests for the DataRaceBench-equivalent suite.

The heavyweight property here is ground-truth validity: every race
kernel must exhibit a happens-before race on the simulated machine
(counting SIMD lanes as parallel), every race-free kernel must not, on
any explored schedule.
"""

import pytest

from repro.datagen.pipeline import ALL_DRB_CATEGORIES, RACE_CATEGORIES
from repro.drb import CATEGORY_LABELS, DRBSuite, EVAL_COUNTS, generate_training_pool
from repro.drb.suite import spec_to_chunk
from repro.runtime import Machine, MachineConfig

from support.any_race import any_hb_race


@pytest.fixture(scope="module")
def suite():
    return DRBSuite.evaluation(seed=0)


class TestComposition:
    def test_paper_totals(self, suite):
        counts = suite.counts()
        assert counts["C/C++"] == {"total": 177, "race": 88, "norace": 89}
        assert counts["Fortran"] == {"total": 166, "race": 84, "norace": 82}

    def test_all_categories_present(self, suite):
        for lang in ("C/C++", "Fortran"):
            cats = {s.category for s in suite.by_language(lang)}
            assert cats == set(ALL_DRB_CATEGORIES)

    def test_eval_counts_respected(self, suite):
        for (lang, cat), n in EVAL_COUNTS.items():
            got = [s for s in suite.specs if s.language == lang and s.category == cat]
            assert len(got) == n, (lang, cat)

    def test_ids_unique(self, suite):
        ids = [s.id for s in suite.specs]
        assert len(ids) == len(set(ids))

    def test_sources_unique_within_language(self, suite):
        for lang in ("C/C++", "Fortran"):
            sources = [s.source for s in suite.by_language(lang)]
            assert len(sources) == len(set(sources))

    def test_labels_match_categories(self, suite):
        for s in suite.specs:
            assert s.label == CATEGORY_LABELS[s.category]
            assert s.label == ("yes" if s.category in RACE_CATEGORIES else "no")

    def test_deterministic(self):
        a = DRBSuite.evaluation(seed=0)
        b = DRBSuite.evaluation(seed=0)
        assert [s.source for s in a.specs] == [s.source for s in b.specs]


class TestParsing:
    def test_every_kernel_parses(self, suite):
        for s in suite.specs:
            prog = s.parse()
            assert prog.language == s.language
            assert len(prog.body) >= 1


class TestTrainingPool:
    def test_disjoint_from_eval(self, suite):
        pool = generate_training_pool(n_per_category=4)
        eval_sources = {s.source for s in suite.specs}
        assert all(s.source not in eval_sources for s in pool)

    def test_pool_covers_categories_and_languages(self):
        pool = generate_training_pool(n_per_category=3)
        keys = {(s.language, s.category) for s in pool}
        assert len(keys) == 2 * len(ALL_DRB_CATEGORIES)

    def test_chunks_roundtrip(self):
        pool = generate_training_pool(n_per_category=2)
        chunk = spec_to_chunk(pool[0])
        assert chunk.task == "datarace"
        assert chunk.facts["label"] in ("yes", "no")
        assert chunk.facts["code"] == pool[0].source


class TestGroundTruth:
    """Validate labels against the happens-before oracle.

    Full-suite validation lives in the benchmark harness; here we verify
    one kernel per (language, category) to keep test time bounded.
    """

    @pytest.mark.parametrize("language", ["C/C++", "Fortran"])
    def test_one_kernel_per_category_matches_oracle(self, suite, language):
        machine = Machine(MachineConfig(n_threads=2, n_schedules=2))
        for cat in ALL_DRB_CATEGORIES:
            spec = next(
                s for s in suite.specs if s.language == language and s.category == cat
            )
            prog = spec.parse()
            raced = any_hb_race(machine, prog, include_lane_events=True)
            expected = spec.label == "yes"
            assert raced == expected, f"{spec.id}\n{spec.source}"

    def test_every_template_variant_matches_oracle(self, suite):
        """Check the *first instance of every distinct template shape*
        (identified by feature set + category) in both languages."""
        machine = Machine(MachineConfig(n_threads=2, n_schedules=2))
        seen: set = set()
        for s in suite.specs:
            key = (s.language, s.category, s.features)
            if key in seen:
                continue
            seen.add(key)
            raced = any_hb_race(machine, s.parse(), include_lane_events=True)
            assert raced == (s.label == "yes"), f"{s.id}\n{s.source}"
