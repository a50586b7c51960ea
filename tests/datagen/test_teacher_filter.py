"""Tests for the teacher simulator and the filtering/pruning stage."""

import json

import pytest

from repro.datagen import InstructionFilter, TeacherConfig, TeacherLM
from repro.knowledge.corpus import KnowledgeChunk


def plp_chunk():
    return KnowledgeChunk(
        text="The Devign dataset targets C programs with CodeBERT (Accuracy).",
        source="plp-table",
        task="plp",
        category="Defect detection",
        facts={
            "Task": "Defect Detection",
            "Category": "Defect detection",
            "Dataset Name": "Devign",
            "Language": "C",
            "Baseline": "CodeBERT",
            "Metric": "Accuracy",
        },
    )


def mlperf_chunk():
    return KnowledgeChunk(
        text="Submitter: NVIDIA. System: dgxh100_n64. ...",
        source="mlperf-table",
        task="mlperf",
        category="System",
        facts={
            "Submitter": "NVIDIA",
            "System": "dgxh100_n64",
            "Processor": "Intel(R) Xeon(R) Platinum 8480C",
            "Accelerator": "NVIDIA H100-SXM5-80GB",
            "Software": "MXNet NVIDIA Release 23.04",
            "Benchmark": "ResNet",
        },
    )


def race_chunk(label="yes"):
    return KnowledgeChunk(
        text="#pragma omp parallel for\nfor (i=1;i<n;i++) y[i]=y[i-1];",
        source="drb",
        task="datarace",
        category="Unresolvable dependencies",
        facts={
            "code": "#pragma omp parallel for\nfor (i=1;i<n;i++) y[i]=y[i-1];",
            "label": label,
            "language": "C/C++",
            "id": "DRB-C-0001",
        },
    )


def clean_teacher(**kw):
    cfg = TeacherConfig(
        duplicate_rate=0, overlong_rate=0, short_answer_rate=0,
        malformed_rate=0, hallucination_rate=0, **kw,
    )
    return TeacherLM(cfg)


class TestTeacher:
    def test_clean_batch_is_valid_json(self):
        t = clean_teacher()
        raws = t.generate_batch(plp_chunk(), 3)
        assert len(raws) == 3
        for raw in raws:
            obj = json.loads(raw)
            assert set(obj) == {"instruction", "input", "output"}

    def test_verb_diversity_across_batch(self):
        t = clean_teacher()
        raws = t.generate_batch(plp_chunk(), 4)
        leads = [json.loads(r)["instruction"].split()[0] for r in raws]
        assert len(set(leads)) >= 3

    def test_mlperf_category_selects_field(self):
        t = clean_teacher()
        raw = t.generate_batch(mlperf_chunk(), 1, category="Processor")[0]
        assert "Intel(R) Xeon(R) Platinum 8480C" in json.loads(raw)["output"]

    def test_mlperf_listing4_template(self):
        t = clean_teacher()
        raw = t.generate_batch(mlperf_chunk(), 1, category="System")[0]
        obj = json.loads(raw)
        assert "What is the System if the Accelerator used is" in obj["instruction"]
        assert "dgxh100_n64" in obj["output"]

    def test_race_instruction_matches_table1(self):
        t = clean_teacher()
        raw = t.generate_batch(race_chunk(), 1)[0]
        obj = json.loads(raw)
        assert "help me detect if adding pragma will cause a data race problem" in obj["instruction"]
        assert obj["output"] == "yes"

    def test_unknown_mlperf_category_raises(self):
        with pytest.raises(KeyError):
            clean_teacher().generate_batch(mlperf_chunk(), 1, category="Nonsense")

    def test_defect_rates_validation(self):
        with pytest.raises(ValueError):
            TeacherConfig(duplicate_rate=0.5, malformed_rate=0.5)
        with pytest.raises(ValueError):
            TeacherConfig(duplicate_rate=-0.1)

    def test_deterministic_given_seed(self):
        a = TeacherLM(TeacherConfig(seed=5)).generate_batch(plp_chunk(), 4)
        b = TeacherLM(TeacherConfig(seed=5)).generate_batch(plp_chunk(), 4)
        assert a == b

    def test_malformed_rate_one_channel(self):
        t = TeacherLM(TeacherConfig(
            duplicate_rate=0, overlong_rate=0, short_answer_rate=0,
            malformed_rate=0.8, hallucination_rate=0,
        ))
        raws = t.generate_batch(plp_chunk(), 6)
        bad = 0
        for raw in raws:
            try:
                json.loads(raw)
            except json.JSONDecodeError:
                bad += 1
        assert bad >= 2  # with rate 0.8 most should be malformed

    def test_prompt_log_records_listings(self):
        t = clean_teacher()
        t.generate_batch(plp_chunk(), 2)
        assert any("please help me generate" in p for p in t.prompt_log)
        assert any("Please answer the following question" in p for p in t.prompt_log)


class TestFilter:
    def _raw(self, instruction, output):
        return json.dumps({"instruction": instruction, "input": "", "output": output})

    def test_accepts_clean_record(self):
        f = InstructionFilter()
        rec = f.accept(
            self._raw(
                "What dataset suits defect detection in C?",
                "The Devign dataset can be used for defect detection tasks when the language is C.",
            ),
            plp_chunk(),
            "Defect detection",
        )
        assert rec is not None and rec.task == "plp"
        assert f.stats.accepted == 1

    def test_rejects_unparseable(self):
        f = InstructionFilter()
        assert f.accept('{"instruction": "q", "outp', plp_chunk(), "X") is None
        assert f.stats.unparseable == 1

    def test_rejects_missing_fields(self):
        f = InstructionFilter()
        assert f.accept(json.dumps({"question": "q", "answer": "a"}), plp_chunk(), "X") is None
        assert f.stats.missing_fields == 1

    def test_rejects_overlong_output(self):
        f = InstructionFilter()
        long_out = "Devign " + " ".join(["word"] * 60)
        assert f.accept(self._raw("Short question?", long_out), plp_chunk(), "X") is None
        assert f.stats.overlong_output == 1

    def test_rejects_short_output(self):
        f = InstructionFilter()
        assert f.accept(self._raw("Short question?", "Devign is used."), plp_chunk(), "X") is None
        assert f.stats.short_output == 1

    def test_rejects_unverifiable_answer(self):
        f = InstructionFilter()
        out = "The SuperFake dataset can be used for any task in any language whatsoever."
        assert f.accept(self._raw("What dataset?", out), plp_chunk(), "X") is None
        assert f.stats.unverifiable == 1

    def test_race_label_mismatch_rejected(self):
        f = InstructionFilter()
        assert f.accept(self._raw("Detect race?", "no"), race_chunk("yes"), "X") is None
        assert f.stats.unverifiable == 1

    def test_race_verbose_yes_corrected(self):
        f = InstructionFilter()
        rec = f.accept(
            self._raw("Detect race?", "Yes, this loop carries a dependence."),
            race_chunk("yes"),
            "X",
        )
        assert rec is not None and rec.output == "yes"
        assert f.stats.corrected == 1

    def test_race_non_yes_no_rejected(self):
        f = InstructionFilter()
        assert f.accept(self._raw("Detect race?", "It depends on the schedule."), race_chunk(), "X") is None
        assert f.stats.not_yes_no == 1

    def test_exact_duplicate_rejected(self):
        f = InstructionFilter()
        raw = self._raw(
            "What dataset suits defect detection in C?",
            "The Devign dataset can be used for defect detection tasks in the C language.",
        )
        assert f.accept(raw, plp_chunk(), "X") is not None
        assert f.accept(raw, plp_chunk(), "X") is None
        assert f.stats.duplicate == 1

    def test_near_duplicate_rejected_same_category_only(self):
        f = InstructionFilter()
        words = [f"term{i}" for i in range(21)]
        q1, q2 = " ".join(words), " ".join(words[:20])  # Jaccard 20/21 ~ 0.952
        out = "The Devign dataset can be used for defect detection tasks in the C language."
        assert f.accept(self._raw(q1, out), plp_chunk(), "CatA") is not None
        assert f.accept(self._raw(q2, out + " Indeed."), plp_chunk(), "CatA") is None
        assert f.stats.duplicate == 1
        # Same question in a different category bucket is allowed.
        assert f.accept(self._raw(q2, out + " Indeed."), plp_chunk(), "CatB") is not None

    @pytest.mark.parametrize("shared, kept", [(19, False), (18, True)])
    def test_near_duplicate_threshold_is_095(self, shared, kept):
        """Jaccard 19/20 = 0.95 is a near-duplicate; 18/19 ~ 0.947 is not."""
        f = InstructionFilter()
        words = [f"term{i}" for i in range(shared + 1)]
        out = "The Devign dataset can be used for defect detection tasks in the C language."
        assert f.accept(self._raw(" ".join(words[:shared]), out), plp_chunk(), "X") is not None
        rec = f.accept(self._raw(" ".join(words), out + " Indeed."), plp_chunk(), "X")
        assert (rec is not None) == kept

    @pytest.mark.parametrize("n, kept", [(50, True), (51, False)])
    def test_instruction_word_limit(self, n, kept):
        f = InstructionFilter()
        question = " ".join(f"q{i}" for i in range(n))
        out = "The Devign dataset can be used for defect detection tasks in the C language."
        assert (f.accept(self._raw(question, out), plp_chunk(), "X") is not None) == kept
        assert f.stats.overlong_instruction == (0 if kept else 1)

    @pytest.mark.parametrize(
        "n, kept, reason",
        [(50, True, None), (51, False, "overlong_output"),
         (10, True, None), (9, False, "short_output")],
    )
    def test_output_word_limits(self, n, kept, reason):
        f = InstructionFilter()
        out = " ".join(["Devign"] + ["word"] * (n - 1))
        assert (f.accept(self._raw("Short question?", out), plp_chunk(), "X") is not None) == kept
        if reason:
            assert getattr(f.stats, reason) == 1

    def test_input_field_capital_i_accepted(self):
        # Listing 2 spells the field "Input"; the filter normalises it.
        f = InstructionFilter()
        raw = json.dumps({
            "instruction": "What dataset suits defect detection in C?",
            "Input": "",
            "output": "The Devign dataset can be used for defect detection tasks in the C language.",
        })
        rec = f.accept(raw, plp_chunk(), "X")
        assert rec is not None and rec.input == ""
