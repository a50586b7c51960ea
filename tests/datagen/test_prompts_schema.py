"""Tests for the Listing-1/2 prompts and the instruction-record schema."""

import json

import pytest

from repro.datagen import (
    InstructionRecord,
    records_to_json,
    render_answer_prompt,
    render_instruction_prompt,
)


class TestPrompts:
    def test_listing1_requirements_present(self):
        p = render_instruction_prompt("SOME KNOWLEDGE", 5)
        assert "The HPC knowledge is:" in p
        assert "SOME KNOWLEDGE" in p
        assert "generate 5 questions" in p
        assert "Try not to repeat the verb" in p
        assert "less than 50 words" in p
        assert "Do not generate the same or similar questions" in p

    def test_listing2_requirements_present(self):
        p = render_answer_prompt("KB TEXT", "What dataset?")
        assert "Please answer the following question" in p
        assert "What dataset?" in p
        assert "more than 10 words" in p
        assert "can be obtained from the information provided" in p
        assert '"instruction"' in p and '"output"' in p

    def test_validation(self):
        with pytest.raises(ValueError):
            render_instruction_prompt("k", 0)
        with pytest.raises(ValueError):
            render_answer_prompt("k", "   ")


class TestSchema:
    def test_training_json_three_fields(self):
        r = InstructionRecord("q?", "a.", task="plp", category="Code Search")
        tj = r.to_training_json()
        assert set(tj) == {"instruction", "input", "output"}
        assert tj["input"] == ""

    def test_roundtrip(self):
        recs = [
            InstructionRecord("q1", "a1", task="plp", category="X", source_id="s1"),
            InstructionRecord("q2", "yes", task="datarace", category="Y", language="C/C++"),
        ]
        back = [InstructionRecord.from_json(d) for d in json.loads(records_to_json(recs))]
        assert back == recs

    def test_json_is_parseable_list(self):
        text = records_to_json([InstructionRecord("q", "a")])
        data = json.loads(text)
        assert isinstance(data, list) and data[0]["instruction"] == "q"
