"""Tests for the byte-level BPE tokenizer, including hypothesis
round-trip properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenizer import BPETokenizer, SpecialTokens

CORPUS = [
    "the quick brown fox jumps over the lazy dog",
    "the lazy dog sleeps while the quick fox runs",
    "data races occur when two threads write the same variable",
    "#pragma omp parallel for reduction(+:sum)",
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
] * 4


@pytest.fixture(scope="module")
def tok():
    t = BPETokenizer()
    t.train(CORPUS, vocab_size=320)
    return t


class TestTraining:
    def test_vocab_grows_to_target(self, tok):
        assert tok.vocab_size == 320
        assert len(tok._merges) == 320 - 256 - len(SpecialTokens().all())

    def test_training_is_deterministic(self):
        a, b = BPETokenizer(), BPETokenizer()
        a.train(CORPUS, vocab_size=300)
        b.train(CORPUS, vocab_size=300)
        assert a.encode("the quick fox") == b.encode("the quick fox")

    def test_vocab_too_small_rejected(self):
        t = BPETokenizer()
        with pytest.raises(ValueError):
            t.train(CORPUS, vocab_size=10)

    def test_merges_shorten_frequent_text(self, tok):
        text = "the quick brown fox"
        assert len(tok.encode(text)) < len(text.encode("utf-8"))


class TestEncodeDecode:
    def test_roundtrip_corpus(self, tok):
        for text in CORPUS[:5]:
            assert tok.decode(tok.encode(text)) == text

    def test_roundtrip_unseen_text(self, tok):
        text = "völlig neues zeug! 完全novel"
        assert tok.decode(tok.encode(text)) == text

    def test_bos_eos(self, tok):
        ids = tok.encode("hi", bos=True, eos=True)
        sp = tok.special
        assert ids[0] == sp.bos_id and ids[-1] == sp.eos_id
        assert tok.decode(ids) == "hi"
        assert "<s>" in tok.decode(ids, skip_special=False)

    def test_unknown_id_raises(self, tok):
        with pytest.raises(KeyError):
            tok.decode([999999])

    def test_token_count(self, tok):
        assert tok.token_count("the quick fox") == len(tok.encode("the quick fox"))

    @settings(max_examples=60, deadline=None)
    @given(st.text(min_size=0, max_size=80))
    def test_roundtrip_property(self, tok, text):
        assert tok.decode(tok.encode(text)) == text

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abcdefgh ", min_size=1, max_size=40))
    def test_encode_deterministic_property(self, tok, text):
        assert tok.encode(text) == tok.encode(text)


def _words_by_isspace(text: str) -> list[str]:
    """The loop ``BPETokenizer._words`` replaced: a new word at every
    ``str.isspace`` character."""
    out: list[str] = []
    buf: list[str] = []
    for ch in text:
        if ch.isspace() and buf:
            out.append("".join(buf))
            buf = []
        buf.append(ch)
    if buf:
        out.append("".join(buf))
    return out


class TestWords:
    def test_regex_whitespace_is_isspace_on_every_code_point(self):
        everything = "".join(map(chr, range(0x110000)))
        by_regex = re.findall(r"\s", everything)
        assert by_regex == [ch for ch in everything if ch.isspace()]

    @pytest.mark.parametrize("text", [
        "", " ", "  ", "a", " lead", "trail ", "a  b", "\x1c", "a\x1cb",
        "\u3000", "x\u3000y", "\t\n\r\x0b\x0c\x85\xa0", "for (i = 0;\n\ti++)",
    ])
    def test_edge_strings_split_like_isspace(self, text):
        assert BPETokenizer._words(text) == _words_by_isspace(text)
        assert "".join(BPETokenizer._words(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_split_matches_isspace_property(self, text):
        assert BPETokenizer._words(text) == _words_by_isspace(text)


# Whitespace-free, all-whitespace and mixed texts, including characters
# outside the training corpus.
_TAIL_TEXTS = st.one_of(
    st.text(alphabet="abcdefgh(){};=+", max_size=60),
    st.text(alphabet=" \t\n\x1c\u3000", max_size=30),
    st.text(alphabet="the quick fox ;\n", max_size=120),
    st.text(max_size=80),
)


class TestEncodeTail:
    @settings(max_examples=150, deadline=None)
    @given(_TAIL_TEXTS, st.sampled_from(["1", "n-1", "n", "n+1", "huge"]))
    def test_tail_equals_tail_of_full_encoding(self, tok, text, which):
        full = tok.encode(text)
        n = len(full)
        keep = {"1": 1, "n-1": n - 1, "n": n, "n+1": n + 1, "huge": 10**9}[which]
        if keep < 1:
            keep = 1
        assert tok.encode_tail(text, keep) == full[-keep:]

    def test_every_keep_on_long_code(self, tok):
        text = " ".join(CORPUS) * 20 + "x" * 300 + " tail;"
        full = tok.encode(text)
        for keep in range(1, len(full) + 2, 37):
            assert tok.encode_tail(text, keep) == full[-keep:]

    def test_words_longer_than_the_first_guess(self):
        """Words that merge into one id span more characters than the
        first suffix guess, so a cut inside a word would show up."""
        long_words = BPETokenizer()
        long_words.train(["supercalifragilistic expialidocious"] * 50, vocab_size=320)
        text = " ".join(["expialidocious", "supercalifragilistic"] * 30)
        full = long_words.encode(text)
        assert len(full) * 8 < len(text)
        for keep in range(1, len(full) + 2):
            assert long_words.encode_tail(text, keep) == full[-keep:]

    def test_encodes_only_a_suffix(self, tok, monkeypatch):
        seen = []
        encode = BPETokenizer.encode

        def spy(self, text, *args, **kwargs):
            seen.append(len(text))
            return encode(self, text, *args, **kwargs)

        monkeypatch.setattr(BPETokenizer, "encode", spy)
        text = " ".join(CORPUS) * 200
        assert tok.encode_tail(text, 8) == encode(tok, text)[-8:]
        assert seen and max(seen) < len(text) // 100

    def test_keep_must_be_positive(self, tok):
        with pytest.raises(ValueError):
            tok.encode_tail("abc", 0)


class TestPersistence:
    def test_save_load_roundtrip(self, tok, tmp_path):
        tok.save(tmp_path / "tok.json")
        loaded = BPETokenizer.load(tmp_path / "tok.json")
        for text in CORPUS[:3] + ["never seen sentence"]:
            assert loaded.encode(text) == tok.encode(text)

    def test_special_ids_stable(self):
        sp = SpecialTokens()
        assert (sp.pad_id, sp.bos_id, sp.eos_id, sp.all().index(sp.unk)) == (0, 1, 2, 3)
        assert (sp.inst_open_id, sp.inst_close_id) == (4, 5)
