"""Small text-processing helpers used across the data pipeline."""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z0-9_#+./-]+")


def tokenize_words(text: str) -> list[str]:
    """Split text into word-ish tokens (letters, digits, and the symbol
    characters that appear in dataset/model names such as ``C#`` or
    ``H100-SXM5-80GB``)."""
    return _WORD_RE.findall(text)


def word_count(text: str) -> int:
    """Number of word tokens in ``text`` (the unit used by the paper's
    "less than 50 words" prompt requirement)."""
    return len(tokenize_words(text))


def jaccard_similarity(a: str, b: str) -> float:
    """Word-set Jaccard similarity, the near-duplicate measure used by the
    filtering stage (values in [0, 1]; 1.0 means identical word sets)."""
    sa = {w.lower() for w in tokenize_words(a)}
    sb = {w.lower() for w in tokenize_words(b)}
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def stable_hash(text: str) -> int:
    """Order-independent-of-process 64-bit hash for text dedup keys."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little"
    )
