"""Shared utilities: seeded RNG management, text helpers, tiny I/O helpers.

Every stochastic component in the reproduction draws randomness through
:mod:`repro.utils.rng` so that benches and tests are bit-for-bit
reproducible across runs and machines.
"""

from repro.utils.languages import (
    LANGUAGES,
    UnknownLanguageError,
    language_for_path,
    normalize_language,
)
from repro.utils.rng import derive_rng
from repro.utils.text import tokenize_words, word_count

__all__ = [
    "LANGUAGES",
    "UnknownLanguageError",
    "language_for_path",
    "normalize_language",
    "derive_rng",
    "tokenize_words",
    "word_count",
]
