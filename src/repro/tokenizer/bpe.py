"""Byte-level BPE tokenizer.

Training follows the classic algorithm: start from the 256 byte symbols,
repeatedly merge the most frequent adjacent pair (deterministic
lexicographic tie-break), stop at the target vocabulary size.  Encoding
applies merges in rank order per whitespace-delimited word (with the
leading space attached, GPT-2 style) and caches per-word results, since
corpus text is highly repetitive.

Byte-level fallback means there is no true OOV: any input byte sequence
round-trips exactly.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from pathlib import Path

from repro.tokenizer.vocab import SpecialTokens

#: One whitespace character and the non-whitespace run after it, or a
#: leading non-whitespace run.  ``\s`` and ``str.isspace`` agree on
#: every code point, which the tests check.
_WORD = re.compile(r"\s\S*|\S+")
_SPACE = re.compile(r"\s")


class BPETokenizer:
    """Trainable byte-level BPE tokenizer with special-token support."""

    def __init__(self, special: SpecialTokens | None = None) -> None:
        self.special = special or SpecialTokens()
        n_special = len(self.special.all())
        self._byte_offset = n_special
        # id -> bytes for ordinary tokens; specials handled separately.
        self._id_to_bytes: dict[int, bytes] = {
            self._byte_offset + b: bytes([b]) for b in range(256)
        }
        self._merges: dict[tuple[int, int], int] = {}  # pair -> merged id
        self._ranks: dict[tuple[int, int], int] = {}  # pair -> merge priority
        self._special_to_id = {tok: i for i, tok in enumerate(self.special.all())}
        self._id_to_special = {i: tok for tok, i in self._special_to_id.items()}
        self._cache: dict[str, tuple[int, ...]] = {}

    # -- properties --------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        return len(self._special_to_id) + len(self._id_to_bytes)

    # -- training ------------------------------------------------------------

    @staticmethod
    def _words(text: str) -> list[str]:
        """Split into words keeping the leading space attached: a word
        starts at every whitespace character (and at the start)."""
        return _WORD.findall(text)

    def _word_to_base_ids(self, word: str) -> tuple[int, ...]:
        return tuple(self._byte_offset + b for b in word.encode("utf-8"))

    def train(self, texts: list[str], vocab_size: int) -> None:
        """Learn merges until the vocabulary reaches ``vocab_size``."""
        if vocab_size <= self.vocab_size:
            raise ValueError(
                f"vocab_size {vocab_size} must exceed base vocabulary {self.vocab_size}"
            )
        word_freq: Counter[tuple[int, ...]] = Counter()
        for text in texts:
            for w in self._words(text):
                word_freq[self._word_to_base_ids(w)] += 1

        words = list(word_freq.items())
        next_id = max(self._id_to_bytes) + 1

        while self.vocab_size < vocab_size:
            pair_freq: Counter[tuple[int, int]] = Counter()
            for seq, freq in words:
                for a, b in zip(seq, seq[1:]):
                    pair_freq[(a, b)] += freq
            if not pair_freq:
                break
            # Deterministic: max frequency, then smallest pair ids.
            best = min(pair_freq.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            if pair_freq[best] < 2:
                break
            merged_id = next_id
            next_id += 1
            self._merges[best] = merged_id
            self._ranks[best] = len(self._ranks)
            self._id_to_bytes[merged_id] = (
                self._id_to_bytes[best[0]] + self._id_to_bytes[best[1]]
            )
            new_words = []
            for seq, freq in words:
                new_words.append((self._apply_merge(seq, best, merged_id), freq))
            words = new_words
        self._cache.clear()

    @staticmethod
    def _apply_merge(
        seq: tuple[int, ...], pair: tuple[int, int], merged_id: int
    ) -> tuple[int, ...]:
        out: list[int] = []
        i = 0
        n = len(seq)
        while i < n:
            if i + 1 < n and seq[i] == pair[0] and seq[i + 1] == pair[1]:
                out.append(merged_id)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        return tuple(out)

    # -- encode / decode ---------------------------------------------------------

    def _encode_word(self, word: str) -> tuple[int, ...]:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        seq = list(self._word_to_base_ids(word))
        while len(seq) >= 2:
            # Find the present pair with the lowest merge rank.
            best_rank = None
            best_pos = -1
            for i in range(len(seq) - 1):
                rank = self._ranks.get((seq[i], seq[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_pos = i
            if best_rank is None:
                break
            pair = (seq[best_pos], seq[best_pos + 1])
            seq = list(self._apply_merge(tuple(seq), pair, self._merges[pair]))
        result = tuple(seq)
        if len(self._cache) < 200_000:
            self._cache[word] = result
        return result

    def encode(self, text: str, bos: bool = False, eos: bool = False) -> list[int]:
        """Tokenize ``text`` to ids; optionally add BOS/EOS."""
        ids: list[int] = []
        if bos:
            ids.append(self.special.bos_id)
        for w in self._words(text):
            ids.extend(self._encode_word(w))
        if eos:
            ids.append(self.special.eos_id)
        return ids

    def encode_tail(self, text: str, keep: int) -> list[int]:
        """The last ``keep`` ids of ``encode(text)``, encoding only a
        suffix of ``text``.

        A word starts at every whitespace character, so a suffix that
        starts at one splits into exactly the text's last words, and its
        ids are the tail of the full encoding.  The suffix grows until
        it yields ``keep`` ids or reaches the start of ``text``.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        chars = 4 * keep  # first guess: a few characters per id, doubled while short
        while True:
            cut = len(text) - chars
            if cut <= 0:
                return self.encode(text)[-keep:]
            at = _SPACE.search(text, cut)
            ids = self.encode(text[at.start():]) if at else []
            if len(ids) >= keep:
                return ids[-keep:]
            chars *= 2

    def decode(self, ids: list[int], skip_special: bool = True) -> str:
        """Invert :meth:`encode` (exact byte round-trip for ordinary text)."""
        chunks: list[bytes] = []
        for i in ids:
            if i in self._id_to_special:
                if not skip_special:
                    chunks.append(self._id_to_special[i].encode("utf-8"))
                continue
            piece = self._id_to_bytes.get(i)
            if piece is None:
                raise KeyError(f"unknown token id {i}")
            chunks.append(piece)
        return b"".join(chunks).decode("utf-8", errors="replace")

    def token_count(self, text: str) -> int:
        """Length of the encoding — the unit of the paper's 8k-token limit."""
        return len(self.encode(text))

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "merges": [[a, b, m] for (a, b), m in self._merges.items()],
            "ranks": [[a, b, r] for (a, b), r in self._ranks.items()],
        }
        path.write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "BPETokenizer":
        tok = cls()
        payload = json.loads(Path(path).read_text())
        for a, b, m in payload["merges"]:
            tok._merges[(a, b)] = m
            tok._id_to_bytes[m] = tok._id_to_bytes[a] + tok._id_to_bytes[b]
        for a, b, r in payload["ranks"]:
            tok._ranks[(a, b)] = r
        return tok
