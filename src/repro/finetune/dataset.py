"""Instruction dataset -> ``(ids, targets)`` training examples.

Each record is rendered through :class:`repro.llm.chat.ChatFormat`
(prompt tokens masked with ``ignore_index``).  Sequences longer than the
model context are *left*-truncated — the end of the prompt (the question
plus the tail of the code) and the supervised answer are what matter.
:class:`repro.train.PaddedExampleSource` batches the examples by length
and right-pads them; pad positions carry ``ignore_index`` targets, so no
attention mask is needed in a causal model.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.schema import InstructionRecord
from repro.llm.chat import ChatFormat
from repro.tokenizer import BPETokenizer


class SFTDataset:
    """Tokenised instruction dataset: one ``(ids, targets)`` example per
    usable record."""

    def __init__(
        self,
        records: list[InstructionRecord],
        tokenizer: BPETokenizer,
        max_seq_len: int,
        ignore_index: int = -100,
    ) -> None:
        if not records:
            raise ValueError("empty SFT dataset")
        if max_seq_len < 8:
            raise ValueError("max_seq_len too small")
        self.tokenizer = tokenizer
        self.max_seq_len = max_seq_len
        self.ignore_index = ignore_index
        chat = ChatFormat(tokenizer, ignore_index=ignore_index)
        self.examples: list[tuple[np.ndarray, np.ndarray]] = []
        for rec in records:
            ids, targets = chat.example_ids(rec.instruction, rec.output, rec.input)
            if len(ids) > max_seq_len:
                # Left-truncate, but never cut into the supervised span.
                first_supervised = int(np.argmax(targets != ignore_index))
                cut = len(ids) - max_seq_len
                if cut > first_supervised:
                    cut = first_supervised
                ids = ids[cut:]
                targets = targets[cut:]
                if len(ids) > max_seq_len:  # answer alone exceeds context
                    ids = ids[:max_seq_len]
                    targets = targets[:max_seq_len]
            if (targets != ignore_index).sum() == 0:
                continue  # nothing supervised survived truncation
            self.examples.append((ids, targets))
        if not self.examples:
            raise ValueError("no usable examples after truncation")

    def __len__(self) -> int:
        return len(self.examples)
