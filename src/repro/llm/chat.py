"""Instruction chat formatting (Alpaca-style, as in the paper's Table 1).

An SFT example serialises as::

    <s> <inst> {instruction} </inst> {output} </s>

Only tokens after ``</inst>`` are supervised during fine-tuning; prompt
tokens get ``ignore_index`` targets.  The paper's data leaves ``input``
empty ("we consider the instructions and input are the same"), but the
format accepts a non-empty input for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tokenizer import BPETokenizer


@dataclass
class ChatFormat:
    """Builds prompt/target token sequences for SFT and inference."""

    tokenizer: BPETokenizer
    ignore_index: int = -100

    def render_prompt(self, instruction: str, input_text: str = "") -> str:
        body = instruction if not input_text else f"{instruction}\n{input_text}"
        return body.strip()

    def prompt_ids(
        self, instruction: str, input_text: str = "", tail: int | None = None
    ) -> list[int]:
        """Token ids of the prompt portion, ending right where the answer
        should begin.  With ``tail``, the body keeps only its last
        ``tail`` ids, and only its end is tokenized
        (:meth:`~repro.tokenizer.BPETokenizer.encode_tail`)."""
        sp = self.tokenizer.special
        body = self.render_prompt(instruction, input_text)
        ids = [sp.bos_id, sp.inst_open_id]
        ids.extend(
            self.tokenizer.encode(body) if tail is None else self.tokenizer.encode_tail(body, tail)
        )
        ids.append(sp.inst_close_id)
        return ids

    def example_ids(
        self, instruction: str, output: str, input_text: str = ""
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, targets)`` for one SFT example.

        ``targets[t]`` is the id that should follow ``ids[t]`` —
        next-token prediction with the prompt region masked out.
        """
        sp = self.tokenizer.special
        prompt = self.prompt_ids(instruction, input_text)
        answer = self.tokenizer.encode(" " + output.strip())
        full = prompt + answer + [sp.eos_id]
        ids = np.asarray(full[:-1], dtype=np.int64)
        targets = np.asarray(full[1:], dtype=np.int64)
        # Mask targets that fall inside the prompt: positions whose *next*
        # token is still part of the prompt (the last prompt position
        # predicts the first answer token and IS supervised).
        n_masked = len(prompt) - 1
        targets = targets.copy()
        targets[:n_masked] = self.ignore_index
        return ids, targets
