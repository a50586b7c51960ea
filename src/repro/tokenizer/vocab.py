"""Special-token inventory shared by the tokenizer and chat formatting."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpecialTokens:
    """Reserved tokens.

    The ids are fixed at the head of the vocabulary so models trained with
    different merge tables still agree on control tokens.
    """

    pad: str = "<pad>"
    bos: str = "<s>"
    eos: str = "</s>"
    unk: str = "<unk>"
    # Chat-format markers (Alpaca-style instruction template).
    inst_open: str = "<inst>"
    inst_close: str = "</inst>"

    def all(self) -> tuple[str, ...]:
        return (self.pad, self.bos, self.eos, self.unk, self.inst_open, self.inst_close)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def bos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def inst_open_id(self) -> int:
        return 4

    @property
    def inst_close_id(self) -> int:
        return 5
