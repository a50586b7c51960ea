"""Base-model pretraining on a synthetic general-domain corpus.

The paper's base models (LLaMA / LLaMA-2 13B) are general-purpose: fluent
in ordinary text but lacking HPC facts.  We reproduce that regime by
pretraining the tiny models on templated *general* text only — no PLP
catalog entries, no MLPerf rows, no OpenMP code — so that, like the real
base models, they perform near chance on the HPC tasks until fine-tuned.
LLaMA-2's "trained on 40% more data" becomes a 1.4x corpus for the L2 sim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.llm.model import CausalLM, ModelConfig
from repro.tokenizer import BPETokenizer
from repro.train import TokenStreamSource, Trainer, TrainerConfig
from repro.utils.rng import derive_rng

# Template vocabulary for the synthetic general-domain corpus.  Kept
# deliberately non-technical: the point is that the base model acquires
# fluent token statistics without any HPC knowledge.
_SUBJECTS = [
    "the river", "a gentle breeze", "the old library", "our neighbor",
    "the morning train", "a distant storm", "the garden", "the violinist",
    "an early frost", "the lighthouse", "a curious child", "the market",
    "the mountain trail", "a quiet street", "the baker", "the tide",
]
_VERBS = [
    "crosses", "reaches", "follows", "welcomes", "remembers", "carries",
    "brightens", "changes", "surprises", "awakens", "shelters", "guides",
]
_OBJECTS = [
    "the valley", "every visitor", "the shore", "a new season",
    "the village", "its quiet path", "the travelers", "an old song",
    "the harvest", "a warm evening", "the horizon", "a familiar story",
]
_ADVERBS = [
    "slowly", "quietly", "every morning", "after the rain", "in autumn",
    "without warning", "at dusk", "once again", "with great care",
]
_QA_OPENERS = [
    "is it true that", "do you think", "can we say", "would you agree that",
]
_YESNO = ["yes", "no"]


@dataclass(frozen=True)
class PretrainConfig:
    """Pretraining hyper-parameters (laptop scale)."""

    n_sentences: int = 1200
    seq_len: int = 64
    batch_size: int = 16
    steps: int = 300
    lr: float = 3e-3
    corpus_scale: float = 1.0  # LLaMA-2 sim uses 1.4 (40% more data)
    seed: int = 0
    schedule: str = "constant"  # constant | cosine
    warmup_steps: int = 0  # cosine only


def build_general_corpus(config: PretrainConfig) -> list[str]:
    """Synthesise the general-domain corpus deterministically."""
    rng = derive_rng(config.seed, "pretrain/corpus")
    n = int(config.n_sentences * config.corpus_scale)
    sentences: list[str] = []
    for i in range(n):
        s = rng.choice(_SUBJECTS)
        v = rng.choice(_VERBS)
        o = rng.choice(_OBJECTS)
        a = rng.choice(_ADVERBS)
        kind = i % 4
        if kind == 0:
            sentences.append(f"{s} {v} {o} {a}.")
        elif kind == 1:
            sentences.append(f"{a}, {s} {v} {o}.")
        elif kind == 2:
            opener = rng.choice(_QA_OPENERS)
            ans = rng.choice(_YESNO)
            sentences.append(f"{opener} {s} {v} {o}? {ans}.")
        else:
            sentences.append(f"{s} {v} {o} and {rng.choice(_OBJECTS)} {a}.")
    return sentences


def train_tokenizer_on(texts: list[str], vocab_size: int = 512) -> BPETokenizer:
    """Train a byte-level BPE tokenizer on ``texts``."""
    tok = BPETokenizer()
    tok.train(texts, vocab_size=vocab_size)
    return tok


def _pack_stream(
    tokenizer: BPETokenizer, texts: list[str], seq_len: int
) -> np.ndarray:
    """Concatenate encoded texts (with EOS separators) into fixed-length
    training rows of shape (n_rows, seq_len + 1)."""
    stream: list[int] = []
    for t in texts:
        stream.extend(tokenizer.encode(t, bos=True, eos=True))
    n_rows = (len(stream) - 1) // seq_len
    if n_rows == 0:
        raise ValueError("corpus too small for the requested seq_len")
    arr = np.asarray(stream[: n_rows * seq_len + 1], dtype=np.int64)
    rows = np.lib.stride_tricks.sliding_window_view(arr, seq_len + 1)[::seq_len]
    return rows.copy()


def pretrain_trainer(
    config: ModelConfig,
    pre: PretrainConfig,
    tokenizer: BPETokenizer | None = None,
    corpus: list[str] | None = None,
    checkpoint_every: int = 0,
    checkpoint_path: str | None = None,
) -> tuple[Trainer, BPETokenizer]:
    """Assemble (but do not run) the pretraining :class:`Trainer`.

    The CLI uses this to attach logging callbacks and resume from a
    :mod:`repro.train.checkpoint` file; :func:`pretrain` is the
    run-to-completion convenience wrapper.
    """
    corpus = corpus if corpus is not None else build_general_corpus(pre)
    tokenizer = tokenizer or train_tokenizer_on(corpus, vocab_size=config.vocab_size)
    if tokenizer.vocab_size > config.vocab_size:
        raise ValueError(
            f"tokenizer vocab {tokenizer.vocab_size} exceeds model vocab {config.vocab_size}"
        )
    rows = _pack_stream(tokenizer, corpus, pre.seq_len)
    model = CausalLM(config, derive_rng(pre.seed, f"pretrain/init/{config.name}"))
    # Same scope (and draw pattern) as the pre-engine loop, so a given
    # (seed, name) sees the seed loop's batch sequence.
    source = TokenStreamSource(
        rows, pre.batch_size, seed=pre.seed, scope=f"pretrain/batches/{config.name}"
    )
    tcfg = TrainerConfig(
        max_steps=pre.steps,
        lr=pre.lr,
        weight_decay=0.01,
        schedule=pre.schedule,
        warmup_steps=pre.warmup_steps,
        grad_clip=1.0,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    return Trainer(model, source, tcfg), tokenizer


def pretrain(
    config: ModelConfig,
    pre: PretrainConfig,
    tokenizer: BPETokenizer | None = None,
    corpus: list[str] | None = None,
    log_every: int = 0,
) -> tuple[CausalLM, BPETokenizer, list[float]]:
    """Pretrain a fresh model; returns (model, tokenizer, loss curve).

    Delegates to the unified :class:`repro.train.Trainer` — the single
    training loop shared with SFT and §5 updates.
    """
    callbacks = []
    if log_every:  # pragma: no cover - logging only
        callbacks.append(
            lambda info: info.step % log_every == 0
            and print(f"  pretrain[{config.name}] step={info.step} loss={info.loss:.3f}")
        )
    trainer, tokenizer = pretrain_trainer(config, pre, tokenizer, corpus)
    trainer.callbacks.extend(callbacks)
    report = trainer.train()
    return trainer.model, tokenizer, report.losses
