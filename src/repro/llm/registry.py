"""Model registry: builds, caches, and serves the reproduction's base
models (the LLaMA / LLaMA-2 13B stand-ins).

Building a base model means *actually pretraining* the tiny transformer
on the synthetic general corpus.  Because several benches need the same
bases, the registry memoises in process and persists checkpoints under a
cache directory (``REPRO_CACHE`` env var, default ``.repro_cache/`` in
the working tree) so repeated bench runs skip pretraining.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.llm.model import CausalLM, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, pretrain, train_tokenizer_on
from repro.nn.serialization import load_state, save_state
from repro.tokenizer import BPETokenizer

#: Named base-model recipes.  ``llama2`` differs from ``llama`` by seed and
#: by a 1.4x corpus (the paper: "LLaMA 2 was trained on 40% more data").
BASE_RECIPES: dict[str, dict] = {
    "llama-13b-sim": {"corpus_scale": 1.0, "seed": 11},
    "llama2-13b-sim": {"corpus_scale": 1.4, "seed": 22},
}


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE", ".repro_cache"))


class ModelRegistry:
    """Factory and cache for base models and the shared tokenizer.

    Parameters
    ----------
    model_config:
        Architecture for every base model (they share a tokenizer, so the
        vocabulary must match).
    pretrain_config:
        Pretraining recipe; per-model seed/corpus_scale come from
        :data:`BASE_RECIPES`.
    extra_tokenizer_texts:
        Additional texts (HPC knowledge, code) folded into tokenizer
        training so instruction data tokenizes compactly — mirrors
        LLaMA's tokenizer having seen code.
    cache_dir:
        Checkpoint directory; ``None`` disables disk caching.
    """

    def __init__(
        self,
        model_config: ModelConfig | None = None,
        pretrain_config: PretrainConfig | None = None,
        extra_tokenizer_texts: list[str] | None = None,
        cache_dir: Path | None | str = "auto",
    ) -> None:
        self.model_config = model_config or ModelConfig()
        self.pretrain_config = pretrain_config or PretrainConfig()
        self.extra_tokenizer_texts = list(extra_tokenizer_texts or [])
        if cache_dir == "auto":
            self.cache_dir: Path | None = default_cache_dir()
        else:
            self.cache_dir = Path(cache_dir) if cache_dir else None
        self._models: dict[str, CausalLM] = {}
        self._tokenizer: BPETokenizer | None = None

    # -- identity of the build (for disk cache invalidation) ----------------

    def _cache_key(self, name: str) -> str:
        """Checkpoint identity for ``name``: the *full* model and
        pretrain configs plus the extra tokenizer texts.

        Every field matters: the key used to omit ``lr``, ``seq_len``,
        and the per-recipe ``corpus_scale``/``seed``, so changing any of
        them silently served a stale base checkpoint.  Hashing the
        complete dataclasses (plus a schema-independent recipe dump)
        makes new knobs self-invalidating.
        """
        import dataclasses
        import hashlib
        import json

        mc, pc = self.model_config, self.pretrain_config
        recipe = BASE_RECIPES.get(name, {})
        payload = json.dumps(
            {
                "model": dataclasses.asdict(mc),
                "pretrain": dataclasses.asdict(pc),
                "recipe": dict(sorted(recipe.items())),
                "extra_texts": self.extra_tokenizer_texts,
            },
            sort_keys=True,
            default=str,
        )
        sig = hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()
        return f"{name}-v{mc.vocab_size}d{mc.dim}l{mc.n_layers}-{sig}"

    # -- tokenizer -----------------------------------------------------------

    def tokenizer(self) -> BPETokenizer:
        """The shared tokenizer (trained once over corpus + extra texts)."""
        if self._tokenizer is not None:
            return self._tokenizer
        tok_path = (
            self.cache_dir / f"tokenizer-{self._cache_key('shared')}.json"
            if self.cache_dir
            else None
        )
        if tok_path is not None and tok_path.exists():
            self._tokenizer = BPETokenizer.load(tok_path)
            return self._tokenizer
        corpus = build_general_corpus(self.pretrain_config)
        texts = corpus + self.extra_tokenizer_texts
        self._tokenizer = train_tokenizer_on(texts, vocab_size=self.model_config.vocab_size)
        if tok_path is not None:
            self._tokenizer.save(tok_path)
        return self._tokenizer

    # -- base models ---------------------------------------------------------

    def base_model(self, name: str) -> CausalLM:
        """Return the pretrained base model ``name`` (cached)."""
        if name in self._models:
            return self._models[name]
        if name not in BASE_RECIPES:
            raise KeyError(f"unknown base model {name!r}; have {sorted(BASE_RECIPES)}")
        recipe = BASE_RECIPES[name]
        tok = self.tokenizer()
        ckpt = (
            self.cache_dir / f"{self._cache_key(name)}.npz" if self.cache_dir else None
        )
        if ckpt is not None and ckpt.exists():
            import numpy as np

            model = CausalLM(self.model_config, np.random.default_rng(0))
            load_state(model, ckpt)
            model.eval()
            self._models[name] = model
            return model
        import dataclasses

        # replace() carries every recipe knob (incl. future ones) into
        # the per-base configs; only the recipe overrides and the model
        # name differ.
        pre = dataclasses.replace(
            self.pretrain_config,
            corpus_scale=recipe["corpus_scale"],
            seed=recipe["seed"],
        )
        cfg = dataclasses.replace(self.model_config, name=name)
        corpus = build_general_corpus(pre)
        model, _, _ = pretrain(cfg, pre, tokenizer=tok, corpus=corpus)
        if ckpt is not None:
            save_state(model, ckpt)
        self._models[name] = model
        return model
