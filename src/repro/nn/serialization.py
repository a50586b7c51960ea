"""Checkpoint (de)serialization for Module state dicts.

Uses ``numpy.savez_compressed`` — self-describing, portable, and safe to
load (no pickle of arbitrary objects beyond arrays).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.nn.module import Module


def atomic_savez(path: str | os.PathLike, **payload: np.ndarray) -> None:
    """``np.savez_compressed`` through a temp file + rename.

    Every checkpoint writer uses this: loaders pick checkpoints by name
    — e.g. the newest §5 update checkpoint — so a crash mid-dump must
    never leave a truncated file where a load would look.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # numpy appends ".npz" to names lacking it, so keep the suffix on
    # the temporary too.
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez_compressed(tmp, **payload)
    os.replace(tmp, path)


def save_state(model: Module, path: str | os.PathLike, extra: dict | None = None) -> None:
    """Persist ``model.state_dict()`` (plus optional scalar metadata) to
    ``path`` as a compressed npz archive (atomically)."""
    payload = dict(model.state_dict())
    for k, v in (extra or {}).items():
        key = f"__meta__{k}"
        if key in payload:
            raise ValueError(f"metadata key collides with parameter: {k}")
        payload[key] = np.asarray(v)
    atomic_savez(path, **payload)


def load_state(model: Module, path: str | os.PathLike) -> dict:
    """Load a checkpoint produced by :func:`save_state` into ``model``;
    returns the metadata dict.  Every parameter must match by name."""
    with np.load(path, allow_pickle=False) as npz:
        state = {}
        meta = {}
        for key in npz.files:
            if key.startswith("__meta__"):
                meta[key[len("__meta__"):]] = npz[key]
            else:
                state[key] = npz[key]
    model.load_state_dict(state)
    return meta
