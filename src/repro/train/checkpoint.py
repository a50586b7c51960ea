"""Mid-run training checkpoints: weights + optimizer moments + data-RNG
state + loss-scaler state + step counter in one ``.npz`` file.

This is the §5 deployment primitive — "creating a checkpoint of the
current model version and then resuming training using the newly
acquired data" — made literal: a run resumed from a
:func:`save_checkpoint` file continues *bit-exactly* as if it had never
stopped (the parity test trains N steps against k + resume(N-k) and
compares state dicts with ``array_equal``).

Format: ``numpy.savez_compressed`` only — arrays under ``model/`` and
``opt/`` prefixes, everything non-array (step, loss curve tail, RNG
trajectories) as one JSON document.  No pickle anywhere, same as
:mod:`repro.nn.serialization`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import AdamW
from repro.nn.serialization import atomic_savez

CHECKPOINT_VERSION = 1

_MODEL = "model/"
_OPT = "opt/"
_JSON = "__train_json__"
_LOSSES = "__losses__"


def save_checkpoint(
    path: str | os.PathLike,
    model: Module,
    optimizer: AdamW,
    source,
    scaler,
    step: int,
    losses: list[float],
    skipped_steps: int = 0,
    extra: dict | None = None,
) -> Path:
    """Write a resumable training checkpoint; returns the path written.

    The write goes through a temporary file + rename so a crash mid-dump
    never leaves a truncated checkpoint where a resume would look.
    """
    path = Path(path)
    payload: dict[str, np.ndarray] = {}
    for name, arr in model.state_dict().items():
        payload[_MODEL + name] = arr
    for key, arr in optimizer.state_dict().items():
        payload[_OPT + key] = np.asarray(arr)
    payload[_LOSSES] = np.asarray(losses, dtype=np.float64)
    doc = {
        "version": CHECKPOINT_VERSION,
        "step": int(step),
        "skipped_steps": int(skipped_steps),
        "optimizer": type(optimizer).__name__,
        "source": source.state_dict(),
        "scaler": scaler.state_dict(),
        "extra": extra or {},
    }
    payload[_JSON] = np.asarray(json.dumps(doc))
    atomic_savez(path, **payload)
    return path


def load_checkpoint(
    path: str | os.PathLike,
    model: Module,
    optimizer: AdamW,
    source,
    scaler,
) -> dict:
    """Restore every training-state component in place; returns a dict
    with ``step``, ``losses``, ``skipped_steps``, and ``extra``."""
    with np.load(path, allow_pickle=False) as npz:
        doc = json.loads(str(npz[_JSON][()]))
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {doc.get('version')!r} in {path}"
            )
        model_state = {
            key[len(_MODEL):]: npz[key] for key in npz.files if key.startswith(_MODEL)
        }
        opt_state = {
            key[len(_OPT):]: npz[key] for key in npz.files if key.startswith(_OPT)
        }
        losses = [float(x) for x in npz[_LOSSES]]
    expected = doc.get("optimizer")
    if expected != type(optimizer).__name__:
        raise ValueError(
            f"checkpoint was written with {expected}, resuming with "
            f"{type(optimizer).__name__}"
        )
    model.load_state_dict(model_state)
    optimizer.load_state_dict(opt_state)
    source.load_state_dict(doc["source"])
    scaler.load_state_dict(doc["scaler"])
    return {
        "step": int(doc["step"]),
        "skipped_steps": int(doc["skipped_steps"]),
        "losses": losses,
        "extra": doc.get("extra", {}),
    }
