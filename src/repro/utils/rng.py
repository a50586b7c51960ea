"""Deterministic random-number management.

The reproduction has many independent stochastic components (corpus
synthesis, teacher-defect injection, weight initialisation, interleaving
exploration, comparator noise).  Seeding them all from one global stream
would make every component's randomness depend on the call order of every
other component, which is fragile.  Instead each component derives its own
:class:`numpy.random.Generator` from a *root seed* plus a string *scope*
via :func:`derive_rng`, so adding a new component never perturbs existing
ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _scope_to_int(scope: str) -> int:
    """Hash a scope string to a stable 64-bit integer (blake2b, not Python
    ``hash`` which is salted per process)."""
    digest = hashlib.blake2b(scope.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(seed: int, scope: str) -> np.random.Generator:
    """Return a Generator deterministically derived from ``(seed, scope)``.

    Parameters
    ----------
    seed:
        Root experiment seed.
    scope:
        A unique name for the consuming component, e.g. ``"drb/c/gen"``.
    """
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, _scope_to_int(scope)])
    return np.random.Generator(np.random.PCG64(ss))

