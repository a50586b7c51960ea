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

DEFAULT_SEED = 20231112  # SC-W 2023 opened November 12, 2023.


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


class RngHub:
    """A factory of scoped generators sharing one root seed.

    Examples
    --------
    >>> hub = RngHub(7)
    >>> a = hub.get("weights")
    >>> b = hub.get("dropout")
    >>> a is not b
    True
    >>> hub2 = RngHub(7)
    >>> float(hub2.get("weights").random()) == float(RngHub(7).get("weights").random())
    True
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, scope: str) -> np.random.Generator:
        """Return (and memoise) the generator for ``scope``."""
        if scope not in self._cache:
            self._cache[scope] = derive_rng(self.seed, scope)
        return self._cache[scope]

    def fresh(self, scope: str) -> np.random.Generator:
        """Return a *new* generator for ``scope`` (not memoised) — use when
        a component must be re-runnable from its initial state."""
        return derive_rng(self.seed, scope)

    def spawn(self, scope: str) -> "RngHub":
        """Return a child hub whose seed is derived from this hub's seed and
        ``scope`` — lets subsystems hand out their own namespaces."""
        return RngHub(_scope_to_int(f"{self.seed}:{scope}") & 0x7FFFFFFFFFFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngHub(seed={self.seed}, scopes={sorted(self._cache)})"
