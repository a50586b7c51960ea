"""Simulated shared memory.

Arrays are initialised as NumPy float64 buffers with a deterministic
pattern and held as Python float lists while a program runs (element
access on a list is several times cheaper than on an ndarray, and every
stored value is already a float, so contents stay bit-identical);
:meth:`SharedMemory.snapshot` converts back to arrays.  Scalars live in
a dict.  Fortran programs index from 1, so array buffers get one padding
slot and a base offset — subscripts are used as-is in both languages.
"""

from __future__ import annotations

import numpy as np

from repro.openmp.ast_nodes import Program


class SharedMemory:
    """The global (shared) state of one execution."""

    def __init__(self, program: Program) -> None:
        self.language = program.language
        self.base = 1 if program.language == "Fortran" else 0
        self.arrays: dict[str, list[float]] = {}
        for decl in program.arrays:
            buf = np.zeros(decl.size + self.base, dtype=np.float64)
            # Deterministic non-trivial init so value-bearing bugs show up.
            idx = np.arange(decl.size)
            if decl.ctype in ("int", "long"):
                # Integer arrays serve as index vectors: small in-bounds
                # values (with duplicates) starting at the language base.
                buf[self.base:] = self.base + (idx % 5)
            else:
                buf[self.base:] = (idx % 7) * 0.5 + 1.0
            self.arrays[decl.name] = buf.tolist()
        self.scalars: dict[str, float] = {s.name: 0.0 for s in program.scalars}

    # -- array access --------------------------------------------------------

    def check_index(self, name: str, index: int) -> int:
        buf = self.arrays.get(name)
        if buf is None:
            raise KeyError(f"undeclared array {name!r}")
        # The valid window is [base, shape-1] in both languages: the C
        # buffer is exactly `size` slots, the Fortran buffer is
        # `size + 1` with slot 0 as padding that lo = 1 keeps
        # unaddressable.
        lo = self.base
        hi = len(buf) - 1
        if index < lo or index > hi:
            raise IndexError(
                f"array {name!r} index {index} out of bounds [{lo}, {hi}]"
            )
        return index

    def read_array(self, name: str, index: int) -> float:
        return self.arrays[name][self.check_index(name, index)]

    def write_array(self, name: str, index: int, value: float) -> None:
        self.arrays[name][self.check_index(name, index)] = float(value)

    # -- scalar access ----------------------------------------------------------

    def read_scalar(self, name: str) -> float:
        if name not in self.scalars:
            raise KeyError(f"undeclared scalar {name!r}")
        return self.scalars[name]

    def write_scalar(self, name: str, value: float) -> None:
        if name not in self.scalars:
            raise KeyError(f"undeclared scalar {name!r}")
        self.scalars[name] = value

    def snapshot(self) -> dict[str, np.ndarray]:
        """All arrays as float64 ndarrays (tests compare end states
        across schedules)."""
        return {k: np.array(v, dtype=np.float64) for k, v in self.arrays.items()}
