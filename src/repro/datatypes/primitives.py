"""Predefined (basic) MPI datatypes.

Each predefined type is a single contiguous run of bytes with a NumPy
dtype attached for the functional data plane.  The module-level
constants (``BYTE``, ``INT``, ``FLOAT``, ``DOUBLE``, ...) mirror the MPI
predefined handles used by the paper's workloads: specfem3D uses
``FLOAT``/``DOUBLE`` indexed types, MILC packs ``DOUBLE_COMPLEX``-like
su3 matrices (we model them as pairs of doubles), NAS_MG uses
``DOUBLE`` vectors.
"""

from __future__ import annotations

from typing import Hashable, Tuple

import numpy as np

from .base import Datatype
from .layout import DataLayout

__all__ = [
    "Primitive",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "COMPLEX",
    "DOUBLE_COMPLEX",
    "PREDEFINED",
]


class Primitive(Datatype):
    """A predefined MPI datatype: one dense block of ``nbytes``."""

    __slots__ = ("name", "nbytes", "np_dtype")

    def __init__(self, name: str, nbytes: int, np_dtype: np.dtype):
        super().__init__()
        if nbytes <= 0:
            raise ValueError(f"primitive {name!r} must have positive size")
        self.name = name
        self.nbytes = int(nbytes)
        self.np_dtype = np.dtype(np_dtype)
        if self.np_dtype.itemsize != self.nbytes:
            raise ValueError(
                f"numpy dtype {np_dtype} itemsize {self.np_dtype.itemsize} "
                f"!= declared size {nbytes}"
            )

    @property
    def size(self) -> int:
        return self.nbytes

    @property
    def extent(self) -> int:
        return self.nbytes

    def _signature(self) -> Tuple[Hashable, ...]:
        return ("prim", self.name, self.nbytes)

    def _flatten(self) -> DataLayout:
        return DataLayout.contiguous(self.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MPI_{self.name.upper()}>"


BYTE = Primitive("byte", 1, np.uint8)
CHAR = Primitive("char", 1, np.int8)
SHORT = Primitive("short", 2, np.int16)
INT = Primitive("int", 4, np.int32)
LONG = Primitive("long", 8, np.int64)
FLOAT = Primitive("float", 4, np.float32)
DOUBLE = Primitive("double", 8, np.float64)
COMPLEX = Primitive("complex", 8, np.complex64)
DOUBLE_COMPLEX = Primitive("double_complex", 16, np.complex128)

#: Name → handle map of every predefined type.
PREDEFINED = {
    t.name: t
    for t in (BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE, COMPLEX, DOUBLE_COMPLEX)
}
