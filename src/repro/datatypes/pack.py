"""Reference pack/unpack: the functional data plane.

These are the byte-exact operations every packing scheme in the
reproduction ultimately performs — the simulated GPU kernels, the
hybrid scheme's host copy loops, and the naive per-block copies all
funnel through these two functions, so a single correctness property
("pack then unpack is the identity on the selected bytes") covers the
entire data plane.

Buffers are 1-D ``uint8`` NumPy arrays (raw device or host memory).
Each call moves only payload bytes, along the layout's pack plan
(:mod:`.layout`), and the layout's shape alone picks the path:

* a layout with a row form is one ``np.copyto`` between its strided
  ``(count, block)`` view and the dense ``(count, block)`` packed rows;
* an irregular layout is one gather (pack) or scatter (unpack) with
  its cached gather index, on the buffer sliced at the first payload
  byte.
"""

from __future__ import annotations

import numpy as np

from .layout import DataLayout

__all__ = ["pack_bytes", "unpack_bytes", "as_byte_view", "Packer"]


def as_byte_view(array: np.ndarray) -> np.ndarray:
    """Reinterpret any contiguous array as a flat ``uint8`` view."""
    if not array.flags["C_CONTIGUOUS"]:
        raise ValueError("buffer must be C-contiguous to view as bytes")
    return array.view(np.uint8).reshape(-1)


def _check(buffer: np.ndarray, layout: DataLayout, base_offset: int, what: str) -> int:
    """Validate ``buffer`` for ``layout``; returns where its payload starts."""
    if buffer.dtype != np.uint8 or buffer.ndim != 1:
        raise TypeError(f"{what} buffer must be a 1-D uint8 array")
    if layout.num_blocks == 0:
        return 0
    lo = int(layout.offsets[0]) + base_offset
    hi = int(layout.offsets[-1] + layout.lengths[-1]) + base_offset
    if lo < 0 or hi > len(buffer):
        raise IndexError(
            f"layout [{lo}, {hi}) exceeds {what} buffer of {len(buffer)} bytes"
        )
    return lo


def _first_byte_index(layout: DataLayout) -> np.ndarray:
    """The cached gather index, counted from the layout's first payload byte."""
    return layout.gather_index(-int(layout.offsets[0]) if layout.num_blocks else 0)


def pack_bytes(
    source: np.ndarray,
    layout: DataLayout,
    packed: np.ndarray | None = None,
    base_offset: int = 0,
) -> np.ndarray:
    """Gather the layout's bytes from ``source`` into a dense buffer.

    ``packed`` may be a preallocated output (its first ``layout.size``
    bytes are written); otherwise a new array is returned, never a view
    of ``source``.  ``base_offset`` shifts the layout within ``source``
    (the buffer argument of ``MPI_Pack``).
    """
    lo = _check(source, layout, base_offset, "source")
    size = layout.size
    if packed is None:
        packed = np.empty(size, dtype=np.uint8)
    elif packed.dtype != np.uint8 or packed.ndim != 1:
        raise TypeError("packed buffer must be a 1-D uint8 array")
    elif len(packed) < size:
        raise IndexError(
            f"packed buffer of {len(packed)} bytes cannot hold {size}"
        )
    row = layout.row_form
    if row is not None:
        np.copyto(packed[:size].reshape(row[3], row[1]), layout.row_view(source, base_offset))
    else:
        # Fancy indexing beats np.take(out=...) here: take buffers its output.
        packed[:size] = source[lo:][_first_byte_index(layout)]
    return packed


def unpack_bytes(
    packed: np.ndarray,
    layout: DataLayout,
    dest: np.ndarray,
    base_offset: int = 0,
) -> np.ndarray:
    """Scatter a dense buffer back into ``dest`` at the layout's blocks.

    Inverse of :func:`pack_bytes`; returns ``dest``.  Bytes outside the
    layout are left untouched.
    """
    lo = _check(dest, layout, base_offset, "dest")
    if packed.dtype != np.uint8 or packed.ndim != 1:
        raise TypeError("packed buffer must be a 1-D uint8 array")
    size = layout.size
    if len(packed) < size:
        raise IndexError(
            f"packed buffer of {len(packed)} bytes is shorter than {size}"
        )
    row = layout.row_form
    if row is not None:
        np.copyto(layout.row_view(dest, base_offset), packed[:size].reshape(row[3], row[1]))
    else:
        dest[lo:][_first_byte_index(layout)] = packed[:size]
    return dest


class Packer:
    """Incremental pack/unpack with MPI's ``position`` semantics.

    ``MPI_Pack`` lets callers append several datatypes into one staging
    buffer, threading a byte *position* through the calls; ``MPI_Unpack``
    consumes the buffer the same way.  :class:`Packer` captures that
    protocol::

        packer = Packer(staging)
        packer.pack(field_a, layout_a)
        packer.pack(field_b, layout_b)          # appended after a
        assert packer.position == layout_a.size + layout_b.size

        reader = Packer(staging)
        reader.unpack(layout_a, out_a)
        reader.unpack(layout_b, out_b)

    The same object can interleave pack and unpack (MPI allows it; the
    position always advances by the consumed type's size).
    """

    def __init__(self, buffer: np.ndarray, position: int = 0):
        if buffer.dtype != np.uint8 or buffer.ndim != 1:
            raise TypeError("Packer buffer must be a 1-D uint8 array")
        if not 0 <= position <= len(buffer):
            raise ValueError(f"position {position} outside buffer of {len(buffer)}")
        self.buffer = buffer
        self.position = position

    @property
    def remaining(self) -> int:
        """Bytes left after the current position."""
        return len(self.buffer) - self.position

    def pack(self, source: np.ndarray, layout: DataLayout, base_offset: int = 0) -> int:
        """Append one datatype instance; returns the new position."""
        if layout.size > self.remaining:
            raise IndexError(
                f"packing {layout.size} B at position {self.position} "
                f"overflows buffer of {len(self.buffer)} B"
            )
        pack_bytes(
            source, layout,
            self.buffer[self.position : self.position + layout.size],
            base_offset=base_offset,
        )
        self.position += layout.size
        return self.position

    def unpack(self, layout: DataLayout, dest: np.ndarray, base_offset: int = 0) -> int:
        """Consume one datatype instance; returns the new position."""
        if layout.size > self.remaining:
            raise IndexError(
                f"unpacking {layout.size} B at position {self.position} "
                f"exceeds buffer of {len(self.buffer)} B"
            )
        unpack_bytes(
            self.buffer[self.position : self.position + layout.size],
            layout, dest, base_offset=base_offset,
        )
        self.position += layout.size
        return self.position
