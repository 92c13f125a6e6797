"""Flattened data layouts: the unit the whole system operates on.

An MPI derived datatype, however deeply nested, ultimately describes a
sequence of ``(byte offset, byte length)`` blocks relative to a base
address — the "flattened" representation of Träff et al.'s *flattening
on the fly* and the entry format of the datatype layout cache of
Chu et al. [24], both of which this reproduction implements.

:class:`DataLayout` stores the blocks as two NumPy ``int64`` vectors and
provides:

* the *pack plan* the data plane (:mod:`.pack`) moves bytes with.  A
  layout whose blocks share one length and one stride has a *row form*
  ``(first, block, stride, count)``, and its payload is the strided
  ``(count, block)`` view :meth:`DataLayout.row_view`; any other layout
  is *irregular* and is packed by one ``take`` through its flat
  per-byte gather index,
* replication across a ``count`` of datatype instances separated by the
  type extent,
* coalescing of adjacent blocks (what a good flattener does to vector
  types with ``blocklength == stride``),
* the block-shape statistics (count, min/mean block size) that the GPU
  kernel cost model uses to price strided memory access.

Layouts are immutable after construction; the row form and the gather
index are computed lazily, once, which is the economics of the paper's
layout cache: the layout is retrieved once per committed datatype, not
once per message, and the data plane then moves only payload bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["DataLayout", "coalesce_blocks"]


def coalesce_blocks(
    offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge blocks that are adjacent in memory.

    Blocks must already be sorted by offset and non-overlapping (MPI
    typemaps used for packing satisfy both).  Returns new arrays; inputs
    are not modified.
    """
    if len(offsets) == 0:
        return offsets.copy(), lengths.copy()
    # A block starts a new run unless it begins exactly where the
    # previous one ended.
    ends = offsets + lengths
    new_run = np.empty(len(offsets), dtype=bool)
    new_run[0] = True
    np.not_equal(offsets[1:], ends[:-1], out=new_run[1:])
    run_ids = np.cumsum(new_run) - 1
    n_runs = int(run_ids[-1]) + 1
    out_offsets = offsets[new_run]
    out_lengths = np.zeros(n_runs, dtype=np.int64)
    np.add.at(out_lengths, run_ids, lengths)
    return out_offsets, out_lengths


class DataLayout:
    """An immutable flattened ``(offsets, lengths)`` block list.

    Parameters
    ----------
    offsets, lengths:
        Parallel sequences of byte offsets and byte lengths.  Must be
        the same length; lengths must be positive; blocks must be sorted
        by offset and non-overlapping.
    extent:
        The datatype extent in bytes (stride between consecutive
        instances when ``count > 1`` is packed).  Defaults to the span
        of the blocks.
    coalesce:
        Merge adjacent blocks during construction (default True).
    validate:
        Check sortedness / non-overlap (default True; property tests
        rely on these errors firing).
    """

    __slots__ = (
        "offsets",
        "lengths",
        "extent",
        "_gather_index",
        "_row",
        "_size",
        "_min_block",
        "_max_block",
        "_mean_block",
    )

    def __init__(
        self,
        offsets: Sequence[int] | np.ndarray,
        lengths: Sequence[int] | np.ndarray,
        extent: Optional[int] = None,
        *,
        coalesce: bool = True,
        validate: bool = True,
    ):
        off = np.asarray(offsets, dtype=np.int64)
        lng = np.asarray(lengths, dtype=np.int64)
        if off.ndim != 1 or lng.ndim != 1:
            raise ValueError("offsets and lengths must be one-dimensional")
        if off.shape != lng.shape:
            raise ValueError(
                f"offsets ({off.shape}) and lengths ({lng.shape}) differ in length"
            )
        if validate and len(off):
            if np.any(lng <= 0):
                raise ValueError("all block lengths must be positive")
            ends = off[:-1] + lng[:-1]
            if np.any(off[1:] < ends):
                raise ValueError("blocks must be sorted by offset and non-overlapping")
        if coalesce:
            off, lng = coalesce_blocks(off, lng)
        self.offsets: np.ndarray = off
        self.lengths: np.ndarray = lng
        if extent is None:
            extent = int(off[-1] + lng[-1] - min(0, int(off[0]))) if len(off) else 0
        self.extent = int(extent)
        self._gather_index: Optional[np.ndarray] = None
        self._row: Optional[Tuple[int, ...]] = None
        self._size: Optional[int] = None
        self._min_block: Optional[int] = None
        self._max_block: Optional[int] = None
        self._mean_block: Optional[float] = None

    # -- shape statistics ---------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of contiguous blocks."""
        return len(self.offsets)

    @property
    def size(self) -> int:
        """Total payload bytes (sum of block lengths).

        Cached: the GPU cost model reads the shape statistics on every
        priced operation, and layouts are immutable, so each NumPy
        reduction is paid once per layout rather than once per message.
        """
        value = self._size
        if value is None:
            value = self._size = int(self.lengths.sum()) if len(self.lengths) else 0
        return value

    @property
    def span(self) -> int:
        """Bytes from the first block's start to the last block's end."""
        if not len(self.offsets):
            return 0
        return int(self.offsets[-1] + self.lengths[-1] - self.offsets[0])

    @property
    def min_block(self) -> int:
        """Smallest block length in bytes (0 for an empty layout)."""
        value = self._min_block
        if value is None:
            value = self._min_block = int(self.lengths.min()) if len(self.lengths) else 0
        return value

    @property
    def max_block(self) -> int:
        """Largest block length in bytes (0 for an empty layout)."""
        value = self._max_block
        if value is None:
            value = self._max_block = int(self.lengths.max()) if len(self.lengths) else 0
        return value

    @property
    def mean_block(self) -> float:
        """Mean block length in bytes (0.0 for an empty layout)."""
        value = self._mean_block
        if value is None:
            value = self._mean_block = (
                float(self.lengths.mean()) if len(self.lengths) else 0.0
            )
        return value

    @property
    def is_contiguous(self) -> bool:
        """True when the layout is a single block starting at offset 0."""
        return self.num_blocks == 1 and int(self.offsets[0]) == 0

    @property
    def density(self) -> float:
        """Payload bytes divided by spanned bytes (1.0 = fully dense)."""
        span = self.span
        return self.size / span if span else 1.0

    # -- derivation -----------------------------------------------------------
    def replicate(self, count: int) -> "DataLayout":
        """Layout of ``count`` consecutive instances, ``extent`` apart.

        This is how ``pack(buf, datatype, count)`` sees memory.  The
        result's extent is ``count * extent``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 1:
            return self
        if count == 0 or self.num_blocks == 0:
            return DataLayout([], [], extent=self.extent * count, validate=False)
        steps = (np.arange(count, dtype=np.int64) * self.extent)[:, None]
        offsets = (self.offsets[None, :] + steps).ravel()
        lengths = np.broadcast_to(self.lengths, (count, self.num_blocks)).ravel()
        return DataLayout(
            offsets,
            lengths,
            extent=self.extent * count,
            # Replication of a valid layout with extent >= span stays
            # valid; skip the O(n) re-check but keep coalescing (two
            # instances of a dense layout may touch).
            validate=self.extent < self.span,
        )

    def shifted(self, delta: int) -> "DataLayout":
        """Layout with every offset moved by ``delta`` bytes."""
        return DataLayout(
            self.offsets + int(delta), self.lengths, extent=self.extent,
            coalesce=False, validate=False,
        )

    def slice_blocks(self, start: int, stop: int) -> "DataLayout":
        """Sub-layout containing blocks ``[start, stop)`` (no re-basing)."""
        return DataLayout(
            self.offsets[start:stop],
            self.lengths[start:stop],
            extent=self.extent,
            coalesce=False,
            validate=False,
        )

    # -- the data plane -------------------------------------------------------
    @property
    def row_form(self) -> Optional[Tuple[int, int, int, int]]:
        """``(first, block, stride, count)``, or None for an irregular layout.

        A layout has a row form when all its blocks share one length and
        consecutive blocks share one stride; a single block counts (its
        stride is its length).  Computed once per layout.
        """
        row = self._row
        if row is None:
            row = self._row = self._compute_row_form()
        return row or None  # () marks an irregular layout

    def _compute_row_form(self) -> Tuple[int, ...]:
        n = len(self.offsets)
        if n == 0:
            return ()
        block = int(self.lengths[0])
        if n == 1:
            return (int(self.offsets[0]), block, block, 1)
        steps = np.diff(self.offsets)
        stride = int(steps[0])
        if np.any(self.lengths != block) or np.any(steps != stride):
            return ()
        return (int(self.offsets[0]), block, stride, n)

    def row_view(self, buffer: np.ndarray, base_offset: int = 0) -> np.ndarray:
        """The payload of ``buffer`` as a writable ``(count, block)`` view.

        Only for layouts with a :attr:`row_form`.  ``base_offset`` shifts
        the layout within ``buffer``; the view must lie inside it.
        """
        row = self.row_form
        if row is None:
            raise ValueError("row_view needs a layout with a row form")
        first, block, stride, count = row
        lo = first + base_offset
        hi = lo + (count - 1) * stride + block
        if lo < 0 or hi > len(buffer):
            raise IndexError(
                f"layout [{lo}, {hi}) exceeds buffer of {len(buffer)} bytes"
            )
        span = buffer[lo:hi]
        step = span.strides[0]
        return as_strided(span, shape=(count, block), strides=(stride * step, step))

    def gather_index(self, base_offset: int = 0) -> np.ndarray:
        """Flat ``int64`` index of every payload byte, shifted by ``base_offset``.

        ``source[layout.gather_index()]`` *is* the pack operation and
        ``dest[layout.gather_index()] = packed`` the unpack operation.

        The index counted from the layout's first payload byte is built
        once and cached read-only; it is what the irregular pack path
        applies to the buffer sliced at that byte, which is why
        ``base_offset == -offsets[0]`` returns the cached array itself.
        Any other offset returns a fresh shifted copy.
        """
        index = self._gather_index
        if index is None:
            total = self.size
            if total == 0:
                index = np.empty(0, dtype=np.int64)
            else:
                # Vectorized expansion of blocks into per-byte indices:
                # for block b: offsets[b] - offsets[0] + (0 .. lengths[b]-1).
                starts = np.repeat(self.offsets - self.offsets[0], self.lengths)
                within = np.arange(total, dtype=np.int64)
                block_base = np.repeat(
                    np.concatenate(([0], np.cumsum(self.lengths)[:-1])), self.lengths
                )
                index = starts + (within - block_base)
            index.flags.writeable = False
            self._gather_index = index
        shift = base_offset + (int(self.offsets[0]) if len(self.offsets) else 0)
        return index if shift == 0 else index + shift

    # -- identity ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataLayout):
            return NotImplemented
        return (
            self.extent == other.extent
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self) -> int:
        return hash((self.extent, self.offsets.tobytes(), self.lengths.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataLayout(blocks={self.num_blocks}, size={self.size}, "
            f"extent={self.extent}, mean_block={self.mean_block:.1f})"
        )

    @staticmethod
    def from_blocks(blocks: Iterable[Tuple[int, int]], extent: Optional[int] = None) -> "DataLayout":
        """Build from an iterable of ``(offset, length)`` pairs."""
        pairs = sorted(blocks)
        if pairs:
            offsets, lengths = zip(*pairs)
        else:
            offsets, lengths = (), ()
        return DataLayout(list(offsets), list(lengths), extent=extent)

    @staticmethod
    def contiguous(nbytes: int) -> "DataLayout":
        """A single dense block of ``nbytes`` at offset 0."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return DataLayout([], [], extent=0, validate=False)
        return DataLayout([0], [nbytes], extent=nbytes, validate=False)
