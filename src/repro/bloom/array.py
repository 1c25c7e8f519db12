"""Packed signature arrays with vectorized bitwise-subset operations.

TagMatch's hot paths — the GPU subset-match kernel (Algorithm 3), the
thread-block pre-filter (Algorithm 4), and the partition pre-process
(Algorithm 2) — all reduce to block-wise operations on 192-bit vectors.
:class:`SignatureArray` stores ``n`` signatures as an ``(n, num_blocks)``
``uint64`` NumPy array and exposes those operations in vectorized form;
this plays the role that SIMD/CUDA data parallelism plays in the paper's
C++/CUDA implementation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.bloom.filter import BloomSignature
from repro.bloom.hashing import BLOCK_BITS, TagHasher
from repro.errors import ValidationError

__all__ = ["SignatureArray", "unique_rows"]

_U64 = np.uint64


def _as_blocks(blocks: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(blocks, dtype=_U64)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D block array, got shape {arr.shape}")
    return arr


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 (0 for zero input)."""
    x = x.astype(_U64, copy=True)
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (_U64(1) << _U64(shift))
        n[big] += shift
        x[big] >>= _U64(shift)
    n[x > 0] += 1
    return n


def unique_rows(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate the rows of a 2-D array by sorting.

    Returns ``(unique, inverse)`` exactly as
    ``np.unique(blocks, axis=0, return_inverse=True)`` does: the distinct
    rows in lexicographic order (column 0 most significant) and, for every
    input row, the index of its unique row.  One ``np.lexsort`` and an
    adjacent-row comparison replace NumPy's sort over a structured view.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2:
        raise ValidationError(f"expected a 2-D array, got shape {blocks.shape}")
    n = blocks.shape[0]
    if n == 0:
        return blocks.copy(), np.empty(0, dtype=np.intp)
    # np.lexsort sorts by the *last* key first: feed columns in reverse.
    order = np.lexsort(blocks.T[::-1])
    ordered = blocks[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


class SignatureArray:
    """A column of Bloom-filter signatures packed into 64-bit blocks.

    The array is the storage format of the tagset table (on the simulated
    GPU) and of the partition masks (on the host).  All operations are
    NumPy-vectorized; none iterate per signature in Python.
    """

    __slots__ = ("blocks", "width")

    def __init__(self, blocks: np.ndarray, width: int | None = None) -> None:
        self.blocks = _as_blocks(blocks)
        inferred = self.blocks.shape[1] * BLOCK_BITS
        self.width = width if width is not None else inferred
        if self.width != inferred:
            raise ValidationError(
                f"width {self.width} does not match {self.blocks.shape[1]} blocks"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tag_sets(
        cls, tag_sets: Sequence[Iterable[str]], hasher: TagHasher
    ) -> "SignatureArray":
        """Encode many tag sets at once."""
        return cls(hasher.encode_sets(tag_sets), width=hasher.width)

    @classmethod
    def from_signatures(cls, sigs: Sequence[BloomSignature]) -> "SignatureArray":
        """Pack scalar signatures (all of equal width) into an array."""
        if not sigs:
            raise ValidationError("cannot build a SignatureArray from no signatures")
        width = sigs[0].width
        rows = np.empty((len(sigs), width // BLOCK_BITS), dtype=_U64)
        for i, sig in enumerate(sigs):
            if sig.width != width:
                raise ValidationError("mixed signature widths")
            rows[i] = sig.blocks
        return cls(rows, width=width)

    @classmethod
    def zeros(cls, n: int, width: int) -> "SignatureArray":
        """``n`` all-zero signatures of the given width."""
        if width <= 0 or width % BLOCK_BITS != 0:
            raise ValidationError(f"width must be a multiple of {BLOCK_BITS}")
        return cls(np.zeros((n, width // BLOCK_BITS), dtype=_U64), width=width)

    # ------------------------------------------------------------------
    # Size / element access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.blocks.shape[0]

    @property
    def num_blocks(self) -> int:
        return self.blocks.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes of signature payload (what a device upload would copy)."""
        return self.blocks.nbytes

    def row(self, index: int) -> BloomSignature:
        """Materialize row ``index`` as a scalar signature."""
        return BloomSignature((int(w) for w in self.blocks[index]), width=self.width)

    def take(self, indices: np.ndarray) -> "SignatureArray":
        """Gather the given rows into a new array."""
        return SignatureArray(self.blocks[np.asarray(indices)], width=self.width)

    def signatures(self) -> list[BloomSignature]:
        """Materialize every row (test/debug helper; O(n) Python objects)."""
        return [self.row(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    # Subset relations (the core primitive)
    # ------------------------------------------------------------------
    def subset_of(self, query: np.ndarray) -> np.ndarray:
        """Boolean mask of rows that are bitwise subsets of ``query``.

        ``query`` is a single signature as a ``(num_blocks,)`` uint64
        vector.  Row ``i`` matches iff ``blocks[i] & ~query == 0`` in every
        block — exactly the three block operations of footnote 4.
        """
        q = np.asarray(query, dtype=_U64).reshape(-1)
        if q.shape[0] != self.num_blocks:
            raise ValidationError("query block count mismatch")
        return ~np.any(self.blocks & ~q, axis=1)

    def subset_of_each(self, queries: "SignatureArray") -> np.ndarray:
        """``(n, q)`` boolean matrix: row-``i``-is-subset-of-query-``j``.

        This is the all-pairs form used by the simulated GPU kernel when it
        evaluates a whole batch of queries against a partition.
        """
        if queries.num_blocks != self.num_blocks:
            raise ValidationError("query block count mismatch")
        mismatch = self.blocks[:, None, :] & ~queries.blocks[None, :, :]
        return ~np.any(mismatch, axis=2)

    def contains(self, mask: np.ndarray) -> np.ndarray:
        """Boolean mask of rows ``r`` with ``mask ⊆ r`` (bitwise)."""
        m = np.asarray(mask, dtype=_U64).reshape(-1)
        if m.shape[0] != self.num_blocks:
            raise ValidationError("mask block count mismatch")
        return ~np.any(~self.blocks & m, axis=1)

    # ------------------------------------------------------------------
    # Orderings and bit statistics
    # ------------------------------------------------------------------
    def lex_sort_order(self) -> np.ndarray:
        """Indices that sort rows in lexicographic (bit-string) order.

        The tagset table keeps each partition in this order so that
        consecutive thread blocks share long common prefixes
        (Algorithm 4).
        """
        # np.lexsort sorts by the *last* key first, so feed blocks in
        # reverse column order to make block 0 the primary key.
        keys = tuple(self.blocks[:, col] for col in range(self.num_blocks - 1, -1, -1))
        return np.lexsort(keys)

    def leftmost_one_positions(self) -> np.ndarray:
        """Per-row position of the leftmost one-bit (``width`` if zero)."""
        n = len(self)
        out = np.full(n, self.width, dtype=np.int64)
        undecided = np.ones(n, dtype=bool)
        for col in range(self.num_blocks):
            column = self.blocks[:, col]
            hit = undecided & (column != 0)
            if np.any(hit):
                lengths = _bit_length_u64(column[hit])
                out[hit] = col * BLOCK_BITS + (BLOCK_BITS - lengths)
                undecided &= ~hit
            if not np.any(undecided):
                break
        return out

    def popcounts(self) -> np.ndarray:
        """Per-row number of one-bits."""
        return np.bitwise_count(self.blocks).sum(axis=1).astype(np.int64)

    def bit_frequencies(self) -> np.ndarray:
        """``(width,)`` count of rows having each bit set.

        Used by Algorithm 1 to pick the pivot bit whose frequency is
        closest to 50 % of the current partition.
        """
        if len(self) == 0:
            return np.zeros(self.width, dtype=np.int64)
        big_endian = self.blocks.astype(">u8").view(np.uint8)
        bits = np.unpackbits(big_endian, axis=1)
        return bits.sum(axis=0, dtype=np.int64)

    def unique(self) -> tuple["SignatureArray", np.ndarray]:
        """Deduplicate rows.

        Returns ``(unique_rows, inverse)`` where ``inverse[i]`` is the row
        of the unique array equal to original row ``i``.  The engine uses
        this to merge keys of users with identical interests (the paper's
        300 M users map to 212 M *unique* sets).
        """
        uniq, inverse = unique_rows(self.blocks)
        return SignatureArray(uniq, width=self.width), inverse

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> "SignatureArray":
        sub = self.blocks[key]
        if sub.ndim == 1:
            sub = sub.reshape(1, -1)
        return SignatureArray(sub, width=self.width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureArray):
            return NotImplemented
        return self.width == other.width and np.array_equal(self.blocks, other.blocks)

    def __hash__(self) -> int:  # pragma: no cover - arrays are not hashable
        raise TypeError("SignatureArray is not hashable")

    def __repr__(self) -> str:
        return f"SignatureArray(n={len(self)}, width={self.width})"
