"""Balanced recursive partitioning (Algorithm 1, §3.1).

``consolidate()`` splits the database into partitions so that all tag
sets in a partition share a defining bit mask.  Starting from the whole
database with an empty mask, each oversized partition is split on a
*pivot* — a previously unused bit whose one-frequency is closest to 50 %
— into the sets with that bit clear (same mask) and the sets with it set
(mask ∪ {pivot}).  The result is a set of ≤ ``MAX_P``-sized partitions
whose masks drive the pre-process stage.

Two boundary cases the paper's pseudo-code leaves implicit are handled
explicitly here and covered by tests:

* A partition whose rows cannot be distinguished by any unused bit
  (e.g. many identical signatures) is accepted even if it exceeds
  ``MAX_P`` — no pivot can split it.
* The root partition must be split at least once so that every final
  mask is non-empty (the ``mask ≠ ∅`` condition); if the database is so
  small or so uniform that no split is possible, a single partition with
  an empty mask is produced, and the partition table treats it as
  relevant to every query.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.bloom.array import SignatureArray
from repro.errors import ValidationError

__all__ = ["Partition", "PartitioningResult", "balanced_partition"]


@dataclass
class Partition:
    """One partition: its defining mask and the rows it contains."""

    mask: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def mask_is_empty(self) -> bool:
        return not bool(self.mask.any())


@dataclass
class PartitioningResult:
    """Partitions plus the statistics the evaluation reports (Figure 8)."""

    partitions: list[Partition]
    elapsed_s: float
    num_sets: int

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def max_size(self) -> int:
        return max((len(p) for p in self.partitions), default=0)

    @property
    def mean_size(self) -> float:
        if not self.partitions:
            return 0.0
        return self.num_sets / len(self.partitions)


def _bit_frequencies(rows: np.ndarray, width: int) -> np.ndarray:
    return SignatureArray(rows, width=width).bit_frequencies()


def _child_frequencies(
    blocks: np.ndarray,
    width: int,
    parent: np.ndarray,
    zero: np.ndarray,
    one: np.ndarray,
    need_zero: bool,
    need_one: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Bit frequencies of a split's two children, ``None`` where not needed.

    Only the smaller child's rows are counted; the larger child's counts
    are the parent's minus the smaller's.
    """
    if not (need_zero or need_one):
        return None, None
    if zero.size <= one.size:
        counts = _bit_frequencies(blocks[zero], width)
        return (counts if need_zero else None), (parent - counts if need_one else None)
    counts = _bit_frequencies(blocks[one], width)
    return (parent - counts if need_zero else None), (counts if need_one else None)


def _pick_pivot(
    freq: np.ndarray, used: np.ndarray, size: int, strategy: str
) -> int | None:
    """Choose the split bit, or ``None`` if no unused bit can split.

    ``freq`` counts, per bit, the partition's rows having it set.
    ``"balanced"`` is Algorithm 1's rule (frequency closest to 50 %);
    ``"first_unused"`` is the naive alternative the pivot ablation
    compares against (first unused non-degenerate bit position).
    """
    splittable = (freq > 0) & (freq < size) & ~used
    if not np.any(splittable):
        return None
    if strategy == "first_unused":
        return int(np.argmax(splittable))
    if strategy != "balanced":
        raise ValidationError(f"unknown pivot strategy {strategy!r}")
    distance = np.abs(freq - size / 2.0).astype(float)
    distance[~splittable] = np.inf
    return int(np.argmin(distance))


def balanced_partition(
    blocks: np.ndarray,
    max_partition_size: int,
    width: int,
    pivot_strategy: str = "balanced",
) -> PartitioningResult:
    """Run Algorithm 1 over the unique signature rows ``blocks``.

    Returns partitions whose ``indices`` reference rows of ``blocks``.
    Together the partitions exactly cover the database: indices are
    disjoint and their union is ``range(len(blocks))``.
    """
    if max_partition_size <= 0:
        raise ValidationError("max_partition_size must be positive")
    if blocks.ndim != 2:
        raise ValidationError("blocks must be a 2-D signature array")
    start = time.perf_counter()
    n = blocks.shape[0]
    num_words = blocks.shape[1]
    if n == 0:
        return PartitioningResult([], time.perf_counter() - start, 0)

    blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
    partitions: list[Partition] = []

    def is_leaf(mask: np.ndarray, size: int) -> bool:
        return size == 0 or (size <= max_partition_size and bool(mask.any()))

    # Work queue entries: (mask, row indices, used-bit boolean vector,
    # per-bit frequencies over those rows).  A leaf carries no
    # frequencies: it never picks a pivot.  The root (empty mask) is
    # never a leaf.
    queue: deque = deque()
    queue.append(
        (
            np.zeros(num_words, dtype=np.uint64),
            np.arange(n, dtype=np.int64),
            np.zeros(width, dtype=bool),
            _bit_frequencies(blocks, width),
        )
    )

    while queue:
        mask, indices, used, freq = queue.popleft()
        size = indices.size
        if size == 0:
            continue
        if freq is None:
            partitions.append(Partition(mask=mask, indices=indices))
            continue

        pivot = _pick_pivot(freq, used, size, pivot_strategy)
        if pivot is None:
            # Indivisible: accept as-is (possibly oversized or with an
            # empty mask — see module docstring).
            partitions.append(Partition(mask=mask, indices=indices))
            continue

        word, offset = divmod(pivot, 64)
        bit = np.uint64(1) << np.uint64(63 - offset)
        has_bit = (blocks[indices, word] & bit) != 0
        used_next = used.copy()
        used_next[pivot] = True
        mask_one = mask.copy()
        mask_one[word] |= bit
        zero, one = indices[~has_bit], indices[has_bit]
        freq_zero, freq_one = _child_frequencies(
            blocks,
            width,
            freq,
            zero,
            one,
            need_zero=not is_leaf(mask, zero.size),
            need_one=not is_leaf(mask_one, one.size),
        )
        queue.append((mask, zero, used_next, freq_zero))
        queue.append((mask_one, one, used_next, freq_one))

    return PartitioningResult(partitions, time.perf_counter() - start, n)
