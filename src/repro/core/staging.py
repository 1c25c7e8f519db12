"""Staged additions and removals (the *temporary index* of §2).

``add-set`` and ``remove-set`` are not immediately effective: they are
staged and become visible only after ``consolidate()`` rebuilds the
index.  The staging area stores one row per ``(tag set, key)``
association; consolidation turns the surviving associations into the
unique-signature database that partitioning operates on.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from repro.bloom.array import unique_rows
from repro.bloom.hashing import TagHasher
from repro.errors import ValidationError

__all__ = ["StagingArea", "ConsolidatedDatabase"]

_INT64_MAX = np.iinfo(np.int64).max


class ConsolidatedDatabase:
    """The association table after a consolidate: one row per (set, key).

    ``blocks[i]`` is the signature of association ``i`` and ``keys[i]``
    its key.  Unique signatures and the grouped key table are derived
    from this by the engine.  When the staging area stores original tag
    sets (exact-check mode), ``tag_sets[i]`` is the frozenset behind
    association ``i``.
    """

    def __init__(
        self,
        blocks: np.ndarray,
        keys: np.ndarray,
        tag_sets: list[frozenset[str]] | None = None,
    ) -> None:
        if blocks.ndim != 2 or blocks.shape[0] != keys.shape[0]:
            raise ValidationError("blocks and keys must be parallel")
        if tag_sets is not None and len(tag_sets) != blocks.shape[0]:
            raise ValidationError("tag_sets must parallel blocks")
        self.blocks = blocks
        self.keys = keys
        self.tag_sets = tag_sets

    def __len__(self) -> int:
        return self.blocks.shape[0]


class StagingArea:
    """Accumulates pending add/remove operations between consolidations.

    Staged adds and removes are kept as array chunks in call order — a
    bulk call stages one chunk, a single ``add-set`` a one-row chunk — so
    :meth:`apply` is a handful of NumPy calls however the rows arrived.

    With ``store_tags=True`` the original tag sets are retained alongside
    the signatures so the engine can run the optional exact subset check
    that removes Bloom false positives (§3).
    """

    def __init__(self, hasher: TagHasher, store_tags: bool = False) -> None:
        self._hasher = hasher
        self.store_tags = store_tags
        #: ``(blocks, keys, tag_sets or None)`` per staging call.
        self._adds: list[tuple[np.ndarray, np.ndarray, list | None]] = []
        self._removes: list[tuple[np.ndarray, np.ndarray]] = []
        self.pending_adds = 0
        self.pending_removes = 0

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage_add(self, tags, key: int) -> None:
        """Stage ``add-set(tags, key)``."""
        tags = frozenset(tags)
        blocks, keys = self._row(self._hasher.encode_set(tags), key)
        self._push_add(blocks, keys, [tags] if self.store_tags else None)

    def stage_add_signature(self, blocks: tuple[int, ...], key: int) -> None:
        """Fast path: stage an already-encoded signature."""
        if self.store_tags:
            raise ValidationError(
                "signature-only staging is incompatible with store_tags"
            )
        self._push_add(*self._row(blocks, key))

    def stage_add_bulk(self, blocks: np.ndarray, keys: np.ndarray) -> None:
        """Fast path: stage many pre-encoded associations at once.

        Benchmarks loading hundreds of thousands of workload sets use
        this to skip per-row Python overhead.  The arrays are copied, so
        the caller may reuse them once this returns.
        """
        if self.store_tags:
            raise ValidationError("bulk staging is incompatible with store_tags")
        self._push_add(*self._bulk(blocks, keys))

    def stage_remove(self, tags, key: int) -> None:
        """Stage ``remove-set(tags, key)``."""
        self._push_remove(*self._row(self._hasher.encode_set(tags), key))

    def stage_remove_signature(self, blocks, key: int) -> None:
        """Fast path: stage a removal by pre-encoded signature.

        The serving layer's delta store records unsubscribes as
        ``(signature, key)`` tombstones — the original tag strings are
        gone by reconsolidation time, so folding a tombstone back into
        the staging area has to work from the signature alone.
        """
        self._push_remove(*self._row(blocks, key))

    def stage_remove_bulk(self, blocks: np.ndarray, keys: np.ndarray) -> None:
        """Stage one removal per ``(blocks[i], keys[i])`` pair."""
        self._push_remove(*self._bulk(blocks, keys))

    @property
    def dirty(self) -> bool:
        """True when staged operations have not been consolidated yet."""
        return bool(self.pending_adds or self.pending_removes)

    def _row(self, blocks, key: int) -> tuple[np.ndarray, np.ndarray]:
        row = np.array(blocks, dtype=np.uint64).reshape(1, -1)
        if row.shape[1] != self._hasher.num_blocks:
            raise ValidationError("signature block count mismatch")
        return row, np.array([int(key)], dtype=np.int64)

    def _bulk(self, blocks, keys) -> tuple[np.ndarray, np.ndarray]:
        blocks = np.array(blocks, dtype=np.uint64)
        keys = np.asarray(keys)
        if blocks.ndim != 2 or blocks.shape[1] != self._hasher.num_blocks:
            raise ValidationError("signature block count mismatch")
        if keys.ndim != 1 or not np.issubdtype(keys.dtype, np.integer):
            raise ValidationError(
                f"keys must be a 1-D integer array, got {keys.dtype} "
                f"with shape {keys.shape}"
            )
        if blocks.shape[0] != keys.shape[0]:
            raise ValidationError("blocks and keys must be parallel")
        if keys.dtype == np.uint64 and keys.size and keys.max() > _INT64_MAX:
            raise ValidationError("keys must fit in int64")
        return blocks, keys.astype(np.int64)

    def _push_add(self, blocks, keys, tag_sets=None) -> None:
        if len(keys):
            self._adds.append((blocks, keys, tag_sets))
            self.pending_adds += len(keys)

    def _push_remove(self, blocks, keys) -> None:
        if len(keys):
            self._removes.append((blocks, keys))
            self.pending_removes += len(keys)

    # ------------------------------------------------------------------
    # Consolidation
    # ------------------------------------------------------------------
    def apply(self, current: ConsolidatedDatabase | None) -> ConsolidatedDatabase:
        """Apply staged operations to ``current`` and clear the stage.

        Each staged remove deletes *one* matching ``(signature, key)``
        association (matching the interface's multiset semantics); a
        remove with no matching association is ignored, like deleting a
        non-existent row.  With ``c`` removes staged for one pair, the
        first ``c`` of its rows (in database-then-staging order) go.
        """
        chunks = list(self._adds)
        if current is not None and len(current):
            if self.store_tags and current.tag_sets is None:
                raise ValidationError(
                    "store_tags staging applied to a database without tag sets"
                )
            chunks.insert(0, (current.blocks, current.keys, current.tag_sets))
        if chunks:
            blocks = _concat([c[0] for c in chunks])
            keys = _concat([c[1] for c in chunks])
        else:
            blocks = np.empty((0, self._hasher.num_blocks), dtype=np.uint64)
            keys = np.empty(0, dtype=np.int64)
        tag_sets = None
        if self.store_tags:
            tag_sets = list(chain.from_iterable(c[2] for c in chunks))

        if self._removes:
            alive = _surviving_rows(
                blocks,
                keys,
                _concat([r[0] for r in self._removes]),
                _concat([r[1] for r in self._removes]),
            )
            blocks = blocks[alive]
            keys = keys[alive]
            if tag_sets is not None:
                tag_sets = list(compress(tag_sets, alive))

        self._adds.clear()
        self._removes.clear()
        self.pending_adds = self.pending_removes = 0
        return ConsolidatedDatabase(blocks, keys, tag_sets)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _surviving_rows(
    blocks: np.ndarray,
    keys: np.ndarray,
    remove_blocks: np.ndarray,
    remove_keys: np.ndarray,
) -> np.ndarray:
    """Boolean mask of the rows that survive the staged removes.

    Rows and removes are grouped by their ``(signature, key)`` pair; a
    row survives unless it is among the first ``c`` rows of its group,
    where ``c`` counts the removes staged for that pair.  This is what
    applying the removes one at a time, each deleting the first alive
    match, leaves behind.
    """
    alive = np.ones(keys.size, dtype=bool)
    candidates = np.flatnonzero(np.isin(keys, remove_keys))
    if candidates.size == 0:
        return alive
    pairs = np.concatenate(
        [
            np.column_stack([blocks[candidates], keys[candidates].astype(np.uint64)]),
            np.column_stack([remove_blocks, remove_keys.astype(np.uint64)]),
        ]
    )
    unique, group = unique_rows(pairs)
    row_group, remove_group = group[: candidates.size], group[candidates.size :]
    quota = np.bincount(remove_group, minlength=unique.shape[0])
    # Rank of each candidate among the rows of its group, in row order.
    order = np.argsort(row_group, kind="stable")
    ordered = row_group[order]
    rank = np.empty(candidates.size, dtype=np.int64)
    rank[order] = np.arange(candidates.size) - np.searchsorted(ordered, ordered)
    alive[candidates[rank < quota[row_group]]] = False
    return alive
