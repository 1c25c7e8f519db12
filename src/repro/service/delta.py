"""Live-update delta store: online add/remove without re-consolidating.

The engine's own ``add_set``/``remove_set`` only take effect after a
full ``consolidate()`` — useless while serving.  The delta store absorbs
subscribes and unsubscribes immediately and answers queries as

    frozen-index result  ∪  delta-add scan  −  tombstones

where the frozen index is the last consolidated engine, delta adds are
associations subscribed since, and tombstones are unsubscribes whose
target lives in the frozen index (an unsubscribe whose target is still
in the delta simply deletes the delta add).  All arithmetic is multiset
arithmetic, matching the §2 semantics: one tombstone removes exactly one
instance of its key, and ``match-unique`` is a final ``np.unique``.

A background reconsolidation (see :mod:`repro.service.server`) captures
the delta up to a fold mark, rebuilds a fresh engine off the hot path,
and truncates the folded prefix on swap.  While a rebuild is in flight,
unsubscribes never touch the captured prefix — deleting an add that the
rebuild already copied would resurrect it at swap time — so removals of
prefix adds become tombstones instead, which stay valid against the new
engine because the prefix *is* part of the new engine.

Everything here runs on the event-loop thread; matcher threads only read
immutable :class:`DeltaView` snapshots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.bloom.ops import containment_matrix

__all__ = ["DeltaStore", "DeltaView", "apply_delta"]


def _pair(blocks: np.ndarray, key: int) -> tuple[bytes, int]:
    """Hashable identity of one (signature, key) association."""
    return (np.ascontiguousarray(blocks, dtype=np.uint64).tobytes(), int(key))


@dataclass(frozen=True)
class DeltaView:
    """Immutable snapshot of the delta, safe to hand to matcher threads."""

    add_blocks: np.ndarray
    add_keys: np.ndarray
    tomb_blocks: np.ndarray
    tomb_keys: np.ndarray
    seq: int

    @property
    def size(self) -> int:
        return int(self.add_keys.size + self.tomb_keys.size)


class DeltaStore:
    """Mutable adds + tombstones over one frozen consolidated index."""

    def __init__(self, num_words: int) -> None:
        self.num_words = num_words
        self._add_blocks: list[np.ndarray] = []
        self._add_keys: list[int] = []
        self._tomb_blocks: list[np.ndarray] = []
        self._tomb_keys: list[int] = []
        #: The frozen index's association table, viewed in key order:
        #: ``_frozen_blocks[_frozen_order[i]]`` carries ``_frozen_keys[i]``.
        self._frozen_blocks = np.empty((0, num_words), dtype=np.uint64)
        self._frozen_order = np.empty(0, dtype=np.intp)
        self._frozen_keys = np.empty(0, dtype=np.int64)
        #: Tombstone multiplicity (validity bookkeeping for unsubscribe).
        self._tomb_counts: Counter = Counter()
        #: Adds below this index are captured by an in-flight rebuild.
        self._fold_adds = 0
        self._fold_tombs = 0
        self._fold_active = False
        #: Total mutations absorbed (also the view-cache key).
        self.seq = 0
        self._view_cache: DeltaView | None = None

    # ------------------------------------------------------------------
    # Frozen-index bookkeeping
    # ------------------------------------------------------------------
    def rebase(self, db_blocks: np.ndarray, db_keys: np.ndarray) -> None:
        """Point the store at a (new) frozen index's association table.

        The engine's arrays are referenced, not copied: a consolidated
        database is never written in place.  Only a key-sorted order is
        built, so a rebase costs one ``argsort`` however large the index.
        """
        self._frozen_blocks = db_blocks
        self._frozen_order = np.argsort(db_keys, kind="stable")
        self._frozen_keys = db_keys[self._frozen_order]

    def _frozen_count(self, blocks: np.ndarray, key: int) -> int:
        """Multiplicity of ``(blocks, key)`` in the frozen index."""
        # Two searchsorted sides, not ``key + 1``: that overflows int64.
        lo = np.searchsorted(self._frozen_keys, key, side="left")
        hi = np.searchsorted(self._frozen_keys, key, side="right")
        rows = self._frozen_blocks[self._frozen_order[lo:hi]]
        return int(np.count_nonzero((rows == blocks).all(axis=1)))

    # ------------------------------------------------------------------
    # Online mutations (event-loop thread)
    # ------------------------------------------------------------------
    def subscribe(self, blocks: np.ndarray, key: int) -> None:
        """Absorb one ``add-set`` immediately."""
        self._add_blocks.append(np.ascontiguousarray(blocks, dtype=np.uint64))
        self._add_keys.append(int(key))
        self.seq += 1
        self._view_cache = None

    def unsubscribe(self, blocks: np.ndarray, key: int) -> bool:
        """Absorb one ``remove-set``; False when nothing matched.

        Order of preference: delete a live (un-captured) delta add, else
        tombstone a frozen/captured association, else no-op — the same
        "remove one matching association, ignore otherwise" semantics as
        :meth:`StagingArea.apply`, applied in arrival order.
        """
        blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
        pair = _pair(blocks, key)
        for i in range(len(self._add_keys) - 1, self._fold_adds - 1, -1):
            if self._add_keys[i] == int(key) and np.array_equal(
                self._add_blocks[i], blocks
            ):
                del self._add_blocks[i]
                del self._add_keys[i]
                self.seq += 1
                self._view_cache = None
                return True
        prefix_adds = sum(
            1
            for i in range(self._fold_adds)
            if self._add_keys[i] == int(key)
            and np.array_equal(self._add_blocks[i], blocks)
        )
        available = (
            self._frozen_count(blocks, int(key))
            + prefix_adds
            - self._tomb_counts.get(pair, 0)
        )
        if available <= 0:
            return False
        self._tomb_blocks.append(blocks)
        self._tomb_keys.append(int(key))
        self._tomb_counts[pair] += 1
        self.seq += 1
        self._view_cache = None
        return True

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._add_keys) + len(self._tomb_keys)

    def view(self) -> DeltaView:
        """Snapshot the current delta as immutable arrays (memoised)."""
        if self._view_cache is not None:
            return self._view_cache
        add_blocks = (
            np.vstack(self._add_blocks)
            if self._add_blocks
            else np.empty((0, self.num_words), dtype=np.uint64)
        )
        tomb_blocks = (
            np.vstack(self._tomb_blocks)
            if self._tomb_blocks
            else np.empty((0, self.num_words), dtype=np.uint64)
        )
        self._view_cache = DeltaView(
            add_blocks=add_blocks,
            add_keys=np.array(self._add_keys, dtype=np.int64),
            tomb_blocks=tomb_blocks,
            tomb_keys=np.array(self._tomb_keys, dtype=np.int64),
            seq=self.seq,
        )
        return self._view_cache

    # ------------------------------------------------------------------
    # Reconsolidation protocol
    # ------------------------------------------------------------------
    def mark_fold(self) -> DeltaView:
        """Capture the current delta for a background rebuild.

        Until :meth:`complete_fold` or :meth:`abort_fold`, unsubscribes
        treat the captured adds as frozen (tombstone instead of delete).
        """
        if self._fold_active:
            raise RuntimeError("a fold is already in flight")
        view = self.view()
        self._fold_active = True
        self._fold_adds = len(self._add_keys)
        self._fold_tombs = len(self._tomb_keys)
        return view

    def complete_fold(self, db_blocks: np.ndarray, db_keys: np.ndarray) -> None:
        """Drop the folded prefix and rebase on the new frozen index."""
        del self._add_blocks[: self._fold_adds]
        del self._add_keys[: self._fold_adds]
        folded_tombs = self._tomb_blocks[: self._fold_tombs]
        folded_keys = self._tomb_keys[: self._fold_tombs]
        for row, key in zip(folded_tombs, folded_keys):
            self._tomb_counts[_pair(row, key)] -= 1
        del self._tomb_blocks[: self._fold_tombs]
        del self._tomb_keys[: self._fold_tombs]
        self._tomb_counts += Counter()  # drop zero/negative entries
        self._fold_adds = 0
        self._fold_tombs = 0
        self._fold_active = False
        self._view_cache = None
        self.rebase(db_blocks, db_keys)

    def abort_fold(self) -> None:
        """A rebuild failed; release the captured prefix unchanged."""
        self._fold_adds = 0
        self._fold_tombs = 0
        self._fold_active = False


def apply_delta(
    frozen_results: list[np.ndarray],
    query_blocks: np.ndarray,
    view: DeltaView,
    unique_flags: list[bool],
) -> list[np.ndarray]:
    """Overlay the delta on a batch of frozen-index results.

    ``frozen_results[i]`` is the engine's multiset answer for query row
    ``i`` (``unique=False``!).  Delta adds whose signature ⊆ query are
    unioned in, then each matching tombstone removes one instance of its
    key, then ``match-unique`` queries deduplicate.  The two containment
    scans are evaluated once for the whole batch (the delta-side
    analogue of the batched Algorithm 2).  Runs on matcher threads over
    an immutable view.
    """
    add_m = (
        containment_matrix(view.add_blocks, query_blocks)
        if view.add_keys.size
        else None
    )
    tomb_m = (
        containment_matrix(view.tomb_blocks, query_blocks)
        if view.tomb_keys.size
        else None
    )
    out: list[np.ndarray] = []
    for qi, keys in enumerate(frozen_results):
        if add_m is not None:
            hits = add_m[:, qi]
            if hits.any():
                keys = np.concatenate([keys, view.add_keys[hits]])
        if tomb_m is not None:
            hits = tomb_m[:, qi]
            if hits.any():
                budget = Counter(view.tomb_keys[hits].tolist())
                kept = []
                for k in keys.tolist():
                    if budget.get(k, 0) > 0:
                        budget[k] -= 1
                    else:
                        kept.append(k)
                keys = np.array(kept, dtype=np.int64)
        if unique_flags[qi]:
            keys = np.unique(keys)
        out.append(keys)
    return out
