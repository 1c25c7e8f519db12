"""Delta-store semantics vs a freshly consolidated reference engine.

The acceptance bar for the live-update path: for ANY interleaving of
subscribes and unsubscribes over ANY frozen starting index, the served
answer (frozen result + delta overlay) must be bit-identical to the
answer of an engine consolidated from scratch over the final multiset
of associations.  Hypothesis drives the interleavings.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bloom.array import unique_rows
from repro.bloom.hashing import TagHasher
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.service.delta import DeltaStore, apply_delta
from repro.service.server import MatchServer

CONFIG = TagMatchConfig(max_partition_size=8, num_gpus=1, batch_timeout_s=None)
HASHER = TagHasher(
    width=CONFIG.width, num_hashes=CONFIG.num_hashes, seed=CONFIG.seed
)

tag_names = st.integers(0, 11).map(lambda i: f"t{i}")
tag_sets = st.sets(tag_names, min_size=1, max_size=4).map(lambda s: tuple(sorted(s)))
assoc = st.tuples(tag_sets, st.integers(1, 6))


def _encode(tags) -> np.ndarray:
    return np.array(HASHER.encode_set(tags), dtype=np.uint64)


def _fresh_engine(associations) -> TagMatch:
    engine = TagMatch(CONFIG)
    for tags, key in associations:
        engine.add_set(tags, key=key)
    engine.consolidate()
    return engine


def _oracle_results(associations, query_blocks, unique):
    """Answer queries with an engine consolidated from scratch."""
    if not associations:
        return [np.empty(0, dtype=np.int64) for _ in range(len(query_blocks))]
    with _fresh_engine(associations) as engine:
        return list(engine.match_stream(query_blocks, unique=unique).results)


def _served_results(frozen_engine, delta, query_blocks, unique):
    run = frozen_engine.match_stream(query_blocks, unique=False)
    return apply_delta(
        run.results, query_blocks, delta.view(), [unique] * len(query_blocks)
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.lists(assoc, min_size=1, max_size=8),
    ops=st.lists(
        st.tuples(st.sampled_from(["sub", "unsub"]), assoc), max_size=12
    ),
    queries=st.lists(tag_sets, min_size=1, max_size=4),
    unique=st.booleans(),
)
def test_delta_overlay_matches_fresh_engine(initial, ops, queries, unique):
    frozen = _fresh_engine(initial)
    try:
        delta = DeltaStore(HASHER.num_blocks)
        delta.rebase(frozen.database.blocks, frozen.database.keys)
        reference = list(initial)
        for op, (tags, key) in ops:
            if op == "sub":
                delta.subscribe(_encode(tags), key)
                reference.append((tags, key))
            else:
                removed = delta.unsubscribe(_encode(tags), key)
                assert removed == ((tags, key) in reference)
                if removed:
                    reference.remove((tags, key))
        query_blocks = np.vstack([_encode(q) for q in queries])
        served = _served_results(frozen, delta, query_blocks, unique)
        expected = _oracle_results(reference, query_blocks, unique)
        for got, want in zip(served, expected):
            assert np.array_equal(np.sort(got), np.sort(want))
    finally:
        frozen.close()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.lists(assoc, min_size=1, max_size=6),
    before=st.lists(st.tuples(st.sampled_from(["sub", "unsub"]), assoc), max_size=6),
    during=st.lists(st.tuples(st.sampled_from(["sub", "unsub"]), assoc), max_size=6),
    queries=st.lists(tag_sets, min_size=1, max_size=3),
)
def test_fold_protocol_preserves_answers(initial, before, during, queries):
    """Mutations racing a fold must survive the swap unchanged."""
    frozen = _fresh_engine(initial)
    engines = [frozen]
    try:
        delta = DeltaStore(HASHER.num_blocks)
        delta.rebase(frozen.database.blocks, frozen.database.keys)
        reference = list(initial)

        def apply(op, tags, key):
            if op == "sub":
                delta.subscribe(_encode(tags), key)
                reference.append((tags, key))
            elif delta.unsubscribe(_encode(tags), key):
                reference.remove((tags, key))

        for op, (tags, key) in before:
            apply(op, tags, key)
        captured = delta.mark_fold()
        for op, (tags, key) in during:
            apply(op, tags, key)
        rebuilt = MatchServer._rebuild(
            frozen.database.blocks, frozen.database.keys, captured, frozen
        )
        engines.append(rebuilt)
        delta.complete_fold(rebuilt.database.blocks, rebuilt.database.keys)

        query_blocks = np.vstack([_encode(q) for q in queries])
        served = _served_results(rebuilt, delta, query_blocks, unique=False)
        expected = _oracle_results(reference, query_blocks, unique=False)
        for got, want in zip(served, expected):
            assert np.array_equal(np.sort(got), np.sort(want))
    finally:
        for engine in engines:
            engine.close()


def _sorted_rows(database):
    """The database's (signature, key) rows as a sorted multiset."""
    rows = np.column_stack([database.blocks, database.keys.astype(np.uint64)])
    return rows[np.lexsort(rows.T[::-1])]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.lists(assoc, min_size=1, max_size=8),
    ops=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["sub", "unsub"]), assoc),
            # unsubscribe an initial association: a tombstone on the frozen index
            st.tuples(st.just("unsub_frozen"), st.integers(0, 7)),
        ),
        max_size=12,
    ),
    queries=st.lists(tag_sets, min_size=1, max_size=3),
)
def test_bulk_tombstone_rebuild_equals_fresh_engine(initial, ops, queries):
    """MatchServer._rebuild folds every tombstone in one bulk removal;
    the index it builds is the one a fresh engine builds from the same
    final database."""
    frozen = _fresh_engine(initial)
    engines = [frozen]
    try:
        delta = DeltaStore(HASHER.num_blocks)
        delta.rebase(frozen.database.blocks, frozen.database.keys)
        reference = list(initial)
        for op, arg in ops:
            tags, key = initial[arg % len(initial)] if op == "unsub_frozen" else arg
            if op == "sub":
                delta.subscribe(_encode(tags), key)
                reference.append((tags, key))
            elif delta.unsubscribe(_encode(tags), key):
                reference.remove((tags, key))
        rebuilt = MatchServer._rebuild(
            frozen.database.blocks, frozen.database.keys, delta.view(), frozen
        )
        engines.append(rebuilt)
        assert rebuilt.epoch == frozen.epoch + 1
        if not reference:
            assert len(rebuilt.database) == 0
            return
        fresh = _fresh_engine(reference)
        engines.append(fresh)
        assert np.array_equal(_sorted_rows(rebuilt.database), _sorted_rows(fresh.database))
        rebuilt_sets, _ = unique_rows(rebuilt.database.blocks)
        fresh_sets, _ = unique_rows(fresh.database.blocks)
        assert np.array_equal(rebuilt_sets, fresh_sets)
        got = rebuilt.last_consolidate.partitioning.partitions
        want = fresh.last_consolidate.partitioning.partitions
        assert [(p.mask.tolist(), p.indices.tolist()) for p in got] == [
            (p.mask.tolist(), p.indices.tolist()) for p in want
        ]
        query_blocks = np.vstack([_encode(q) for q in queries])
        for mine, theirs in zip(
            rebuilt.match_stream(query_blocks).results,
            fresh.match_stream(query_blocks).results,
        ):
            assert np.array_equal(np.sort(mine), np.sort(theirs))
    finally:
        for engine in engines:
            engine.close()


def test_unsubscribe_prefers_live_delta_add():
    frozen = _fresh_engine([(("a", "b"), 1)])
    try:
        delta = DeltaStore(HASHER.num_blocks)
        delta.rebase(frozen.database.blocks, frozen.database.keys)
        row = _encode(("a", "b"))
        delta.subscribe(row, 1)
        assert delta.unsubscribe(row, 1)  # deletes the delta add
        view = delta.view()
        assert view.add_keys.size == 0 and view.tomb_keys.size == 0
        assert delta.unsubscribe(row, 1)  # tombstones the frozen copy
        assert delta.view().tomb_keys.size == 1
        assert not delta.unsubscribe(row, 1)  # nothing left to remove
    finally:
        frozen.close()


def test_double_fold_is_rejected():
    frozen = _fresh_engine([(("a",), 1)])
    try:
        delta = DeltaStore(HASHER.num_blocks)
        delta.rebase(frozen.database.blocks, frozen.database.keys)
        delta.mark_fold()
        with pytest.raises(RuntimeError):
            delta.mark_fold()
        delta.abort_fold()
        delta.mark_fold()  # released
    finally:
        frozen.close()


class _CounterDeltaStore:
    """Reference model: the delta store's bookkeeping with the frozen
    index counted per ``(signature, key)`` row into a ``Counter``."""

    def __init__(self):
        self.adds = []  # (blocks, key)
        self.tombs = []
        self.frozen = Counter()
        self.tomb_counts = Counter()
        self.fold_adds = self.fold_tombs = 0
        self.fold_active = False
        self.seq = 0

    @staticmethod
    def pair(blocks, key):
        return (np.asarray(blocks, dtype=np.uint64).tobytes(), int(key))

    def rebase(self, db_blocks, db_keys):
        self.frozen = Counter(self.pair(b, k) for b, k in zip(db_blocks, db_keys))

    def subscribe(self, blocks, key):
        self.adds.append((blocks, int(key)))
        self.seq += 1

    def unsubscribe(self, blocks, key):
        pair = self.pair(blocks, key)
        for i in range(len(self.adds) - 1, self.fold_adds - 1, -1):
            if self.pair(*self.adds[i]) == pair:
                del self.adds[i]
                self.seq += 1
                return True
        prefix = sum(self.pair(*a) == pair for a in self.adds[: self.fold_adds])
        if self.frozen[pair] + prefix - self.tomb_counts[pair] <= 0:
            return False
        self.tombs.append((blocks, int(key)))
        self.tomb_counts[pair] += 1
        self.seq += 1
        return True

    def mark_fold(self):
        self.fold_active = True
        self.fold_adds, self.fold_tombs = len(self.adds), len(self.tombs)

    def complete_fold(self, db_blocks, db_keys):
        del self.adds[: self.fold_adds]
        for tomb in self.tombs[: self.fold_tombs]:
            self.tomb_counts[self.pair(*tomb)] -= 1
        del self.tombs[: self.fold_tombs]
        self.tomb_counts += Counter()
        self.abort_fold()
        self.rebase(db_blocks, db_keys)

    def abort_fold(self):
        self.fold_adds = self.fold_tombs = 0
        self.fold_active = False


#: Signatures share words with each other, so a check on part of a row
#: (or on the key alone) miscounts; the int64 extremes catch a
#: ``key + 1`` search bound.
_MODEL_SIGS = [
    np.array(row, dtype=np.uint64)
    for row in ([1, 2], [1, 3], [2**64 - 1, 2], [0, 0])
]
_MODEL_KEYS = [-(2**63), -1, 0, 5, 2**63 - 1]
model_assoc = st.tuples(
    st.integers(0, len(_MODEL_SIGS) - 1), st.sampled_from(_MODEL_KEYS)
)


def _pairs(blocks, keys):
    return [_CounterDeltaStore.pair(b, k) for b, k in zip(blocks, keys)]


def _as_arrays(pairs):
    blocks = np.array(
        [np.frombuffer(b, dtype=np.uint64) for b, _ in pairs], dtype=np.uint64
    ).reshape(-1, 2)
    return blocks, np.array([k for _, k in pairs], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@example(  # both int64 extremes frozen, each unsubscribed past its count
    frozen=[(0, 2**63 - 1), (1, 2**63 - 1), (0, -(2**63)), (2, -(2**63))],
    ops=[
        ("unsub", (0, 2**63 - 1)),
        ("unsub", (0, -(2**63))),
        ("unsub", (0, 2**63 - 1)),
        ("unsub", (2, -(2**63))),
    ],
    shuffle=random.Random(0),
)
@given(
    frozen=st.lists(model_assoc, max_size=10),
    ops=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["sub", "unsub"]), model_assoc),
            st.tuples(st.sampled_from(["mark", "complete", "abort"]), st.none()),
        ),
        max_size=30,
    ),
    shuffle=st.randoms(use_true_random=False),
)
def test_frozen_bookkeeping_matches_counter_model(frozen, ops, shuffle):
    """Every unsubscribe verdict and every view equals the Counter model's,
    over folds that rebase onto a reshuffled frozen ∪ adds − tombstones."""
    store, model = DeltaStore(2), _CounterDeltaStore()
    rows = [model.pair(_MODEL_SIGS[s], k) for s, k in frozen]
    store.rebase(*_as_arrays(rows))
    model.rebase(*_as_arrays(rows))
    for op, arg in ops:
        if op in ("sub", "unsub"):
            blocks, key = _MODEL_SIGS[arg[0]].copy(), arg[1]
            if op == "sub":
                store.subscribe(blocks, key)
                model.subscribe(blocks, key)
            else:
                assert store.unsubscribe(blocks, key) == model.unsubscribe(blocks, key)
        elif op == "mark" and not model.fold_active:
            view = store.mark_fold()
            model.mark_fold()
            captured_adds = _pairs(view.add_blocks, view.add_keys)
            captured_tombs = _pairs(view.tomb_blocks, view.tomb_keys)
        elif op == "complete" and model.fold_active:
            rows = rows + captured_adds
            for tomb in captured_tombs:
                rows.remove(tomb)
            shuffle.shuffle(rows)
            store.complete_fold(*_as_arrays(rows))
            model.complete_fold(*_as_arrays(rows))
        elif op == "abort" and model.fold_active:
            store.abort_fold()
            model.abort_fold()
        view = store.view()
        assert _pairs(view.add_blocks, view.add_keys) == [model.pair(*a) for a in model.adds]
        assert _pairs(view.tomb_blocks, view.tomb_keys) == [model.pair(*t) for t in model.tombs]
        assert view.seq == model.seq
