"""Delta-store semantics vs a freshly consolidated reference engine.

The acceptance bar for the live-update path: for ANY interleaving of
subscribes and unsubscribes over ANY frozen starting index, the served
answer (frozen result + delta overlay) must be bit-identical to the
answer of an engine consolidated from scratch over the final multiset
of associations.  Hypothesis drives the interleavings.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
