"""Tests for the staged add/remove area (§2 consolidation semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.hashing import TagHasher
from repro.core.staging import ConsolidatedDatabase, StagingArea
from repro.errors import ValidationError


@pytest.fixture
def hasher():
    return TagHasher()


class TestStaging:
    def test_adds_become_rows(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        stage.stage_add({"b"}, 2)
        db = stage.apply(None)
        assert len(db) == 2
        assert sorted(db.keys.tolist()) == [1, 2]

    def test_stage_is_cleared_after_apply(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        db1 = stage.apply(None)
        db2 = stage.apply(db1)
        assert len(db2) == 1  # not doubled

    def test_dirty_flag(self, hasher):
        stage = StagingArea(hasher)
        assert not stage.dirty
        stage.stage_add({"a"}, 1)
        assert stage.dirty
        stage.apply(None)
        assert not stage.dirty

    def test_incremental_apply_extends(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        db1 = stage.apply(None)
        stage.stage_add({"b"}, 2)
        db2 = stage.apply(db1)
        assert len(db2) == 2

    def test_counts(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        stage.stage_remove({"a"}, 1)
        assert stage.pending_adds == 1
        assert stage.pending_removes == 1


class TestRemoval:
    def test_remove_deletes_matching_association(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        stage.stage_add({"a"}, 2)
        db = stage.apply(None)
        stage.stage_remove({"a"}, 1)
        db = stage.apply(db)
        assert db.keys.tolist() == [2]

    def test_remove_only_one_occurrence(self, hasher):
        """Multiset semantics: removing (s, k) once keeps the duplicate."""
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        stage.stage_add({"a"}, 1)
        db = stage.apply(None)
        stage.stage_remove({"a"}, 1)
        db = stage.apply(db)
        assert db.keys.tolist() == [1]

    def test_remove_requires_same_set_and_key(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        db = stage.apply(None)
        stage.stage_remove({"b"}, 1)   # wrong set
        stage.stage_remove({"a"}, 9)   # wrong key
        db = stage.apply(db)
        assert len(db) == 1

    def test_remove_nonexistent_is_noop(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_remove({"ghost"}, 1)
        db = stage.apply(None)
        assert len(db) == 0

    def test_add_and_remove_in_same_batch(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add({"a"}, 1)
        stage.stage_remove({"a"}, 1)
        db = stage.apply(None)
        assert len(db) == 0


class TestBulkAndSignatures:
    def test_bulk_staging(self, hasher):
        stage = StagingArea(hasher)
        blocks = hasher.encode_sets([["a"], ["b"]])
        stage.stage_add_bulk(blocks, np.array([1, 2]))
        db = stage.apply(None)
        assert len(db) == 2
        np.testing.assert_array_equal(db.blocks, blocks)

    def test_bulk_shape_validated(self, hasher):
        stage = StagingArea(hasher)
        with pytest.raises(ValidationError):
            stage.stage_add_bulk(np.zeros((2, 5), np.uint64), np.array([1, 2]))
        with pytest.raises(ValidationError):
            stage.stage_add_bulk(np.zeros((2, 3), np.uint64), np.array([1]))

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([1.5, 2.0]),  # would silently truncate to 1
            np.array([[1], [2]]),  # shape[0] matches, but not 1-D
            np.array(["1", "2"]),
            np.array([True, False]),
        ],
    )
    def test_bulk_rejects_non_integer_keys(self, hasher, keys):
        stage = StagingArea(hasher)
        blocks = hasher.encode_sets([["a"], ["b"]])
        with pytest.raises(ValidationError):
            stage.stage_add_bulk(blocks, keys)
        with pytest.raises(ValidationError):
            stage.stage_remove_bulk(blocks, keys)
        assert not stage.dirty

    def test_bulk_rejects_keys_beyond_int64(self, hasher):
        stage = StagingArea(hasher)
        with pytest.raises(ValidationError):
            stage.stage_add_bulk(
                hasher.encode_sets([["a"]]), np.array([2**63], dtype=np.uint64)
            )

    def test_bulk_copies_caller_arrays(self, hasher):
        stage = StagingArea(hasher)
        blocks = hasher.encode_sets([["a"], ["b"]])
        keys = np.array([1, 2])
        stage.stage_add_bulk(blocks, keys)
        expected = blocks.copy()
        blocks[:] = 0
        keys[:] = 7
        db = stage.apply(None)
        np.testing.assert_array_equal(db.blocks, expected)
        assert db.keys.tolist() == [1, 2]

    def test_signature_remove_copies_caller_row(self, hasher):
        stage = StagingArea(hasher)
        blocks = hasher.encode_sets([["a"], ["b"]])
        stage.stage_add_bulk(blocks, np.array([1, 1]))
        row = blocks[0].copy()
        stage.stage_remove_signature(row, 1)
        row[:] = blocks[1]
        assert stage.apply(None).blocks.tolist() == blocks[1:].tolist()

    def test_bulk_remove(self, hasher):
        stage = StagingArea(hasher)
        blocks = hasher.encode_sets([["a"], ["b"], ["a"]])
        stage.stage_add_bulk(blocks, np.array([1, 2, 1]))
        db = stage.apply(None)
        stage.stage_remove_bulk(blocks[[0, 1]], np.array([1, 9]))
        db = stage.apply(db)
        np.testing.assert_array_equal(db.blocks, blocks[[1, 2]])
        assert db.keys.tolist() == [2, 1]

    def test_signature_staging(self, hasher):
        stage = StagingArea(hasher)
        stage.stage_add_signature(hasher.encode_set({"x"}), 5)
        db = stage.apply(None)
        assert db.keys.tolist() == [5]

    def test_signature_block_count_validated(self, hasher):
        stage = StagingArea(hasher)
        with pytest.raises(ValidationError):
            stage.stage_add_signature((1, 2), 5)


class TestStoredTags:
    def test_tags_tracked_through_apply(self, hasher):
        stage = StagingArea(hasher, store_tags=True)
        stage.stage_add({"a", "b"}, 1)
        stage.stage_add({"c"}, 2)
        db = stage.apply(None)
        assert db.tag_sets == [frozenset({"a", "b"}), frozenset({"c"})]

    def test_tags_filtered_on_removal(self, hasher):
        stage = StagingArea(hasher, store_tags=True)
        stage.stage_add({"a"}, 1)
        stage.stage_add({"b"}, 2)
        db = stage.apply(None)
        stage.stage_remove({"a"}, 1)
        db = stage.apply(db)
        assert db.tag_sets == [frozenset({"b"})]

    def test_bulk_rejected_with_store_tags(self, hasher):
        stage = StagingArea(hasher, store_tags=True)
        with pytest.raises(ValidationError):
            stage.stage_add_bulk(np.zeros((1, 3), np.uint64), np.array([1]))
        with pytest.raises(ValidationError):
            stage.stage_add_signature((0, 0, 0), 1)

    def test_mixed_database_rejected(self, hasher):
        plain = StagingArea(hasher)
        plain.stage_add({"a"}, 1)
        db = plain.apply(None)
        tagged = StagingArea(hasher, store_tags=True)
        tagged.stage_add({"b"}, 2)
        with pytest.raises(ValidationError):
            tagged.apply(db)


class TestConsolidatedDatabase:
    def test_parallel_validation(self):
        with pytest.raises(ValidationError):
            ConsolidatedDatabase(np.zeros((2, 3), np.uint64), np.zeros(3, np.int64))

    def test_tag_sets_length_validated(self):
        with pytest.raises(ValidationError):
            ConsolidatedDatabase(
                np.zeros((2, 3), np.uint64), np.zeros(2, np.int64), [frozenset()]
            )


# ----------------------------------------------------------------------
# Array staging against a per-row reference model
# ----------------------------------------------------------------------
class ReferenceStage:
    """Staging as a per-row loop: tuples in, one linear scan per remove."""

    def __init__(self, hasher, store_tags):
        self.hasher = hasher
        self.store_tags = store_tags
        self.adds = []
        self.removes = []

    def add(self, tags, key):
        self.adds.append((self.hasher.encode_set(tags), key, frozenset(tags)))

    def remove(self, tags, key):
        self.removes.append((self.hasher.encode_set(tags), key))

    def apply(self, rows):
        rows = rows + self.adds
        alive = [True] * len(rows)
        for sig, key in self.removes:
            for i, (row_sig, row_key, _) in enumerate(rows):
                if alive[i] and row_key == key and row_sig == sig:
                    alive[i] = False
                    break
        self.adds, self.removes = [], []
        return [row for row, ok in zip(rows, alive) if ok]


_tags = st.frozensets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=2)
_keys = st.integers(0, 3)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _tags, _keys),
        st.tuples(st.just("bulk"), st.lists(st.tuples(_tags, _keys), max_size=5)),
        st.tuples(st.just("remove"), _tags, _keys),
        st.tuples(st.just("remove_signature"), _tags, _keys),
        st.tuples(st.just("remove_bulk"), st.lists(st.tuples(_tags, _keys), max_size=4)),
        st.tuples(st.just("apply")),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(ops=_ops, store_tags=st.booleans())
def test_array_staging_matches_per_row_reference(ops, store_tags):
    hasher = TagHasher()
    stage = StagingArea(hasher, store_tags=store_tags)
    ref = ReferenceStage(hasher, store_tags)
    db, rows = None, []

    def check():
        assert db.blocks.dtype == np.uint64 and db.keys.dtype == np.int64
        assert [tuple(int(w) for w in r) for r in db.blocks] == [r[0] for r in rows]
        assert db.keys.tolist() == [r[1] for r in rows]
        if store_tags:
            assert db.tag_sets == [r[2] for r in rows]
        else:
            assert db.tag_sets is None

    for op in ops + [("apply",)]:
        kind = op[0]
        if kind == "add":
            stage.stage_add(op[1], op[2])
            ref.add(op[1], op[2])
        elif kind == "remove":
            stage.stage_remove(op[1], op[2])
            ref.remove(op[1], op[2])
        elif kind == "remove_signature":
            stage.stage_remove_signature(hasher.encode_set(op[1]), op[2])
            ref.remove(op[1], op[2])
        elif kind in ("bulk", "remove_bulk"):
            pairs = op[1]
            blocks = hasher.encode_sets([tags for tags, _ in pairs])
            keys = np.array([key for _, key in pairs], dtype=np.int64)
            if kind == "remove_bulk":
                stage.stage_remove_bulk(blocks, keys)
                for tags, key in pairs:
                    ref.remove(tags, key)
            elif store_tags:
                with pytest.raises(ValidationError):
                    stage.stage_add_bulk(blocks, keys)
            else:
                stage.stage_add_bulk(blocks, keys)
                for tags, key in pairs:
                    ref.add(tags, key)
        else:
            db = stage.apply(db)
            rows = ref.apply(rows)
            check()
            assert not stage.dirty
