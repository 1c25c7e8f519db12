"""Unit tests for packed signature arrays."""

import numpy as np
import pytest

from repro.bloom.array import SignatureArray, unique_rows
from repro.bloom.filter import BloomSignature
from repro.bloom.hashing import TagHasher
from repro.errors import ValidationError


@pytest.fixture
def hasher():
    return TagHasher()


def sig_array(bit_lists, width=192):
    sigs = [BloomSignature.from_bits(bits, width=width) for bits in bit_lists]
    return SignatureArray.from_signatures(sigs)


class TestConstruction:
    def test_from_tag_sets(self, hasher):
        arr = SignatureArray.from_tag_sets([["a"], ["b", "c"]], hasher)
        assert len(arr) == 2
        assert arr.width == 192
        assert arr.num_blocks == 3

    def test_from_signatures_roundtrip(self, hasher):
        sigs = [BloomSignature.from_tags([t], hasher) for t in "abc"]
        arr = SignatureArray.from_signatures(sigs)
        assert arr.signatures() == sigs

    def test_from_signatures_rejects_empty(self):
        with pytest.raises(ValidationError):
            SignatureArray.from_signatures([])

    def test_from_signatures_rejects_mixed_width(self):
        with pytest.raises(ValidationError):
            SignatureArray.from_signatures(
                [BloomSignature.zero(192), BloomSignature.zero(128)]
            )

    def test_zeros(self):
        arr = SignatureArray.zeros(5, 192)
        assert len(arr) == 5
        assert not arr.blocks.any()

    def test_rejects_1d_blocks(self):
        with pytest.raises(ValidationError):
            SignatureArray(np.zeros(3, dtype=np.uint64))

    def test_nbytes(self):
        arr = SignatureArray.zeros(10, 192)
        assert arr.nbytes == 10 * 3 * 8


class TestSubsetOf:
    def test_matches_scalar_issubset(self, hasher):
        arr = SignatureArray.from_tag_sets(
            [["a"], ["a", "b"], ["c"], ["a", "b", "c"]], hasher
        )
        query = hasher.encode_set(["a", "b"])
        q = np.array(query, dtype=np.uint64)
        expected = [
            sig.issubset(BloomSignature(query, width=192))
            for sig in arr.signatures()
        ]
        assert arr.subset_of(q).tolist() == expected

    def test_zero_rows_match_any_query(self):
        arr = SignatureArray.zeros(3, 192)
        q = np.zeros(3, dtype=np.uint64)
        assert arr.subset_of(q).all()

    def test_block_count_mismatch(self):
        arr = SignatureArray.zeros(1, 192)
        with pytest.raises(ValidationError):
            arr.subset_of(np.zeros(2, dtype=np.uint64))

    def test_subset_of_each_matrix(self, hasher):
        rows = SignatureArray.from_tag_sets([["a"], ["b"]], hasher)
        queries = SignatureArray.from_tag_sets([["a", "x"], ["b", "y"]], hasher)
        matrix = rows.subset_of_each(queries)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] and matrix[1, 1]

    def test_subset_of_each_agrees_with_subset_of(self, hasher):
        rows = SignatureArray.from_tag_sets([["a"], ["a", "b"], ["c"]], hasher)
        queries = SignatureArray.from_tag_sets([["a", "b"], ["c", "d"]], hasher)
        matrix = rows.subset_of_each(queries)
        for j in range(2):
            np.testing.assert_array_equal(
                matrix[:, j], rows.subset_of(queries.blocks[j])
            )


class TestContains:
    def test_mask_containment(self):
        arr = sig_array([[1, 2, 3], [1, 2], [4]])
        mask = BloomSignature.from_bits([1, 2], width=192)
        got = arr.contains(np.array(mask.blocks, dtype=np.uint64))
        assert got.tolist() == [True, True, False]

    def test_zero_mask_contained_everywhere(self):
        arr = sig_array([[5], [99]])
        assert arr.contains(np.zeros(3, dtype=np.uint64)).all()


class TestOrderings:
    def test_lex_sort_matches_scalar_sort(self, hasher):
        arr = SignatureArray.from_tag_sets(
            [[t] for t in ["m", "a", "z", "k", "b"]], hasher
        )
        order = arr.lex_sort_order()
        sorted_sigs = [arr.row(i) for i in order]
        assert sorted_sigs == sorted(arr.signatures())

    def test_lex_sort_primary_key_is_block0(self):
        arr = sig_array([[70], [0]])  # bit 70 lives in block 1; bit 0 in block 0
        order = arr.lex_sort_order()
        # [70] has block0 == 0 so sorts before [0] whose block0 is huge.
        assert order.tolist() == [0, 1]


class TestBitStatistics:
    def test_leftmost_one_positions(self):
        arr = sig_array([[5, 100], [64], [191], []])
        np.testing.assert_array_equal(
            arr.leftmost_one_positions(), [5, 64, 191, 192]
        )

    def test_leftmost_matches_scalar(self, hasher):
        arr = SignatureArray.from_tag_sets([[t] for t in "abcdefg"], hasher)
        expected = [sig.leftmost_one() for sig in arr.signatures()]
        assert arr.leftmost_one_positions().tolist() == expected

    def test_popcounts(self):
        arr = sig_array([[1, 2, 3], [], [0, 191]])
        assert arr.popcounts().tolist() == [3, 0, 2]

    def test_bit_frequencies(self):
        arr = sig_array([[0, 5], [5], [5, 191]])
        freq = arr.bit_frequencies()
        assert freq[0] == 1
        assert freq[5] == 3
        assert freq[191] == 1
        assert freq.sum() == 5

    def test_bit_frequencies_empty_array(self):
        arr = SignatureArray.zeros(3, 192)[np.zeros(0, dtype=np.int64)]
        assert arr.bit_frequencies().sum() == 0


class TestUniqueAndTake:
    def test_unique_merges_duplicates(self):
        arr = sig_array([[1], [2], [1], [1]])
        uniq, inverse = arr.unique()
        assert len(uniq) == 2
        restored = uniq.blocks[inverse]
        np.testing.assert_array_equal(restored, arr.blocks)

    @pytest.mark.parametrize(
        "name",
        ["empty", "one_row", "all_duplicates", "high_bits", "workload"],
    )
    def test_unique_rows_equals_numpy_unique(self, name):
        if name == "workload":
            from repro.workloads.workload import generate_twitter_workload

            blocks = generate_twitter_workload(2000, seed=3).blocks
        else:
            blocks = {
                "empty": np.zeros((0, 3), dtype=np.uint64),
                "one_row": np.array([[5, 0, 9]], dtype=np.uint64),
                "all_duplicates": np.tile(np.array([[1, 2, 3]], np.uint64), (7, 1)),
                # values above 2**63 must sort as unsigned, like np.unique
                "high_bits": np.array(
                    [[2**63, 1], [1, 2**64 - 1], [2**63, 0], [1, 2**64 - 1]],
                    dtype=np.uint64,
                ),
            }[name]
        want_rows, want_inverse = np.unique(blocks, axis=0, return_inverse=True)
        rows, inverse = unique_rows(blocks)
        assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
        assert np.array_equal(rows, want_rows)
        want_inverse = want_inverse.reshape(-1)
        assert inverse.dtype == want_inverse.dtype
        assert np.array_equal(inverse, want_inverse)

    def test_unique_rows_rejects_1d(self):
        with pytest.raises(ValidationError):
            unique_rows(np.zeros(3, dtype=np.uint64))

    def test_take(self):
        arr = sig_array([[1], [2], [3]])
        sub = arr.take(np.array([2, 0]))
        assert sub.row(0) == arr.row(2)
        assert sub.row(1) == arr.row(0)

    def test_getitem_single_row_stays_2d(self):
        arr = sig_array([[1], [2]])
        assert len(arr[0]) == 1

    def test_getitem_boolean_mask(self):
        arr = sig_array([[1], [2], [3]])
        sub = arr[np.array([True, False, True])]
        assert len(sub) == 2

    def test_equality(self):
        a = sig_array([[1], [2]])
        b = sig_array([[1], [2]])
        c = sig_array([[1], [3]])
        assert a == b
        assert a != c
