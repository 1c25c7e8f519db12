"""Tests for Algorithm 1 (balanced recursive partitioning)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.array import SignatureArray, unique_rows
from repro.bloom.filter import BloomSignature
from repro.core.partitioning import balanced_partition
from repro.errors import ValidationError

WIDTH = 192


def blocks_from_bits(bit_lists):
    return SignatureArray.from_signatures(
        [BloomSignature.from_bits(b, width=WIDTH) for b in bit_lists]
    ).blocks


def random_blocks(n, seed=0, universe=60, set_size=(1, 8)):
    rng = np.random.default_rng(seed)
    return blocks_from_bits(
        [
            sorted(rng.choice(universe, size=rng.integers(*set_size), replace=False))
            for _ in range(n)
        ]
    )


def check_invariants(blocks, result):
    """Partitions cover the database exactly and respect their masks."""
    all_indices = np.concatenate([p.indices for p in result.partitions])
    assert sorted(all_indices.tolist()) == list(range(blocks.shape[0]))
    for p in result.partitions:
        rows = blocks[p.indices]
        # every row contains the partition mask
        assert not np.any(p.mask & ~rows), "row does not contain its partition mask"


class TestBasicProperties:
    def test_partitions_cover_database(self):
        blocks = random_blocks(500, seed=1)
        result = balanced_partition(blocks, max_partition_size=50, width=WIDTH)
        check_invariants(blocks, result)

    def test_max_size_respected_for_splittable_data(self):
        blocks = random_blocks(500, seed=2)
        result = balanced_partition(blocks, max_partition_size=50, width=WIDTH)
        # random distinct rows are always splittable down to MAX_P
        assert result.max_size <= 50

    def test_masks_are_nonempty_for_normal_data(self):
        blocks = random_blocks(300, seed=3)
        result = balanced_partition(blocks, max_partition_size=30, width=WIDTH)
        non_empty = sum(0 if p.mask_is_empty else 1 for p in result.partitions)
        # At most one leftover partition with an empty mask (the
        # all-pivots-zero chain), typically none with random data.
        assert non_empty >= len(result.partitions) - 1

    def test_single_partition_when_db_small_but_split_required(self):
        """Even a tiny database is split once so masks are non-empty."""
        blocks = blocks_from_bits([[1], [2], [3]])
        result = balanced_partition(blocks, max_partition_size=100, width=WIDTH)
        assert result.num_partitions >= 2
        check_invariants(blocks, result)

    def test_empty_database(self):
        blocks = np.empty((0, 3), dtype=np.uint64)
        result = balanced_partition(blocks, max_partition_size=10, width=WIDTH)
        assert result.num_partitions == 0
        assert result.num_sets == 0

    def test_rejects_bad_max_size(self):
        with pytest.raises(ValidationError):
            balanced_partition(np.zeros((1, 3), np.uint64), 0, WIDTH)

    def test_rejects_1d_blocks(self):
        with pytest.raises(ValidationError):
            balanced_partition(np.zeros(3, np.uint64), 10, WIDTH)


class TestDegenerateData:
    def test_identical_signatures_cannot_split(self):
        """A pile of identical rows is indivisible: accepted oversized."""
        blocks = blocks_from_bits([[1, 2, 3]] * 40)
        result = balanced_partition(blocks, max_partition_size=10, width=WIDTH)
        check_invariants(blocks, result)
        assert result.num_partitions == 1
        assert result.max_size == 40

    def test_two_clusters_of_identical_rows(self):
        blocks = blocks_from_bits([[1]] * 30 + [[2]] * 30)
        result = balanced_partition(blocks, max_partition_size=10, width=WIDTH)
        check_invariants(blocks, result)
        # one split on bit 1 or 2, then both sides indivisible
        assert result.num_partitions == 2
        assert result.max_size == 30

    def test_single_row(self):
        blocks = blocks_from_bits([[5, 9]])
        result = balanced_partition(blocks, max_partition_size=10, width=WIDTH)
        check_invariants(blocks, result)
        assert result.num_partitions == 1


class TestBalance:
    def test_pivot_prefers_50_percent_bit(self):
        """Bit 7 appears in exactly half the rows; bit 3 in all of them:
        the first split must use bit 7 (freq closest to 50 %; bit 3 is
        degenerate)."""
        rows = [[3, 7, i + 20] for i in range(10)] + [[3, i + 40] for i in range(10)]
        blocks = blocks_from_bits(rows)
        result = balanced_partition(blocks, max_partition_size=10, width=WIDTH)
        check_invariants(blocks, result)
        bit7 = BloomSignature.from_bits([7], width=WIDTH)
        masks_with_bit7 = [
            p
            for p in result.partitions
            if not np.any(np.array(bit7.blocks, dtype=np.uint64) & ~p.mask)
        ]
        assert masks_with_bit7, "expected some partition mask to contain bit 7"

    def test_partition_sizes_reasonably_balanced(self):
        blocks = random_blocks(2000, seed=4, universe=100)
        result = balanced_partition(blocks, max_partition_size=200, width=WIDTH)
        sizes = np.array([len(p) for p in result.partitions])
        # The recursive split leaves a tail of small partitions, but the
        # typical *set* should live in a reasonably large partition: the
        # set-weighted mean partition size stays a sizable fraction of
        # MAX_P (a wildly unbalanced pivot choice would collapse it).
        weighted_mean = (sizes.astype(float) ** 2).sum() / sizes.sum()
        assert weighted_mean > 200 * 0.15

    def test_linear_time_shape(self):
        """Figure 8: partitioning time grows roughly linearly in n."""
        t_small = balanced_partition(
            random_blocks(1000, seed=5), 100, WIDTH
        ).elapsed_s
        t_large = balanced_partition(
            random_blocks(8000, seed=5), 100, WIDTH
        ).elapsed_s
        # allow generous slack; superlinear would be > 8x
        assert t_large < 40 * max(t_small, 1e-4)


class TestStats:
    def test_mean_size(self):
        blocks = random_blocks(100, seed=6)
        result = balanced_partition(blocks, 20, WIDTH)
        assert result.mean_size == pytest.approx(100 / result.num_partitions)

    def test_elapsed_recorded(self):
        result = balanced_partition(random_blocks(50, seed=7), 10, WIDTH)
        assert result.elapsed_s >= 0


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(0, 47), min_size=1, max_size=8),
        min_size=1,
        max_size=80,
    ),
    max_p=st.integers(1, 30),
)
def test_partitioning_invariants_property(data, max_p):
    blocks = blocks_from_bits(data)
    result = balanced_partition(blocks, max_partition_size=max_p, width=WIDTH)
    check_invariants(blocks, result)


# ----------------------------------------------------------------------
# Bit-count reuse against a reference copy of the recount-everything loop
# ----------------------------------------------------------------------
def reference_partition(blocks, max_partition_size, width, pivot_strategy="balanced"):
    """Algorithm 1 recounting every node's bits from its rows.

    Returns ``(mask, indices)`` pairs in the order the queue emits them.
    """
    arr = SignatureArray(blocks, width=width)
    out = []
    queue = deque(
        [(np.zeros(blocks.shape[1], np.uint64), np.arange(len(blocks)), np.zeros(width, bool))]
    )
    while queue:
        mask, indices, used = queue.popleft()
        size = indices.size
        if size == 0:
            continue
        if size <= max_partition_size and mask.any():
            out.append((mask, indices))
            continue
        sub = arr.take(indices)
        freq = sub.bit_frequencies()
        splittable = (freq > 0) & (freq < size) & ~used
        if not splittable.any():
            out.append((mask, indices))
            continue
        if pivot_strategy == "first_unused":
            pivot = int(np.argmax(splittable))
        else:
            distance = np.abs(freq - size / 2.0).astype(float)
            distance[~splittable] = np.inf
            pivot = int(np.argmin(distance))
        word, offset = divmod(pivot, 64)
        bit = np.uint64(1) << np.uint64(63 - offset)
        has_bit = (sub.blocks[:, word] & bit) != 0
        used_next = used.copy()
        used_next[pivot] = True
        mask_one = mask.copy()
        mask_one[word] |= bit
        queue.append((mask, indices[~has_bit], used_next))
        queue.append((mask_one, indices[has_bit], used_next))
    return out


@pytest.mark.parametrize(
    "users, max_p, strategy",
    [
        (3000, 500, "balanced"),
        (3000, 40, "balanced"),
        (3000, 1, "balanced"),
        (3000, 200, "first_unused"),
    ],
)
def test_frequency_reuse_matches_reference_on_twitter_workload(users, max_p, strategy):
    from repro.workloads.workload import generate_twitter_workload

    blocks, _ = unique_rows(generate_twitter_workload(users, seed=11).blocks)
    got = balanced_partition(blocks, max_p, WIDTH, pivot_strategy=strategy).partitions
    want = reference_partition(blocks, max_p, WIDTH, pivot_strategy=strategy)
    assert len(got) == len(want)
    for part, (mask, indices) in zip(got, want):
        assert np.array_equal(part.mask, mask)
        assert np.array_equal(part.indices, indices)
