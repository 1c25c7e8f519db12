"""Hypothesis property tests across module boundaries."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bloom.array import SignatureArray
from repro.bloom.filter import BloomSignature
from repro.bloom.ops import containment_matrix
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.core.partition_table import PartitionTable
from repro.core.partitioning import balanced_partition

WIDTH = 192

bit_lists = st.lists(st.integers(0, 40), min_size=0, max_size=6)
tag_names = st.integers(0, 25).map(lambda i: f"t{i}")
ALPHABET = [f"t{i}" for i in range(26)]
tag_sets = st.sets(tag_names, min_size=1, max_size=5)


def blocks_of(rows):
    return SignatureArray.from_signatures(
        [BloomSignature.from_bits(r, width=WIDTH) for r in rows]
    ).blocks


@given(
    subs=st.lists(bit_lists, min_size=1, max_size=12),
    supers=st.lists(bit_lists, min_size=1, max_size=12),
)
def test_containment_matrix_agrees_with_scalar(subs, supers):
    a = blocks_of(subs)
    b = blocks_of(supers)
    matrix = containment_matrix(a, b)
    for i, srow in enumerate(subs):
        si = BloomSignature.from_bits(srow, width=WIDTH)
        for j, prow in enumerate(supers):
            pj = BloomSignature.from_bits(prow, width=WIDTH)
            assert matrix[i, j] == si.issubset(pj)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(bit_lists, min_size=1, max_size=60),
    queries=st.lists(bit_lists, min_size=1, max_size=8),
    max_p=st.integers(2, 20),
)
def test_relevant_matrix_equals_per_query_algorithm2(rows, queries, max_p):
    """The vectorized batch pre-process is exactly Algorithm 2 per row."""
    blocks = np.unique(blocks_of(rows), axis=0)
    result = balanced_partition(blocks, max_p, WIDTH)
    table = PartitionTable(result.partitions, WIDTH)
    qblocks = blocks_of(queries)
    matrix = table.relevant_matrix(qblocks)
    for qi in range(len(queries)):
        per_query = sorted(table.relevant_partitions(qblocks[qi]).tolist())
        assert sorted(np.nonzero(matrix[qi])[0].tolist()) == per_query


def signature_twin(hasher, tags):
    """``tags`` plus every alphabet tag whose bits its signature already
    holds: a tag set with the same signature (equal to ``tags`` when no
    such tag exists)."""
    signature = np.array(hasher.encode_set(tags), dtype=np.uint64)
    covered = {
        t
        for t in ALPHABET
        if not np.any(np.array(hasher.encode_set([t]), dtype=np.uint64) & ~signature)
    }
    return frozenset(tags) | covered


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    database=st.lists(
        st.tuples(tag_sets, st.integers(0, 50)), min_size=1, max_size=40
    ),
    queries=st.lists(st.sets(tag_names, min_size=1, max_size=10), min_size=1, max_size=5),
)
def test_engine_agrees_with_brute_force(database, queries):
    """match/match-unique equal the set-theoretic definition (§2), with
    exact_check on so Bloom false positives cannot blur the property.

    Runs at the paper's 192-bit / 7-hash filter and at a 64-bit / 2-hash
    one.  Every indexed set is also indexed as its signature twin and
    queried as itself, so on the narrow filter tag sets share signatures
    while only some of them are subsets of the query."""
    for width, num_hashes in ((192, 7), (64, 2)):
        cfg = TagMatchConfig(
            width=width,
            num_hashes=num_hashes,
            max_partition_size=8,
            num_gpus=1,
            batch_timeout_s=None,
            exact_check=True,
        )
        with TagMatch(cfg) as engine:
            indexed = list(database)
            for tags, key in database:
                twin = signature_twin(engine.hasher, tags)
                if twin != tags:
                    indexed.append((twin, key))
            for tags, key in indexed:
                engine.add_set(tags, key)
            engine.consolidate()
            for query in queries + [set(tags) for tags, _ in indexed]:
                expected = sorted(k for tags, k in indexed if tags <= query)
                got = sorted(engine.match(query).tolist())
                assert got == expected, (width, num_hashes)
                assert engine.match_unique(query).tolist() == sorted(set(expected))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    database=st.lists(
        st.tuples(tag_sets, st.integers(0, 50)), min_size=2, max_size=30
    ),
    removals=st.data(),
)
def test_add_remove_consolidate_invariant(database, removals):
    """After removing a staged association, matching behaves as if the
    pair had never been added."""
    idx = removals.draw(st.integers(0, len(database) - 1))
    removed_tags, removed_key = database[idx]
    cfg = TagMatchConfig(
        max_partition_size=8, num_gpus=1, batch_timeout_s=None, exact_check=True
    )
    with TagMatch(cfg) as engine:
        for tags, key in database:
            engine.add_set(tags, key)
        engine.consolidate()
        engine.remove_set(removed_tags, removed_key)
        engine.consolidate()
        survivors = list(database)
        survivors.remove((removed_tags, removed_key))
        probe = set(removed_tags) | {"probe-tag"}
        expected = sorted(k for tags, k in survivors if tags <= probe)
        assert sorted(engine.match(probe).tolist()) == expected
