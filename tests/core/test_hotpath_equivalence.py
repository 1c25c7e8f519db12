"""Every public match path gives one answer.

``match``, ``match_unique``, ``match_batch`` and ``match_stream`` run the
same walk (relevance, dispatch unit, kernel, key lookup, merge), and
fused launches and the coarse pre-filter change only the execution plan.
The properties here check every entry point, with each knob on and off,
against a brute-force oracle: ``LinearScanMatcher`` and its key table.
Exact-check engines answer the tag-set definition through
``match``/``match_unique`` and refuse the signature-only paths.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.linear_scan import LinearScanMatcher
from repro.bloom.array import SignatureArray
from repro.bloom.filter import BloomSignature
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.errors import ValidationError

WIDTH = 192

#: Fused launches and the coarse pre-filter, each on and off.
KNOBS = [
    dict(fuse_partitions_below=fuse, coarse_prefilter=coarse)
    for fuse in (0, 64)
    for coarse in (False, True)
]

BASELINE = dict(fuse_partitions_below=0, coarse_prefilter=False)

tag_names = st.integers(0, 30).map(lambda i: f"t{i}")
databases = st.lists(
    st.tuples(st.frozensets(tag_names, min_size=1, max_size=4), st.integers(0, 9)),
    min_size=1,
    max_size=24,
)
query_lists = st.lists(st.frozensets(tag_names, min_size=1, max_size=8), min_size=1, max_size=6)


def encode(rows):
    return SignatureArray.from_signatures(
        [BloomSignature.from_bits(r, width=WIDTH) for r in rows]
    ).blocks


def small_config(**knobs) -> TagMatchConfig:
    return TagMatchConfig(
        max_partition_size=4,
        batch_size=8,
        batch_timeout_s=None,
        num_threads=2,
        thread_block_size=3,
        **knobs,
    )


def build_engine(blocks, keys, knobs) -> TagMatch:
    engine = TagMatch(small_config(width=WIDTH, **{**BASELINE, **knobs}))
    engine.add_signatures(blocks, keys)
    engine.consolidate()
    return engine


def tag_engine(database, **knobs) -> TagMatch:
    """A 64-bit / 2-hash engine: narrow enough that Bloom false
    positives and shared signatures are common."""
    engine = TagMatch(small_config(width=64, num_hashes=2, **knobs))
    for tags, key in database:
        engine.add_set(tags, key)
    engine.consolidate()
    return engine


def canonical(results):
    return [sorted(r.tolist()) for r in results]


@settings(max_examples=20, deadline=None)
@given(database=databases, queries=query_lists, data=st.data())
def test_every_entry_point_equals_oracle(database, queries, data):
    # Repeat some queries so batches hold duplicates too.
    dup_idx = data.draw(st.lists(st.integers(0, len(queries) - 1), max_size=6))
    queries = queries + [queries[i] for i in dup_idx]
    keys = np.array([key for _, key in database], dtype=np.int64)
    for knobs in KNOBS:
        engine = tag_engine(database, **knobs)
        try:
            oracle = LinearScanMatcher()
            oracle.build(engine.encode_queries([tags for tags, _ in database]), keys)
            blocks = engine.encode_queries(queries)
            for unique in (False, True):
                expected = canonical(oracle.match_blocks(q, unique=unique) for q in blocks)
                single = engine.match_unique if unique else engine.match
                paths = {
                    "match": [single(q) for q in queries],
                    "match_batch": engine.match_batch(blocks, unique=unique),
                    "match_stream": engine.match_stream(blocks, unique=unique).results,
                }
                for name, results in paths.items():
                    assert canonical(results) == expected, (name, unique, knobs)
        finally:
            engine.close()

        # Exact check: the tag-set definition, or a refusal.
        engine = tag_engine(database, exact_check=True, **knobs)
        try:
            for query in queries:
                expected = sorted(key for tags, key in database if tags <= query)
                assert sorted(engine.match(query).tolist()) == expected, knobs
                assert engine.match_unique(query).tolist() == sorted(set(expected))
            with pytest.raises(ValidationError):
                engine.match_batch(blocks)
            with pytest.raises(ValidationError):
                engine.match_stream(blocks)
        finally:
            engine.close()


def test_match_batch_charges_device_clock():
    """``match_batch`` launches once per dispatch unit per
    ``batch_size`` queries routed to it, like ``match_stream`` without a
    flush timeout, and charges those launches to the device clock."""
    rng = np.random.default_rng(5)
    rows = [sorted(rng.choice(30, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(80)]
    blocks = np.unique(encode(rows), axis=0)
    keys = np.arange(len(blocks), dtype=np.int64)
    queries = encode(
        [sorted(rng.choice(30, size=8, replace=False).tolist()) for _ in range(40)]
    )
    engine = build_engine(blocks, keys, dict(fuse_partitions_below=64))
    try:
        assert engine.tagset_table.num_units < engine.num_partitions
        routed = Counter()
        for q in queries:
            relevant = engine.partition_table.relevant_partitions(q)
            routed.update(np.unique(engine.tagset_table.unit_of_partition[relevant]).tolist())
        batch_size = engine.config.batch_size
        expected = sum(math.ceil(n / batch_size) for n in routed.values())
        assert max(routed.values()) > batch_size

        def launches():
            return sum(d.clock.launches for d in engine.devices)

        def kernel_s():
            return sum(d.clock.kernel_s for d in engine.devices)

        before, before_s = launches(), kernel_s()
        batch = engine.match_batch(queries)
        batch_launches = launches() - before
        assert kernel_s() > before_s
        before = launches()
        stream = engine.match_stream(queries, batch_timeout_s=None)
        assert launches() - before == batch_launches == expected
        assert canonical(batch) == canonical(stream.results)
    finally:
        engine.close()


def test_fused_table_reduces_launches():
    """With many small partitions one fused launch covers several of
    them: the device clock counts strictly fewer kernel launches, and
    results stay identical."""
    rng = np.random.default_rng(7)
    rows = [sorted(rng.choice(30, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(80)]
    blocks = np.unique(encode(rows), axis=0)
    keys = np.arange(len(blocks), dtype=np.int64)
    queries = encode(
        [sorted(rng.choice(30, size=6, replace=False).tolist()) for _ in range(20)]
    )

    plain = build_engine(blocks, keys, {})
    fused = build_engine(blocks, keys, dict(fuse_partitions_below=64))
    try:
        assert fused.tagset_table.num_units < plain.tagset_table.num_units
        expected = canonical(plain.match_stream(queries).results)
        got = canonical(fused.match_stream(queries).results)
        assert got == expected
        plain_launches = sum(d.clock.launches for d in plain.devices)
        fused_launches = sum(d.clock.launches for d in fused.devices)
        assert 0 < fused_launches < plain_launches
    finally:
        plain.close()
        fused.close()


def test_snapshot_round_trip_preserves_hotpath_knobs(tmp_path):
    blocks = encode([[1, 2], [2, 3], [4]])
    keys = np.arange(3, dtype=np.int64)
    engine = build_engine(
        blocks, keys,
        dict(fuse_partitions_below=8, coarse_prefilter=True, query_memo_size=16),
    )
    path = str(tmp_path / "snap.npz")
    try:
        engine.save(path)
    finally:
        engine.close()
    restored = TagMatch.load(path)
    try:
        assert restored.config.fuse_partitions_below == 8
        assert restored.config.coarse_prefilter is True
        assert restored.config.query_memo_size == 16
        got = canonical(restored.match_batch(encode([[1, 2, 3, 4]])))
        assert got == [[0, 1, 2]]
    finally:
        restored.close()


@pytest.mark.parametrize("knobs", [dict(fuse_partitions_below=-1),
                                   dict(query_memo_size=-5)])
def test_negative_knobs_rejected(knobs):
    from repro.errors import ValidationError

    with pytest.raises(ValidationError):
        TagMatchConfig(**knobs)
