"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.bootstrap()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402


def test_percentile_refuses_thin_tail():
    with pytest.raises(common.BenchError):
        common.percentile(np.arange(999.0), 99)
    with pytest.raises(common.BenchError):
        common.percentile(np.arange(199.0), 95)
    assert common.percentile(np.arange(1000.0), 99) == pytest.approx(989.01)
    assert common.percentile(np.arange(3.0), 50) == 1.0
    summary = common.latency_summary(np.arange(500) / 1e3)
    assert "p95_ms" in summary and "p99_ms" not in summary


def test_oracle_catches_a_corrupted_result():
    index = common.make_index(300, seed=5)
    queries = index.queries(64, seed=6)
    engine = common.build_engine(index)
    try:
        results = engine.match_stream(queries.blocks).results
    finally:
        engine.close()
    oracle = Oracle(index.blocks, index.keys)
    assert oracle.mismatches(queries.blocks, results) == []
    hit = next(i for i, keys in enumerate(results) if keys.size)
    dropped = list(results)
    dropped[hit] = results[hit][1:]
    assert oracle.mismatches(queries.blocks, dropped) == [hit]
    doubled = list(results)
    doubled[hit] = np.concatenate([results[hit], results[hit][:1]])
    assert oracle.mismatches(queries.blocks, doubled) == [hit]


def test_reservoir_keeps_a_fixed_uniform_sample():
    reservoir = workloads.Reservoir(1000, np.random.default_rng(1))
    reservoir.add(np.arange(10.0))
    assert list(reservoir.sample()) == list(range(10))
    for start in range(10, 100_000, 256):
        reservoir.add(np.arange(start, min(start + 256, 100_000), dtype=float))
    sample = reservoir.sample()
    assert reservoir.seen == 100_000 and len(sample) == 1000
    assert len(set(sample)) == 1000
    assert abs(np.median(sample) - 50_000) < 5_000


def test_churn_unsubs_target_earlier_subs_once():
    inputs = workloads.ServiceInputs(seed=7)
    ops = workloads.churn_ops(inputs, 5.0)
    targets = [op.target for op in ops if op.verb == "unsub"]
    assert targets and len(targets) == len(set(targets))
    for op in ops:
        if op.verb == "unsub":
            sub = ops[op.target]
            assert sub.verb == "sub" and sub.key == op.key and sub.tags == op.tags
            assert sub.offset_s <= op.offset_s - workloads.UNSUB_MIN_AGE_S


def test_self_time_subtracts_children():
    span = tracing.Span
    spans = [
        span(1, "pipeline.match_stream", 0.0, 10.0, None, 1, None, 1.0, {}),
        span(2, "kernels.run_kernel", 1.0, 4.0, 1, 2, None, 2.0, {}),
        span(3, "kernels.subset_match_kernel", 1.5, 3.5, 2, 2, None, 1.5, {}),
        span(4, "partition_table.relevant_matrix", 3.0, 6.0, 1, 3, None, 3.0, {}),
        span(5, "stream.queue_wait", 6.0, 9.0, 1, 2, None, None, {}),
    ]
    table = tracing.layer_table(spans)
    assert table["pipeline"]["self_s"] == pytest.approx(10.0 - 5.0)
    assert table["kernels"]["self_s"] == pytest.approx((3.0 - 2.0) + 2.0)
    assert table["kernels"]["self_cpu_s"] == pytest.approx((2.0 - 1.5) + 1.5)


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
