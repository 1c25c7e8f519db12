"""Kernel hot-path sweep: fused launches and the coarse pre-filter.

Runs two adversarial workloads against every hot-path knob combination
and writes machine-readable ``BENCH_kernel.json`` at the repo root, plus
the usual text table under ``benchmarks/results/kernel_hotpath.txt``:

* ``small_partition`` — thousands of tiny sets producing many partitions
  far below one thread block.  This is the launch-overhead regime of the
  paper's Figure 7 discussion: per-launch fixed cost dominates, so the
  fused multi-partition launches (``fuse_partitions_below``) should cut
  the kernel-stage CPU time by well over the 1.5x acceptance bar.
* ``duplicate_heavy`` — a query stream drawn from a small pool of
  distinct signatures (the paper's §4.2.1 duplicate-interest
  observation) against large partitions and full 256-query batches,
  where per-query kernel work dominates.  Duplicate queries are
  memoized only in the serving layer (``QueryMemo``), which this
  engine-level sweep does not exercise.

Each workload is swept with every optimisation off (the baseline), each
optimisation alone, and all of them together; results are always
bitwise-identical (see tests/core/test_hotpath_equivalence.py), so only
the timing columns vary.

Run standalone (pytest never collects it — no test functions)::

    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py --smoke  # ~30 s budget
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.config import TagMatchConfig  # noqa: E402
from repro.core.engine import TagMatch  # noqa: E402
from repro.harness.reporting import ExperimentResult, save_result  # noqa: E402

RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
DEFAULT_JSON = os.path.join(REPO_ROOT, "BENCH_kernel.json")

#: Knob combinations: all off (the baseline), one at a time, all on.
VARIANTS = {
    "all_off": dict(fuse_partitions_below=0, coarse_prefilter=False),
    "fused": dict(fuse_partitions_below=64, coarse_prefilter=False),
    "coarse": dict(fuse_partitions_below=0, coarse_prefilter=True),
    "all_on": dict(fuse_partitions_below=64, coarse_prefilter=True),
}


def _populate(engine: TagMatch, *, num_sets: int, num_tags: int, size_hi: int) -> None:
    rng = np.random.default_rng(42)
    for key in range(num_sets):
        size = int(rng.integers(1, size_hi + 1))
        chosen = rng.choice(num_tags, size=size, replace=False)
        engine.add_set({f"tag-{c}" for c in chosen}, key=key)
    engine.consolidate()


def small_partition_engine(knobs: dict, *, num_sets: int) -> TagMatch:
    """Thousands of 1-3 tag sets over a wide universe: hundreds of
    partitions of <= 4 rows, the launch-overhead-dominated regime."""
    engine = TagMatch(
        TagMatchConfig(
            max_partition_size=4,
            batch_size=64,
            batch_timeout_s=0.01,
            num_threads=4,
            **knobs,
        )
    )
    _populate(engine, num_sets=num_sets, num_tags=400, size_hi=3)
    return engine


def small_partition_queries(engine: TagMatch, num_queries: int) -> np.ndarray:
    """Distinct wide queries — every signature unique."""
    rng = np.random.default_rng(7)
    tag_sets = [
        {f"tag-{c}" for c in rng.choice(400, size=12, replace=False)}
        for _ in range(num_queries)
    ]
    return engine.encode_queries(tag_sets)


def duplicate_heavy_engine(knobs: dict, *, num_sets: int) -> TagMatch:
    """Large partitions and full 256-query batches: per-query kernel work
    dominates."""
    engine = TagMatch(
        TagMatchConfig(
            max_partition_size=256,
            batch_size=256,
            batch_timeout_s=0.01,
            num_threads=4,
            **knobs,
        )
    )
    _populate(engine, num_sets=num_sets, num_tags=96, size_hi=6)
    return engine


def duplicate_heavy_queries(engine: TagMatch, num_queries: int) -> np.ndarray:
    """A stream drawn from 8 distinct signatures: ~32x batch duplication
    at full 256-query batch occupancy."""
    rng = np.random.default_rng(11)
    pool = [
        {f"tag-{c}" for c in rng.choice(96, size=12, replace=False)}
        for _ in range(8)
    ]
    choices = rng.integers(0, len(pool), size=num_queries)
    return engine.encode_queries([pool[i] for i in choices])


def measure(engine: TagMatch, queries: np.ndarray, repeats: int) -> dict:
    engine.match_stream(queries[: max(8, len(queries) // 8)])  # warm-up
    best = None
    for _ in range(repeats):
        launches_before = sum(d.clock.launches for d in engine.devices)
        run = engine.match_stream(queries)
        record = {
            "qps": run.throughput_qps,
            "kernel_wall_s": run.stats.kernel_wall_s,
            "kernel_cpu_s": run.stats.kernel_cpu_s,
            "launches": sum(d.clock.launches for d in engine.devices)
            - launches_before,
        }
        if best is None or record["kernel_cpu_s"] < best["kernel_cpu_s"]:
            best = record
    return best


def sweep(smoke: bool, json_path: str) -> ExperimentResult:
    num_sets = 400 if smoke else 2400
    num_queries = 128 if smoke else 768
    repeats = 1 if smoke else 3

    workloads = {
        "small_partition": (small_partition_engine, small_partition_queries),
        "duplicate_heavy": (duplicate_heavy_engine, duplicate_heavy_queries),
    }

    records = []
    rows = []
    for workload, (make_engine, make_queries) in workloads.items():
        baseline_cpu = None
        for variant, knobs in VARIANTS.items():
            engine = make_engine(knobs, num_sets=num_sets)
            try:
                queries = make_queries(engine, num_queries)
                num_units = engine.tagset_table.num_units
                start = time.perf_counter()
                record = measure(engine, queries, repeats)
                elapsed = time.perf_counter() - start
            finally:
                engine.close()
            record.update(workload=workload, variant=variant, **knobs)
            record["num_units"] = num_units
            if variant == "all_off":
                baseline_cpu = record["kernel_cpu_s"]
            record["kernel_speedup_vs_off"] = (
                baseline_cpu / record["kernel_cpu_s"]
                if record["kernel_cpu_s"] > 0
                else float("inf")
            )
            records.append(record)
            rows.append(
                [
                    workload,
                    variant,
                    num_units,
                    record["launches"],
                    round(record["kernel_cpu_s"], 4),
                    round(record["kernel_wall_s"], 4),
                    round(record["kernel_speedup_vs_off"], 2),
                    round(record["qps"], 1),
                ]
            )
            print(
                f"{workload:>16}/{variant:<8} units={num_units:5d} "
                f"launches={record['launches']:6d} "
                f"kernel cpu={record['kernel_cpu_s']:.4f}s "
                f"wall={record['kernel_wall_s']:.4f}s "
                f"({record['kernel_speedup_vs_off']:.2f}x, {elapsed:.1f}s measured)",
                flush=True,
            )

    with open(json_path, "w") as handle:
        json.dump(records, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path} ({len(records)} records)")

    def speedup(workload: str, variant: str) -> float:
        return next(
            r["kernel_speedup_vs_off"]
            for r in records
            if r["workload"] == workload and r["variant"] == variant
        )

    return ExperimentResult(
        name="kernel_hotpath",
        title="Kernel hot-path ablation (fused launches / coarse filter)",
        headers=[
            "workload",
            "variant",
            "units",
            "launches",
            "kernel cpu s",
            "kernel wall s",
            "speedup",
            "qps",
        ],
        rows=rows,
        notes=(
            "speedup = kernel-stage CPU time (thread CPU time of each launch,\n"
            "summed) vs the all-off baseline of the same workload.  Acceptance\n"
            "bar: fused >= 1.5x on small_partition "
            f"(got {speedup('small_partition', 'fused'):.2f}x).\n"
            "Fused launches amortise per-launch overhead across partitions "
            "(paper Fig. 7 small-partition regime).\n"
            "The kernel wall column sums wall time inside launches across\n"
            "concurrently scheduled stream threads, GIL waits included, so\n"
            "it is not a measure of kernel work."
        ),
        data={"records": records},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, single repeat (~30 s total, used by CI)",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="output path for the machine-readable records",
    )
    args = parser.parse_args(argv)
    result = sweep(args.smoke, args.json)
    save_result(result, RESULTS_DIR)
    print("\n" + result.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
