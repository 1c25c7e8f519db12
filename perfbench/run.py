"""The benchmark of the TagMatch reproduction: one command, three workloads.

    python3 perfbench/run.py --workload {firehose,pubsub,churn} \\
        --seed N --seconds S --trace {0,1}

Runs the named workload on inputs generated from the seed, checks the
results against a brute-force oracle, prints a report and, as the last
line of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and the tracing overhead.  A record of the run (host, seed,
configs, sample counts, wall and CPU time) is written under
``perfbench/out/``.  Exits 1 when the oracle check fails and 2 when the
benchmark cannot run.  See NOTE.md.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("firehose", "pubsub", "churn")

#: End-to-end metrics every workload reports from its untraced run: the
#: list BENCHMARK.json gates on.  A gated metric must exist, non-zero,
#: on every workload and hold still between runs of the same code.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics printed and recorded but not gated: throughput,
#: CPU cost and latencies (they move with the host's speed, which on a
#: shared VM changes in phases longer than a run, see NOTE.md) and the
#: metrics only some workloads have.
REPORTED = {
    "match_qps": "queries/s",
    "cpu_ms_per_query": "ms",
    "pub_p50_ms": "ms",
    "pub_p90_ms": "ms",
    "pub_p95_ms": "ms",
    "pub_p99_ms": "ms",
    "pub_burst_qps": "publishes/s",
    "pub_max_ok_qps": "publishes/s",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "write_p99_ms": "ms",
    "failed_share": "fraction",
}
#: Per-layer metrics of the traced run.
PER_LAYER = {
    "bloom.encode_us": "us",
    "engine.consolidate_s": "s",
    "partitioning.partitions": "count",
    "engine.index_bytes": "bytes",
    "partition_table.relevant_us": "us",
    "partition_table.units_per_query": "count",
    "partition_table.useful_ratio": "ratio",
    "kernels.launches": "count",
    "kernels.queries_per_launch": "count",
    "kernels.pairs": "count",
    "kernels.prefilter_ratio": "ratio",
    "kernels.busy_s": "s",
    "kernels.cpu_s": "s",
    "kernels.sim_device_s": "s",
    "device.htod_bytes": "bytes",
    "device.dtoh_bytes": "bytes",
    "stream.queue_wait_s": "s",
    "pipeline.fixed_ms": "ms",
    "pipeline.lookup_us_per_pair": "us",
    "pipeline.flush_full": "count",
    "pipeline.flush_timeout": "count",
    "pipeline.flush_shutdown": "count",
    "pipeline.tax_s": "s",
    "protocol.bytes_in_per_pub": "bytes",
    "protocol.bytes_out_per_pub": "bytes",
    "protocol.write_us": "us",
    "batcher.batch_mean": "count",
    "batcher.flush_full": "count",
    "batcher.flush_timeout": "count",
    "batcher.deadline_ms": "ms",
    "server.match_ms": "ms",
    "server.residual_ms": "ms",
    "delta.overlay_us": "us",
    "delta.size_max": "count",
    "delta.reconsolidations": "count",
    "delta.reconsolidate_s": "s",
    "memo.hit_ratio": "ratio",
    "gen.late_p95_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.duplicate_share": "fraction",
    "gen.sent": "count",
    "trace.overhead_pct": "%",
}
for _layer in ("bloom", "engine", "partition_table", "kernels", "device", "stream",
               "pipeline", "protocol", "delta"):
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.self_cpu_s"] = "s"


def absent_reason(outcome, name: str) -> str | None:
    for key, reason in outcome.absent.items():
        if key == name or (key.endswith("*") and name.startswith(key[:-1])):
            return reason
    return None


def run_workload(name: str, seed: int, seconds: float, spans: Path | None):
    """Run a workload; a traced run writes its spans to ``spans``."""
    import workloads

    if name == "firehose":
        return workloads.firehose(seed, seconds, spans)
    return asyncio.run(getattr(workloads, name)(seed, seconds, spans))


def record(args, outcome) -> dict:
    return {
        "schema": "perfbench-record/1",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": common.host_fingerprint(),
        "engine_config": dataclasses.asdict(common.engine_config()),
        "service_config": (
            None if args.workload == "firehose"
            else dataclasses.asdict(common.service_config())
        ),
        "config_overrides": {
            "engine": common.engine_overrides(),
            "service": None if args.workload == "firehose" else common.SERVICE_OVERRIDES,
        },
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatches": outcome.mismatches,
        "metrics": {
            name: {
                "value": value,
                "unit": unit or PER_LAYER.get(name),
                "samples": outcome.samples.get(name),
            }
            for name, (value, unit) in outcome.metrics.items()
        },
        "absent": outcome.absent,
        "layers": outcome.layers,
        "extra": outcome.extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stem = common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = stem.with_name(stem.name + "-spans.jsonl") if args.trace else None
    try:
        common.bootstrap()
        outcome = run_workload(args.workload, args.seed, args.seconds, spans)
    except Exception:  # noqa: BLE001 - reported, no result printed
        traceback.print_exc()
        return 2

    failed = outcome.failed + outcome.mismatches
    attempted = max(1, outcome.attempted)
    outcome.metrics["failed_share"] = (failed / attempted, "fraction")
    catalog = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, _) in list(outcome.metrics.items()):
        if not math.isfinite(value):
            del outcome.metrics[name]
            outcome.absent[name] = "not finite"
    for name, unit in {**catalog, **({} if args.trace else REPORTED)}.items():
        if name in outcome.metrics:
            value = outcome.metrics[name][0]
            count = outcome.samples.get(name)
            print(f"  {name:34s} {value:14.4f} {unit}"
                  + (f"  (n={count})" if count is not None else ""))
        else:
            value = 0.0
            reason = absent_reason(outcome, name) or "not measured on this workload"
            print(f"  {name:34s} {'absent':>14s} {unit}  ({reason})")
        if name in catalog:
            metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        print("  layer-tax (seconds)     calls      wall       cpu    self_wall  self_cpu")
        for layer, row in outcome.layers.items():
            print(f"    {layer:18s} {row['calls']:8d} {row['wall_s']:9.3f} "
                  f"{row['cpu_s']:9.3f} {row['self_s']:11.3f} {row['self_cpu_s']:9.3f}")
    common.OUT.mkdir(parents=True, exist_ok=True)
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(record(args, outcome), fh, indent=1, default=str)
    correct = outcome.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
