"""The three workloads: ``firehose``, ``pubsub`` and ``churn``.

Every workload builds its inputs from the seed, drives the program only
through its public entry points (``TagMatch.add_signatures`` /
``consolidate`` / ``match_stream``, ``serve_until_interrupted`` in the
server process, ``ServiceClient`` here), checks results against the
brute-force oracle, and returns an :class:`Outcome`.  NOTE.md explains
why each workload exists.
"""

from __future__ import annotations

import asyncio
import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common
import openloop
import tracing
from oracle import Oracle

#: Engine set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11

# firehose: closed loop, one caller, fixed-size chunks back to back.
FIREHOSE_USERS = 20_000
CHUNK = 256
WARM_CHUNKS = 4
#: Queries of each chunk checked against the oracle.
ORACLE_PER_CHUNK = 4
#: Latencies kept (a uniform sample) and queries whose duplicates are
#: counted, per closed loop: fixed sizes, so the benchmark's bookkeeping
#: does not grow with the program's speed and inflate ``peak_rss_mb``.
LATENCY_SAMPLES = 20_000
DUPLICATE_SAMPLE = 50_000

# pubsub / churn: one server process, open loop over <= nproc connections.
SERVICE_USERS = 5_000
#: Publishes are drawn from a pool of ``POOL_QUERIES`` queries with Zipf
#: popularity of exponent ``ZIPF_S`` ("retweets").  Both are assumptions,
#: not measurements: no source for the rate of repeated publishes is
#: cited, so the duplicate share they give (about one half) and what the
#: memo wins on it are not representative of real traffic (NOTE.md).
POOL_QUERIES = 2_000
ZIPF_S = 1.0
WARM_PUBS = 30
#: Fixed publish rate of the pubsub base phase, and its share of the run.
BASE_RATE = 15.0
BASE_SHARE = 0.72
#: Share of the pubsub run spent in the saturating closed-loop burst
#: that gives ``pub_burst_qps``.  Each connection keeps ``BURST_DEPTH``
#: publishes outstanding (enough to fill a default 64-publish ingress
#: batch), and every ``BURST_CHECK_EVERY``-th reply is checked against
#: the oracle.
BURST_SHARE = 0.12
BURST_DEPTH = 64
BURST_CHECK_EVERY = 4
#: Samples that put MIN_BEYOND samples beyond p95.
TAIL_SAMPLES = 20 * common.MIN_BEYOND
#: Rate ladder above the base rate: BASE_RATE * 2**k for k = 1..RUNGS.
RUNGS = 5
RUNG_PUBS = 80
LATENCY_LIMIT_MS = 200.0
#: A rung has a growing backlog when the median latency of its last
#: third exceeds that of its first third by more than this factor.
BACKLOG_FACTOR = 1.5
DRAIN_S = 10.0
REPLY_SAMPLES = 300
# churn: publishes below the pubsub knee, writes several times faster.
CHURN_PUB_RATE = 12.0
CHURN_WRITE_RATE = 100.0
SUB_SHARE = 0.8
UNSUB_MIN_AGE_S = 1.0
PROBE_PUBS = 300
KEY_BASE = 10_000_000


@dataclass
class Outcome:
    """What one run measured."""

    #: name -> (value, unit); every metric the run can state.
    metrics: dict = field(default_factory=dict)
    #: name -> why it is not measured on this workload.
    absent: dict = field(default_factory=dict)
    #: name -> sample count behind a percentile metric.
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    extra: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def put(self, name, value, unit, samples=None):
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = int(samples)


def _put_latency(out: Outcome, prefix: str, lat: dict) -> None:
    for pct in ("p50", "p90", "p95", "p99"):
        if f"{pct}_ms" in lat:
            out.put(f"{prefix}_{pct}_ms", lat[f"{pct}_ms"], "ms", lat["count"])
        else:
            out.absent[f"{prefix}_{pct}_ms"] = (
                f"{lat['count']} samples put fewer than {common.MIN_BEYOND} beyond it"
            )


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def duplicate_share(blocks: np.ndarray) -> float:
    if len(blocks) == 0:
        return 0.0
    return 1.0 - np.unique(blocks, axis=0).shape[0] / len(blocks)


# ----------------------------------------------------------------------
# firehose
# ----------------------------------------------------------------------
class QueryStream:
    """§4.2.2 queries, generated chunk by chunk from the seed.

    Each chunk is generated just before its call and dropped after it,
    so memory does not grow with the program's speed and no query of a
    run repeats an earlier one (bar chance collisions, which are
    measured).
    """

    def __init__(self, index, seed: int, stream: int) -> None:
        self.index = index
        self.rng = rng_for(seed, stream)

    def next_chunk(self) -> np.ndarray:
        return self.index.queries(CHUNK, seed=int(self.rng.integers(2**31))).blocks


class Reservoir:
    """A fixed-size uniform sample of a stream of values (Algorithm R).

    Allocated and written in full up front, so keeping it adds nothing
    to the process's memory while the timed phase runs.
    """

    def __init__(self, size: int, rng: np.random.Generator) -> None:
        self.values = np.full(size, np.nan)
        self.seen = 0
        self.rng = rng

    def add(self, batch: np.ndarray) -> None:
        size = len(self.values)
        fill = min(len(batch), max(0, size - self.seen))
        self.values[self.seen:self.seen + fill] = batch[:fill]
        rest = batch[fill:]
        if len(rest):
            position = self.seen + fill + np.arange(len(rest))
            slots = (self.rng.random(len(rest)) * (position + 1)).astype(np.int64)
            kept = slots < size
            self.values[slots[kept]] = rest[kept]
        self.seen += len(batch)

    def sample(self) -> np.ndarray:
        return self.values[:min(self.seen, len(self.values))]


@dataclass
class Loop:
    done: int
    busy_s: float
    cpu_s: float
    latencies_s: np.ndarray
    mismatches: int
    #: Duplicates among the first ``sampled`` queries.
    duplicates: int
    sampled: int


def closed_loop(engine, queries: QueryStream, seconds=None, chunks=None,
                oracle=None, rng=None) -> Loop:
    """Send ``CHUNK``-query ``match_stream`` calls back to back.

    Runs until the calls have taken ``seconds`` (or for ``chunks``
    calls).  Only the calls are timed: the caller's query generation and
    bookkeeping between them are not.  A query's latency runs from its
    call's start (when the caller hands it over) to its delivery through
    ``on_result``.  With an ``oracle``, ``ORACLE_PER_CHUNK`` queries of
    every call, drawn with ``rng``, are checked right after it.  The
    bookkeeping has a fixed size (a latency reservoir, duplicates
    counted over the first ``DUPLICATE_SAMPLE`` queries), so the
    process's memory does not depend on the program's speed.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    latencies = Reservoir(LATENCY_SAMPLES, rng)
    seen = set()
    done = duplicates = mismatches = calls = 0
    busy = cpu = 0.0
    while (seconds is None or busy < seconds) and (chunks is None or calls < chunks):
        blocks = queries.next_chunk()
        stamps = np.zeros(len(blocks))

        def on_result(i, keys, stamps=stamps):
            stamps[i] = time.perf_counter()

        cpu0, start = time.process_time(), time.perf_counter()
        run = engine.match_stream(blocks, on_result=on_result)
        busy += time.perf_counter() - start
        cpu += time.process_time() - cpu0
        latencies.add(stamps - start)
        for row in blocks[:max(0, DUPLICATE_SAMPLE - done)]:
            signature = row.tobytes()
            duplicates += signature in seen
            seen.add(signature)
        if oracle is not None:
            picks = rng.choice(len(blocks), size=ORACLE_PER_CHUNK, replace=False)
            mismatches += len(oracle.mismatches(blocks[picks], [run.results[i] for i in picks]))
        done += len(blocks)
        calls += 1
    return Loop(done, busy, cpu, latencies.sample(), mismatches, duplicates,
                min(done, DUPLICATE_SAMPLE))


def firehose(seed: int, seconds: float, spans: Path | None) -> Outcome:
    out = Outcome()
    trace = spans is not None
    index = common.make_index(FIREHOSE_USERS)
    oracle = Oracle(index.blocks, index.keys)
    setups, engine = [], None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            # Freed before the next build: a server never holds two indexes.
            engine.close()
            engine = None
            gc.collect()
        start = time.perf_counter()
        engine = common.build_engine(index)
        setups.append(time.perf_counter() - start)
    try:
        closed_loop(engine, QueryStream(index, seed, 1), chunks=WARM_CHUNKS)
        length = seconds / 2 if trace else seconds
        loop = closed_loop(engine, QueryStream(index, seed, 2), length, oracle=oracle,
                           rng=rng_for(seed, 3))
        out.mismatches += loop.mismatches
        out.attempted += loop.done
        plain_cpu_ms = loop.cpu_s / loop.done * 1e3
        if not trace:
            lat = common.latency_summary(loop.latencies_s)
            out.put("setup_s", statistics.median(setups), "s", len(setups))
            out.put("match_qps", loop.done / loop.busy_s, "queries/s", loop.done)
            _put_latency(out, "pub", lat)
            out.put("peak_rss_mb", common.peak_rss_mb(), "MB")
            out.put("cpu_ms_per_query", plain_cpu_ms, "ms", loop.done)
            out.extra["duplicate_share"] = loop.duplicates / loop.sampled
            out.wall_s, out.cpu_s = loop.busy_s, loop.cpu_s
        else:
            engine.close()
            engine = None
            gc.collect()
            rec = tracing.Recorder()
            undo = tracing.install(rec)
            try:
                engine = common.build_engine(index)
                with rec.paused():
                    closed_loop(engine, QueryStream(index, seed, 1), chunks=WARM_CHUNKS)
                    fixed = common.fixed_cost_probe(
                        engine, QueryStream(index, seed, 4).next_chunk()
                    )
                first = time.perf_counter()
                traced = closed_loop(engine, QueryStream(index, seed, 5), length,
                                     oracle=oracle, rng=rng_for(seed, 6))
                last = time.perf_counter()
            finally:
                undo()
            rec.dump(spans)
            out.mismatches += traced.mismatches
            out.attempted += traced.done
            traced_cpu_ms = traced.cpu_s / traced.done * 1e3
            usage = engine.memory_usage()
            timed = _traced_layers(out, rec.spans, first, last)
            out.put("pipeline.fixed_ms", statistics.median(fixed) * 1e3, "ms", len(fixed))
            out.put("partitioning.partitions", engine.num_partitions, "count")
            out.put("engine.index_bytes", usage.host_bytes + usage.gpu_tagset_bytes, "bytes")
            out.put("trace.overhead_pct", (traced_cpu_ms / plain_cpu_ms - 1) * 100, "%")
            out.put("gen.sent", loop.done + traced.done, "count")
            out.put("gen.duplicate_share",
                    (loop.duplicates + traced.duplicates) / (loop.sampled + traced.sampled),
                    "fraction")
            for name in ("gen.late_p95_ms", "gen.late_p99_ms"):
                out.absent[name] = "closed loop: queries have no due time"
            for prefix in ("protocol.", "batcher.", "server.", "delta.", "memo."):
                out.absent[prefix + "*"] = "no service code runs on firehose"
            out.layers = tracing.layer_table(timed)
            out.wall_s = loop.busy_s + traced.busy_s
            out.cpu_s = loop.cpu_s + traced.cpu_s
    finally:
        if engine is not None:
            engine.close()
    return out


def _traced_layers(out: Outcome, spans, first: float, last: float) -> list:
    """Put the span-derived layer metrics of the timed phase.

    Only spans that start inside ``[first, last]`` count, so the build,
    warm-up and churn probe stay out; ``engine.consolidate_s`` is the
    exception and comes from the builds before the phase.
    """
    timed = [sp for sp in spans if first <= sp.start <= last]
    for name, value in tracing.layer_metrics(timed).items():
        out.metrics[name] = (value, None)
    builds = [sp.wall for sp in spans if sp.name == "engine.consolidate" and sp.start < first]
    out.put("engine.consolidate_s", statistics.fmean(builds), "s", len(builds))
    return timed


# ----------------------------------------------------------------------
# pubsub and churn
# ----------------------------------------------------------------------
class ServiceInputs:
    """Index, oracle, query pool and popularity of the service workloads."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.index = common.make_index(SERVICE_USERS)
        self.oracle = Oracle(self.index.blocks, self.index.keys)
        self.pool = self.index.queries(
            POOL_QUERIES, seed=int(rng_for(seed, 1).integers(2**31))
        )
        self.tags = [tuple(sorted(t)) for t in self.pool.tag_sets]
        rng = rng_for(seed, 2)
        weights = 1.0 / np.arange(1, POOL_QUERIES + 1) ** ZIPF_S
        self.popularity = (weights / weights.sum())[rng.permutation(POOL_QUERIES)]
        self.rng = rng_for(seed, 3)

    def pubs(self, rate: float, count: int) -> list:
        offsets = openloop.poisson_offsets(self.rng, rate, count)
        picks = self.rng.choice(POOL_QUERIES, size=count, p=self.popularity)
        return [
            openloop.Op(float(o), "pub", self.tags[q], query=int(q))
            for o, q in zip(offsets, picks)
        ]

    def pub_stream(self):
        """Publishes drawn like :meth:`pubs`, one at a time, without end."""
        while True:
            for q in self.rng.choice(POOL_QUERIES, size=1024, p=self.popularity):
                yield openloop.Op(0.0, "pub", self.tags[q], query=int(q))

    def sent_blocks(self, ops) -> np.ndarray:
        return self.pool.blocks[[op.query for op in ops if op.verb == "pub"]]


def _reply_check(inputs: ServiceInputs, ops, results, keep) -> int:
    """Mismatches among the kept replies, against the frozen index."""
    idx = sorted(i for i in keep if i < len(results) and results[i].ok)
    queries = inputs.pool.blocks[[ops[i].query for i in idx]]
    return len(inputs.oracle.mismatches(queries, [results[i].keys for i in idx]))


def _keep(inputs, ops) -> frozenset:
    pubs = [i for i, op in enumerate(ops) if op.verb == "pub"]
    size = min(REPLY_SAMPLES, len(pubs))
    return frozenset(inputs.rng.choice(pubs, size=size, replace=False).tolist())


async def _connect(server):
    from repro.service.protocol import ServiceClient

    return [
        await ServiceClient.connect(openloop.HOST, server.port)
        for _ in range(common.nproc())
    ]


async def _close(clients):
    for client in clients:
        await client.close()


async def _wait_idle(client, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while (await client.stats())["inflight"] and time.monotonic() < deadline:
        await asyncio.sleep(0.05)


def _judge_rung(phase: openloop.Phase) -> dict:
    pubs = phase.of(("pub",))
    lat = np.array([r.latency_s * 1e3 for r in pubs if r.ok])
    failed = phase.failed()
    over = int(np.sum(lat > LATENCY_LIMIT_MS)) + failed
    third = len(lat) // 3
    backlog = third == 0 or bool(
        np.median(lat[-third:]) > BACKLOG_FACTOR * np.median(lat[:third])
    )
    return {
        "sent": len(pubs),
        "failed": failed,
        "over_limit": over,
        "p50_ms": float(np.median(lat)) if lat.size else math.nan,
        "max_ms": float(lat.max()) if lat.size else math.nan,
        "backlog": backlog,
        "ok": failed == 0 and over <= 0.01 * len(pubs) and not backlog,
    }


async def _run_phase(server, clients, send, check=None):
    """One timed phase: server usage and stats before and after ``send()``.

    ``send`` returns the phase's results and wall time; ``check(results)``
    counts oracle mismatches among them.
    """
    stats0 = await clients[0].stats()
    usage0 = await server.usage()
    results, wall = await send()
    usage1 = await server.usage()
    phase = openloop.Phase(
        results,
        wall,
        cpu_s=usage1["cpu_s"] - usage0["cpu_s"],
        rss_mb=usage1["rss_mb"],
        stats0=stats0,
        stats=await clients[0].stats(),
        attempted=len(results),
        mismatches=check(results) if check is not None else 0,
    )
    phase.failures = phase.failed()
    return phase


async def _open_phase(inputs, server, clients, ops, check=True):
    """An open-loop phase of ``ops``; with ``check`` (frozen index),
    sampled publish replies are checked against the oracle."""
    keep = _keep(inputs, ops) if check else frozenset()
    return await _run_phase(
        server, clients,
        lambda: openloop.run_schedule(clients, ops, DRAIN_S, keep_keys=keep),
        (lambda results: _reply_check(inputs, ops, results, keep)) if check else None,
    )


async def _burst_phase(inputs, server, clients, seconds):
    """A saturating closed-loop publish burst of ``seconds``.

    Every connection keeps ``BURST_DEPTH`` publishes outstanding, so
    publishes answered per second (``pub_burst_qps``) are set by the
    server, not by a schedule.  Every ``BURST_CHECK_EVERY``-th reply is
    checked against the frozen index.
    """
    stream = inputs.pub_stream()
    sent = []

    async def send():
        ops, results, wall = await openloop.closed_loop(
            clients, stream.__next__, seconds, DRAIN_S, BURST_DEPTH,
            keep_every=BURST_CHECK_EVERY,
        )
        sent.extend(ops)
        return results, wall

    def check(results):
        return _reply_check(inputs, sent, results, range(0, len(sent), BURST_CHECK_EVERY))

    return await _run_phase(server, clients, send, check)


def _pubs_done(phase) -> int:
    return sum(r.ok for r in phase.of(("pub",)))


def _account(out: Outcome, phase) -> None:
    out.attempted += phase.attempted
    out.failed += phase.failures
    out.mismatches += phase.mismatches


def _service_e2e(out: Outcome, phase, setups) -> None:
    """End-to-end metrics of a service run's open-loop ``phase``.

    Its ``match_qps`` is publishes answered over the phase's wall time:
    the offered rate while the server keeps up (NOTE.md).
    """
    done = _pubs_done(phase)
    lat = common.latency_summary(phase.latencies(("pub",)))
    out.put("setup_s", statistics.median(setups), "s", len(setups))
    out.put("match_qps", done / phase.wall_s, "queries/s", done)
    _put_latency(out, "pub", lat)
    out.put("peak_rss_mb", phase.rss_mb, "MB")
    out.put("cpu_ms_per_query", phase.cpu_s / max(1, done) * 1e3, "ms", done)
    out.wall_s, out.cpu_s = phase.wall_s, phase.cpu_s


def _gen_metrics(out: Outcome, inputs, phases, ops_lists) -> None:
    late = np.concatenate([p.late_s() for p in phases])
    for pct in (95, 99):
        name = f"gen.late_p{pct}_ms"
        if common.supported(late.size, pct):
            out.put(name, common.percentile(late, pct) * 1e3, "ms", late.size)
        else:
            out.absent[name] = f"{late.size} sends put fewer than {common.MIN_BEYOND} beyond it"
    out.put("gen.sent", late.size, "count")
    out.put("gen.duplicate_share", duplicate_share(
        np.vstack([inputs.sent_blocks(ops) for ops in ops_lists])), "fraction")


def _batcher_memo(out: Outcome, before: dict, after: dict) -> None:
    """Batcher and memo numbers over a phase, from two ``stats`` replies."""
    batches = after["batches"] - before["batches"]
    queries = (after["batch_occupancy"] * after["batches"]
               - before["batch_occupancy"] * before["batches"])
    flushes = {
        reason: after["flush_reasons"].get(reason, 0) - before["flush_reasons"].get(reason, 0)
        for reason in ("full", "timeout")
    }
    out.put("batcher.batch_mean", queries / batches if batches else 0.0, "count", batches)
    out.put("batcher.flush_full", flushes["full"], "count")
    out.put("batcher.flush_timeout", flushes["timeout"], "count")
    out.put("batcher.deadline_ms", after["batch_deadline_ms"], "ms")
    if after.get("memo") is None:
        out.absent["memo.hit_ratio"] = "memo disabled (query_memo_size=0)"
    else:
        hits = after["memo"]["hits"] - before["memo"]["hits"]
        lookups = hits + after["memo"]["misses"] - before["memo"]["misses"]
        out.put("memo.hit_ratio", hits / lookups if lookups else 0.0, "ratio", lookups)


async def _warm(inputs, clients) -> None:
    await openloop.run_schedule(clients, inputs.pubs(BASE_RATE, WARM_PUBS), DRAIN_S)


async def _traced_pair(inputs: ServiceInputs, make_ops, seconds, out: Outcome,
                       spans: Path, probe=None):
    """The per-layer run: an untraced server, then a traced one that
    writes its spans to ``spans``, each serving ``make_ops(seconds / 2)``
    open loop; the CPU per publish of the two gives ``trace.overhead_pct``."""
    phases, ops_lists = [], []
    for traced in (False, True):
        server, _ = await openloop.ServerProcess.start(
            SERVICE_USERS, 1, traced, spans if traced else None
        )
        try:
            clients = await _connect(server)
            try:
                await _warm(inputs, clients)
                ops = make_ops(seconds / 2)
                phase = await _open_phase(inputs, server, clients, ops, check=probe is None)
                if probe is not None:
                    _probe_into(phase, await probe(clients, ops, phase.results))
                await _wait_idle(clients[0], DRAIN_S)
            finally:
                await _close(clients)
        finally:
            await server.stop()
        _account(out, phase)
        phases.append(phase)
        ops_lists.append(ops)
    plain, traced_phase = phases
    recorded = tracing.Recorder.load(spans)
    # Span clocks (server perf_counter) and due times (loop.time) are
    # both CLOCK_MONOTONIC, so the phase window applies across processes.
    first = min(r.due for r in traced_phase.results)
    last = max(r.done for r in traced_phase.results)
    timed = _traced_layers(out, recorded, first, last)
    cpu = [p.cpu_s / max(1, _pubs_done(p)) for p in phases]
    lat_mean = float(np.mean(traced_phase.latencies(("pub",))))
    for name, value in tracing.service_metrics(timed, lat_mean).items():
        out.metrics[name] = (value, None)
    fixed = server.ready["fixed_s"]
    out.put("pipeline.fixed_ms", statistics.median(fixed) * 1e3, "ms", len(fixed))
    out.put("partitioning.partitions", server.ready["partitions"], "count")
    out.put("engine.index_bytes", server.ready["index_bytes"], "bytes")
    out.put("trace.overhead_pct", (cpu[1] / cpu[0] - 1) * 100, "%")
    _batcher_memo(out, traced_phase.stats0, traced_phase.stats)
    _gen_metrics(out, inputs, phases, ops_lists)
    out.layers = tracing.layer_table(timed)
    out.wall_s = sum(p.wall_s for p in phases)
    out.cpu_s = sum(p.cpu_s for p in phases)


def _probe_into(phase, counts) -> None:
    attempted, failures, mismatches = counts
    phase.attempted += attempted
    phase.failures += failures
    phase.mismatches += mismatches


async def pubsub(seed: int, seconds: float, spans: Path | None) -> Outcome:
    out = Outcome()
    inputs = ServiceInputs(seed)
    if spans is not None:
        await _traced_pair(
            inputs, lambda length: inputs.pubs(BASE_RATE, math.ceil(BASE_RATE * length)),
            seconds, out, spans,
        )
        return out
    server, setups = await openloop.ServerProcess.start(SERVICE_USERS, SETUP_REPEATS, False)
    try:
        clients = await _connect(server)
        try:
            await _warm(inputs, clients)
            count = max(TAIL_SAMPLES, math.ceil(BASE_RATE * BASE_SHARE * seconds))
            ops = inputs.pubs(BASE_RATE, count)
            phase = await _open_phase(inputs, server, clients, ops)
            await _wait_idle(clients[0], DRAIN_S)
            burst = await _burst_phase(inputs, server, clients, BURST_SHARE * seconds)
            rungs = [{"rate": BASE_RATE, **_judge_rung(phase)}]
            for k in range(1, RUNGS + 1):
                rate = BASE_RATE * 2**k
                await _wait_idle(clients[0], DRAIN_S)
                results, wall = await openloop.run_schedule(
                    clients, inputs.pubs(rate, RUNG_PUBS), DRAIN_S
                )
                rungs.append(
                    {"rate": rate, **_judge_rung(openloop.Phase(results, wall))}
                )
            await _wait_idle(clients[0], DRAIN_S)
        finally:
            await _close(clients)
    finally:
        await server.stop()
    _account(out, phase)
    _account(out, burst)
    _service_e2e(out, phase, setups)
    burst_done = _pubs_done(burst)
    out.put("pub_burst_qps", burst_done / burst.wall_s, "publishes/s", burst_done)
    out.put("peak_rss_mb", burst.rss_mb, "MB")
    out.wall_s += burst.wall_s
    out.cpu_s += burst.cpu_s
    ok_rates = [rung["rate"] for rung in rungs if rung["ok"]]
    out.put("pub_max_ok_qps", max(ok_rates, default=0.0), "publishes/s")
    out.extra["rungs"] = rungs
    out.extra["duplicate_share"] = duplicate_share(inputs.sent_blocks(ops))
    out.extra["stats"] = phase.stats
    return out


def churn_ops(inputs: ServiceInputs, length: float, min_pubs: int = 1) -> list:
    """Publishes at ``CHURN_PUB_RATE`` merged with a sub/unsub stream at
    ``CHURN_WRITE_RATE``; each unsub removes a sub due at least
    ``UNSUB_MIN_AGE_S`` earlier (so normally already acked)."""
    rng = inputs.rng
    count = max(min_pubs, math.ceil(CHURN_PUB_RATE * length))
    pubs = inputs.pubs(CHURN_PUB_RATE, count)
    horizon = count / CHURN_PUB_RATE
    offsets = openloop.poisson_offsets(
        rng, CHURN_WRITE_RATE, math.ceil(CHURN_WRITE_RATE * horizon)
    )
    interests = inputs.index.interests.tag_sets
    writes, subs, eligible, next_key = [], [], [], KEY_BASE
    for offset in offsets:
        while subs and subs[0].offset_s <= offset - UNSUB_MIN_AGE_S:
            eligible.append(subs.pop(0))
        if eligible and rng.random() >= SUB_SHARE:
            target = eligible.pop(int(rng.integers(len(eligible))))
            writes.append((float(offset), "unsub", target))
        else:
            tags = tuple(sorted(interests[int(rng.integers(len(interests)))]))
            op = openloop.Op(float(offset), "sub", tags, key=next_key)
            next_key += 1
            subs.append(op)
            writes.append((float(offset), "sub", op))
    ops = list(pubs)
    for offset, verb, op in writes:
        if verb == "sub":
            ops.append(op)
        else:
            ops.append(openloop.Op(offset, "unsub", op.tags, key=op.key, target=id(op)))
    ops.sort(key=lambda op: op.offset_s)
    position = {id(op): i for i, op in enumerate(ops)}
    for op in ops:
        if op.verb == "unsub":
            op.target = position[op.target]
    return ops


def _churn_probe(inputs: ServiceInputs):
    """After the timed phases: publish a probe set and check it against
    the database ∪ acked subs − acked unsubs."""

    async def probe(clients, ops, results):
        live = {}
        for op, res in zip(ops, results):
            if op.verb == "sub" and res.ok:
                live[op.key] = op.tags
            elif op.verb == "unsub" and res.ok:
                live.pop(op.key, None)
        hasher = inputs.index.hasher
        blocks = np.vstack([inputs.index.blocks, hasher.encode_sets(list(live.values()))])
        keys = np.concatenate([inputs.index.keys, np.fromiter(live, dtype=np.int64)])
        oracle = Oracle(blocks, keys)
        picks = inputs.rng.choice(POOL_QUERIES, size=PROBE_PUBS, replace=False)
        probe_ops = [openloop.Op(0.0, "pub", inputs.tags[q], query=int(q)) for q in picks]
        got, _ = await openloop.run_schedule(
            clients, probe_ops, DRAIN_S, keep_keys=frozenset(range(len(probe_ops)))
        )
        answered = [i for i, r in enumerate(got) if r.ok]
        bad = oracle.mismatches(
            inputs.pool.blocks[picks[answered]], [got[i].keys for i in answered]
        )
        return len(got), len(got) - len(answered), len(bad)

    return probe


async def churn(seed: int, seconds: float, spans: Path | None) -> Outcome:
    out = Outcome()
    inputs = ServiceInputs(seed)
    probe = _churn_probe(inputs)
    if spans is not None:
        await _traced_pair(
            inputs, lambda length: churn_ops(inputs, length), seconds, out, spans, probe
        )
        return out
    server, setups = await openloop.ServerProcess.start(SERVICE_USERS, SETUP_REPEATS, False)
    try:
        clients = await _connect(server)
        try:
            await _warm(inputs, clients)
            ops = churn_ops(inputs, seconds, min_pubs=TAIL_SAMPLES)
            phase = await _open_phase(inputs, server, clients, ops, check=False)
            _probe_into(phase, await probe(clients, ops, phase.results))
        finally:
            await _close(clients)
    finally:
        await server.stop()
    _account(out, phase)
    _service_e2e(out, phase, setups)
    writes = phase.latencies(("sub", "unsub"))
    _put_latency(out, "write", common.latency_summary(writes))
    out.extra["write_share"] = len(phase.of(("sub", "unsub"))) / len(phase.results)
    out.extra["reconsolidations"] = phase.stats["reconsolidations"]
    out.extra["duplicate_share"] = duplicate_share(inputs.sent_blocks(ops))
    out.extra["stats"] = phase.stats
    return out
