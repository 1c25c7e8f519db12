"""Traced runs: wrappers around the calls into each layer's public
functions, installed at run time by the benchmark (no program file
changes), and the layer-tax report computed from the spans they record.

A span carries its name, start, end, parent span, thread, a batch or
request id, thread CPU time next to wall time (so waiting for the GIL or
a queue shows as wall minus CPU), and per-call attributes.  Spans stay
in memory and are written out when the run ends.

Parents: a span's parent is the enclosing span on the same thread.  The
pipeline's stage work runs on its own worker and stream threads, so a
stage span opened with no enclosing span is attributed to the oldest
``match_stream`` call still open (exact for one caller; an attribution
by arrival order when ingress batches overlap).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    req: object
    cpu: float | None
    attrs: dict

    @property
    def wall(self) -> float:
        return self.end - self.start


#: Span name -> layer (the ``src/repro`` module whose seam it times).
LAYER_OF = {
    "bloom.encode_set": "bloom",
    "engine.consolidate": "engine",
    "pipeline.match_stream": "pipeline",
    "pipeline.grouped_key_lookup": "pipeline",
    "partition_table.relevant_matrix": "partition_table",
    "kernels.run_kernel": "kernels",
    "kernels.subset_match_kernel": "kernels",
    "device.htod": "device",
    "device.dtoh": "device",
    "stream.queue_wait": "stream",
    "protocol.decode_frame": "protocol",
    "protocol.write_frame": "protocol",
    "delta.apply_delta": "delta",
    "delta.reconsolidate": "delta",
}
LAYERS = sorted(set(LAYER_OF.values()))

#: Spans that are pipeline stage work (attributed across threads).
_STAGES = frozenset(
    {
        "pipeline.grouped_key_lookup",
        "partition_table.relevant_matrix",
        "kernels.run_kernel",
        "device.htod",
        "device.dtoh",
        "stream.queue_wait",
    }
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._open_calls: list[int] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _parent(self, name: str, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if name in _STAGES:
            with self._lock:
                return self._open_calls[0] if self._open_calls else None
        return None

    def call(self, name, fn, args, kwargs, attrs=None, req=None, root=False):
        """Run ``fn`` as a span; ``attrs(args, kwargs, result)`` adds fields."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = self._parent(name, stack)
        sid = next(self._ids)
        stack.append(sid)
        if root:
            with self._lock:
                self._open_calls.append(sid)
        start, cpu0 = time.perf_counter(), time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            cpu1, end = time.thread_time(), time.perf_counter()
            stack.pop()
            if root:
                with self._lock:
                    self._open_calls.remove(sid)
        fields = attrs(args, kwargs, result) if attrs is not None else {}
        # The batch or request a span serves: its own id for a
        # match_stream call (one batch), else the one that caused it.
        req = fields.pop("req", req)
        if req is None:
            req = sid if root else parent
        self.spans.append(
            Span(sid, name, start, end, parent, threading.get_ident(), req, cpu1 - cpu0, fields)
        )
        return result

    async def acall(self, name, fn, args, kwargs, attrs=None):
        """Coroutine span: wall time only (other tasks run across awaits)."""
        if not self.enabled:
            return await fn(*args, **kwargs)
        sid = next(self._ids)
        start = time.perf_counter()
        result = await fn(*args, **kwargs)
        end = time.perf_counter()
        fields = attrs(args, kwargs, result) if attrs is not None else {}
        req = fields.pop("req", None)
        self.spans.append(
            Span(sid, name, start, end, None, threading.get_ident(), req, None, fields)
        )
        return result

    def add(self, name, start, end, attrs=None) -> None:
        """A pre-timed span (queue waits measured by two stamps)."""
        if not self.enabled:
            return
        parent = self._parent(name, [])
        self.spans.append(
            Span(next(self._ids), name, start, end, parent, threading.get_ident(),
                 None, None, attrs or {})
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict(), default=str) + "\n")

    @staticmethod
    def load(path: Path) -> list[Span]:
        with open(path) as fh:
            return [Span(**json.loads(line)) for line in fh if line.strip()]


def install(rec: Recorder):
    """Wrap every layer seam; returns a function that restores them."""
    import repro.core.pipeline as pipeline_mod
    import repro.parallel.backend as backend_mod
    import repro.service.protocol as protocol_mod
    import repro.service.server as server_mod
    from repro.bloom.hashing import TagHasher
    from repro.core.engine import TagMatch
    from repro.core.partition_table import PartitionTable
    from repro.gpu.device import Device
    from repro.gpu.packing import unpack_results
    from repro.gpu.stream import Stream
    from repro.service.protocol import encode_frame

    saved = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def sync(name, attrs=None, req=None, root=False):
        def make(original):
            def wrapper(*args, **kwargs):
                r = req() if req is not None else None
                return rec.call(name, original, args, kwargs, attrs, r, root)

            return wrapper

        return make

    def tls_req():
        return getattr(rec._tls, "req", None)

    patch(TagHasher, "encode_set", sync(
        "bloom.encode_set",
        lambda a, k, r: {"verb": getattr(rec._tls, "verb", None)},
        req=tls_req,
    ))
    patch(TagMatch, "consolidate", sync("engine.consolidate"))
    patch(TagMatch, "match_stream", sync(
        "pipeline.match_stream",
        lambda a, k, r: {
            "n": int(a[1].shape[0]),
            "full": r.stats.full_flushes,
            "timeout": r.stats.timeout_flushes,
            "shutdown": r.stats.shutdown_flushes,
        },
        root=True,
    ))
    patch(PartitionTable, "relevant_matrix", sync(
        "partition_table.relevant_matrix", lambda a, k, r: {"n": int(a[1].shape[0])}
    ))
    patch(pipeline_mod, "grouped_key_lookup", sync(
        "pipeline.grouped_key_lookup", lambda a, k, r: {"pairs": int(a[1].size)}
    ))

    def kernel_attrs(args, kwargs, out):
        q_ids, _ = unpack_results(out.packed, out.num_pairs)
        return {
            "q": int(args[2].shape[0]),
            "pairs": int(out.num_pairs),
            "useful": int(np.unique(q_ids).size),
            "sim_s": float(out.simulated_time_s),
        }

    todo = [backend_mod.ExecutionBackend]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "run_kernel" in vars(cls):
            patch(cls, "run_kernel", sync("kernels.run_kernel", kernel_attrs))
    patch(backend_mod, "subset_match_kernel", sync(
        "kernels.subset_match_kernel",
        lambda a, k, r: {
            "surviving": int(r.stats.surviving_query_slots),
            "slots": int(r.stats.num_thread_blocks * r.stats.batch_size),
        },
    ))
    patch(Device, "htod", sync(
        "device.htod", lambda a, k, r: {"bytes": int(np.asarray(a[1]).nbytes)}
    ))
    patch(Device, "dtoh", sync(
        "device.dtoh",
        lambda a, k, r: {"bytes": int(k.get("nbytes", a[2] if len(a) > 2 else None)
                                      or r.nbytes)},
    ))
    patch(Device, "charge_dtoh", sync(
        "device.dtoh", lambda a, k, r: {"bytes": int(a[1])}
    ))

    def make_enqueue(original):
        def enqueue(self, fn, label="op"):
            if not rec.enabled:
                return original(self, fn, label)
            queued = time.perf_counter()

            def timed():
                rec.add("stream.queue_wait", queued, time.perf_counter(), {"label": label})
                return fn()

            return original(self, timed, label)

        return enqueue

    patch(Stream, "enqueue", make_enqueue)

    def decode_attrs(args, kwargs, message):
        # The server reads a frame, decodes it, then dispatches it on the
        # same thread without yielding: the encode that follows belongs
        # to this request.
        rec._tls.verb = message.get("verb")
        rec._tls.req = message.get("id")
        return {"verb": message.get("verb"), "req": message.get("id"), "bytes": len(args[0]) + 4}

    def make_write(original):
        async def write_frame(*args, **kwargs):
            message = args[1]
            return await rec.acall(
                "protocol.write_frame", original, args, kwargs,
                lambda a, k, r: {
                    "req": message.get("id"),
                    "pub_reply": "keys" in message,
                    "bytes": len(encode_frame(message)),
                },
            )

        return write_frame

    patch(protocol_mod, "decode_frame", sync("protocol.decode_frame", decode_attrs))
    patch(server_mod, "write_frame", make_write)
    patch(server_mod, "apply_delta", sync(
        "delta.apply_delta",
        lambda a, k, r: {"n": len(a[0]), "size": int(a[2].size)},
    ))

    def make_recon(original):
        async def reconsolidate(self):
            return await rec.acall("delta.reconsolidate", original, (self,), {})

        return reconsolidate

    patch(server_mod.MatchServer, "reconsolidate", make_recon)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# ----------------------------------------------------------------------
# Layer-tax report
# ----------------------------------------------------------------------
def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_table(spans: list[Span]) -> dict:
    """Per layer: calls, wall, CPU, self wall and self CPU (seconds).

    Self time is a span's duration minus what its children cover: for
    same-thread children their summed time, for a ``match_stream`` call
    the union of the stage work attributed to it (its orchestration tax).
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    table = {
        layer: {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0, "self_cpu_s": 0.0}
        for layer in LAYERS
    }
    for s in spans:
        row = table[LAYER_OF[s.name]]
        kids = children.get(s.id, [])
        same = [c for c in kids if c.thread == s.thread]
        work = [(c.start, c.end) for c in kids
                if c.thread != s.thread and c.name != "stream.queue_wait"]
        self_wall = s.wall - sum(c.wall for c in same) - _union_length(work)
        row["calls"] += 1
        row["wall_s"] += s.wall
        row["self_s"] += self_wall
        if s.cpu is not None:
            row["cpu_s"] += s.cpu
            row["self_cpu_s"] += s.cpu - sum(c.cpu or 0.0 for c in same)
    return table


def _of(spans, name):
    return [s for s in spans if s.name == name]


def _mean(values, default=0.0):
    values = list(values)
    return statistics.fmean(values) if values else default


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The span-derived per-layer metrics (counts, ratios, times)."""
    calls = _of(spans, "pipeline.match_stream")
    kernels = _of(spans, "kernels.run_kernel")
    lookups = _of(spans, "pipeline.grouped_key_lookup")
    relevant = _of(spans, "partition_table.relevant_matrix")
    encodes = _of(spans, "bloom.encode_set")
    pub_encodes = [s for s in encodes if s.attrs.get("verb") == "pub"] or encodes
    prefilter = _of(spans, "kernels.subset_match_kernel")
    queries = sum(s.attrs["n"] for s in calls)
    launch_q = sum(s.attrs["q"] for s in kernels)
    slots = sum(s.attrs["slots"] for s in prefilter)
    pairs = sum(s.attrs["pairs"] for s in lookups)
    table = layer_table(spans)
    metrics = {
        "bloom.encode_us": _mean(s.wall for s in pub_encodes) * 1e6,
        "partition_table.relevant_us": (
            sum(s.wall for s in relevant) / max(1, sum(s.attrs["n"] for s in relevant)) * 1e6
        ),
        "partition_table.units_per_query": launch_q / max(1, queries),
        "partition_table.useful_ratio": (
            sum(s.attrs["useful"] for s in kernels) / max(1, launch_q)
        ),
        "kernels.launches": float(len(kernels)),
        "kernels.queries_per_launch": launch_q / max(1, len(kernels)),
        "kernels.pairs": float(sum(s.attrs["pairs"] for s in kernels)),
        "kernels.prefilter_ratio": (
            1.0 - sum(s.attrs["surviving"] for s in prefilter) / slots if slots else 0.0
        ),
        "kernels.busy_s": sum(s.wall for s in kernels),
        "kernels.cpu_s": sum(s.cpu for s in kernels),
        "kernels.sim_device_s": sum(s.attrs["sim_s"] for s in kernels),
        "device.htod_bytes": float(sum(s.attrs["bytes"] for s in _of(spans, "device.htod"))),
        "device.dtoh_bytes": float(sum(s.attrs["bytes"] for s in _of(spans, "device.dtoh"))),
        "stream.queue_wait_s": sum(s.wall for s in _of(spans, "stream.queue_wait")),
        "pipeline.lookup_us_per_pair": sum(s.wall for s in lookups) / max(1, pairs) * 1e6,
        "pipeline.flush_full": float(sum(s.attrs["full"] for s in calls)),
        "pipeline.flush_timeout": float(sum(s.attrs["timeout"] for s in calls)),
        "pipeline.flush_shutdown": float(sum(s.attrs["shutdown"] for s in calls)),
        "pipeline.tax_s": table["pipeline"]["self_s"]
        - sum(s.wall for s in lookups),
    }
    for layer, row in table.items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.self_cpu_s"] = row["self_cpu_s"]
    return metrics


def service_metrics(spans: list[Span], pub_latency_mean_s: float) -> dict[str, float]:
    """Per-layer metrics of the serving path (server-process spans)."""
    reads = [s for s in _of(spans, "protocol.decode_frame") if s.attrs.get("verb") == "pub"]
    writes = _of(spans, "protocol.write_frame")
    pub_writes = [s for s in writes if s.attrs.get("pub_reply")]
    encodes = [s for s in _of(spans, "bloom.encode_set") if s.attrs.get("verb") == "pub"]
    calls = _of(spans, "pipeline.match_stream")
    overlays = _of(spans, "delta.apply_delta")
    recons = _of(spans, "delta.reconsolidate")
    pubs = max(1, len(reads))
    per_pub_self = (
        sum(s.wall for s in reads)
        + sum(s.wall for s in encodes)
        + sum(s.attrs["n"] * s.wall for s in calls)
        + sum(s.attrs["n"] * s.wall for s in overlays)
        + sum(s.wall for s in pub_writes)
    ) / pubs
    return {
        "protocol.bytes_in_per_pub": sum(s.attrs["bytes"] for s in reads) / pubs,
        "protocol.bytes_out_per_pub": (
            sum(s.attrs["bytes"] for s in pub_writes) / max(1, len(pub_writes))
        ),
        "protocol.write_us": _mean(s.wall for s in writes) * 1e6,
        "server.match_ms": (
            _mean(s.wall for s in calls) + _mean(s.wall for s in overlays)
        ) * 1e3,
        "server.residual_ms": (pub_latency_mean_s - per_pub_self) * 1e3,
        "delta.overlay_us": (
            sum(s.wall for s in overlays) / max(1, sum(s.attrs["n"] for s in overlays)) * 1e6
        ),
        "delta.size_max": float(max((s.attrs["size"] for s in overlays), default=0)),
        "delta.reconsolidations": float(len(recons)),
        "delta.reconsolidate_s": _mean(s.wall for s in recons),
    }
