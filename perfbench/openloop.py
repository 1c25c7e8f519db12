"""Open-loop load generator and server handle for the service workloads.

The generator replaces ``repro.service.loadgen`` for measurement: every
operation is timed from its scheduled *due* time, not from when the
sender got round to it, so a stall in the generator or the server shows
as latency of every operation behind it; the generator's own lateness is
reported apart (``gen.late_p99_ms``); and an operation still unanswered
at the drain deadline counts as failed instead of vanishing from every
count.  It runs in the benchmark process over at most ``nproc``
connections; the server runs in a process of its own (``launcher.py``).
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
HOST = "127.0.0.1"

#: How long the launcher may take to build and answer, per build.
READY_TIMEOUT_S = 60.0
#: How long a stopping server may take to drain and exit.
STOP_TIMEOUT_S = 30.0


@dataclass
class Op:
    """One scheduled operation."""

    offset_s: float
    verb: str  # "pub" | "sub" | "unsub"
    tags: tuple
    key: int = -1
    #: For an unsub: index of the sub op it removes.
    target: int = -1
    #: Pool index of a publish (duplicate accounting and oracle lookups).
    query: int = -1


@dataclass
class OpResult:
    verb: str
    due: float
    sent: float = float("nan")
    done: float = float("nan")
    ok: bool = False
    error: str = ""
    keys: list | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """``count`` Poisson arrival offsets (seconds) at ``rate`` per second.

    The process is conditioned on its count: ``count`` uniform arrivals
    over ``count / rate`` seconds, so every run offers exactly the
    nominal rate and throughput does not vary with the schedule's luck.
    """
    return np.sort(rng.uniform(0.0, count / rate, size=count))


async def _send(client, op: Op):
    """Send one operation; returns a publish's keys, raises on failure."""
    if op.verb == "pub":
        keys, _ = await client.publish(op.tags)
        return keys
    if op.verb == "sub":
        await client.subscribe(op.tags, op.key)
    elif not await client.unsubscribe(op.tags, op.key):
        raise common.BenchError("unsub removed nothing")
    return None


async def _issue(loop, client, op: Op, res: OpResult, keep: bool) -> None:
    """Send ``op`` now and record its outcome in ``res``."""
    try:
        res.sent = loop.time()
        keys = await _send(client, op)
        if keep:
            res.keys = keys
        res.ok = True
    except asyncio.CancelledError:
        res.error = "unanswered"
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        res.error = f"{type(exc).__name__}: {exc}"
    finally:
        res.done = loop.time()


async def run_schedule(
    clients, ops: list[Op], drain_s: float, keep_keys=frozenset()
) -> tuple[list[OpResult], float]:
    """Issue ``ops`` open-loop over ``clients``; return results and wall time.

    Operations are spread round-robin over the connections.  An unsub
    waits for the ack of the sub it targets (which is due well before
    it), so a slow sub makes its unsub late rather than wrong.  Keys of
    the ops whose index is in ``keep_keys`` are kept for the oracle.
    """
    loop = asyncio.get_running_loop()
    results = [OpResult(op.verb, 0.0) for op in ops]
    acked = [None] * len(ops)
    tasks = []

    async def issue(i: int, op: Op, client) -> None:
        try:
            if op.verb == "unsub":
                await acked[op.target]
            await _issue(loop, client, op, results[i], i in keep_keys)
        except asyncio.CancelledError:
            results[i].error = "unanswered"
            results[i].done = loop.time()
        finally:
            if acked[i] is not None and not acked[i].done():
                acked[i].set_result(results[i].ok)

    for i, op in enumerate(ops):
        if op.verb == "sub":
            acked[i] = loop.create_future()
    start = loop.time() + 0.02
    for i, op in enumerate(ops):
        due = start + op.offset_s
        results[i].due = due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(issue(i, op, clients[i % len(clients)])))
    _, pending = await asyncio.wait(tasks, timeout=drain_s) if tasks else (None, ())
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    return results, loop.time() - start


async def closed_loop(
    clients, next_op, seconds: float, drain_s: float, depth: int, keep_every: int = 0
) -> tuple[list[Op], list[OpResult], float]:
    """Send ``next_op()`` back to back, ``depth`` at a time on every
    connection, for ``seconds``.

    Each of the ``depth`` senders of a connection sends its next
    operation as soon as its previous one is answered, so the server
    sets the pace: answers per second are its throughput with
    ``depth * len(clients)`` requests outstanding.  An operation's due
    time is when it is sent; the keys of every ``keep_every``-th are
    kept for the oracle.  Returns the operations sent, their results
    and the wall time from the start to the last answer; an operation
    unanswered ``drain_s`` after the end counts as failed.
    """
    loop = asyncio.get_running_loop()
    ops: list[Op] = []
    results: list[OpResult] = []
    start = loop.time()
    end = start + seconds

    async def sender(client) -> None:
        while loop.time() < end:
            i = len(ops)
            ops.append(next_op())
            results.append(OpResult(ops[i].verb, loop.time()))
            keep = keep_every > 0 and i % keep_every == 0
            await _issue(loop, client, ops[i], results[i], keep)

    tasks = [loop.create_task(sender(client)) for client in clients for _ in range(depth)]
    _, pending = await asyncio.wait(tasks, timeout=seconds + drain_s)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    return ops, results, max(r.done for r in results) - start


class ServerProcess:
    """The launcher process: start, set-up samples, usage, stop."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc
        self.port = -1
        self.ready: dict = {}

    @classmethod
    async def start(cls, users: int, builds: int, trace: bool, spans=None):
        """Start the server; returns it with one set-up sample per build.

        A set-up sample runs from signatures in hand to the first
        successful ``ping`` of that build.
        """
        from repro.service.protocol import ServiceClient

        cmd = [sys.executable, str(LAUNCHER), "--users", str(users),
               "--builds", str(builds), "--trace", str(int(trace))]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = await asyncio.create_subprocess_exec(
            *cmd, stdout=asyncio.subprocess.PIPE, cwd=str(common.ROOT)
        )
        server = cls(proc)
        samples = []
        try:
            for build in range(builds):
                server.ready = await server._expect("ready", READY_TIMEOUT_S)
                server.port = server.ready["port"]
                client = await ServiceClient.connect(HOST, server.port)
                try:
                    await client.ping()
                    samples.append(time.monotonic() - server.ready["t_sig"])
                finally:
                    await client.close()
                if build < builds - 1:
                    proc.send_signal(signal.SIGINT)
                    await server._expect("stopped", STOP_TIMEOUT_S)
        except BaseException:
            await server.kill()
            raise
        return server, samples

    async def _expect(self, event: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise common.BenchError(f"server: no {event!r} event in {timeout}s")
            line = await asyncio.wait_for(self.proc.stdout.readline(), remaining)
            if not line:
                raise common.BenchError(f"server exited before {event!r}")
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue  # not an event line
            if isinstance(message, dict) and message.get("event") == event:
                return message

    async def usage(self) -> dict:
        """The server's CPU seconds and peak RSS, right now."""
        self.proc.send_signal(signal.SIGUSR1)
        return await self._expect("usage", 10.0)

    async def stop(self) -> None:
        """Graceful stop (SIGTERM); waits for ``done`` and the exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            await self._expect("done", STOP_TIMEOUT_S)
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


@dataclass
class Phase:
    """Summary of one scheduled phase."""

    results: list = field(repr=False)
    wall_s: float
    #: Server CPU seconds and peak RSS over the phase, its stats verb
    #: replies at the start and the end, and the phase's counts
    #: including oracle checks.
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stats0: dict = field(default_factory=dict, repr=False)
    stats: dict = field(default_factory=dict, repr=False)
    attempted: int = 0
    failures: int = 0
    mismatches: int = 0

    def of(self, verbs) -> list[OpResult]:
        return [r for r in self.results if r.verb in verbs]

    def failed(self, verbs=("pub", "sub", "unsub")) -> int:
        return sum(1 for r in self.of(verbs) if not r.ok)

    def latencies(self, verbs) -> np.ndarray:
        return np.array([r.latency_s for r in self.of(verbs) if r.ok])

    def late_s(self) -> np.ndarray:
        sent = [r.late_s for r in self.results if not np.isnan(r.sent)]
        return np.array(sent)
