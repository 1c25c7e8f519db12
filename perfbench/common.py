"""Shared pieces of the benchmark: repo bootstrap, the one engine and
service configuration every workload uses, the index every workload is
built from and set up, percentiles and the host fingerprint.

Only the benchmark's own files live here; the program under test is
imported from the checkout's ``src/`` directory and never edited.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: A tail percentile is reported only with at least this many samples
#: beyond it (p95 therefore needs 200 samples, p99 1000).
MIN_BEYOND = 10

#: Service overrides on top of the library defaults: ``port=0`` binds an
#: ephemeral port (a deployment setting, not a knob).
SERVICE_OVERRIDES = {"port": 0}


class BenchError(RuntimeError):
    """The benchmark cannot run or its result is invalid."""


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def engine_overrides() -> dict:
    """Engine overrides on top of the library defaults: ``num_threads``
    follows the host's core count."""
    return {"num_threads": nproc()}


def engine_config():
    from repro.core.config import TagMatchConfig

    return TagMatchConfig(**engine_overrides())


def service_config():
    from repro.core.config import ServiceConfig

    return ServiceConfig(**SERVICE_OVERRIDES)


#: Seed of every workload's database.  The database is part of the
#: workload, like its size; the run's ``--seed`` draws the traffic (the
#: queries, the publish and write schedules).  With the database drawn
#: from the run's seed, its structure (40-49 partitions at 5 k users,
#: 49-56 at 20 k) moved the server's CPU per publish between two seeds
#: by about a fifth, which would hide a change of that size.
INDEX_SEED = 1


def make_index(users: int, seed: int = INDEX_SEED):
    """The §4.2 Twitter workload for ``users`` users, from ``seed``."""
    from repro.workloads.workload import generate_twitter_workload

    return generate_twitter_workload(users, seed=seed)


def build_engine(index):
    """Set-up as a user does it: ``add_signatures`` then ``consolidate``."""
    from repro.core.engine import TagMatch

    engine = TagMatch(engine_config())
    engine.add_signatures(index.blocks, index.keys)
    engine.consolidate()
    return engine


def fixed_cost_probe(engine, blocks, calls: int = 20) -> list[float]:
    """Wall seconds of single-query ``match_stream`` calls."""
    walls = []
    for row in blocks[:calls]:
        start = time.perf_counter()
        engine.match_stream(row.reshape(1, -1))
        walls.append(time.perf_counter() - start)
    return walls


def percentile(samples, pct: float) -> float:
    """``pct``-th percentile, refusing a tail without enough samples.

    A tail percentile (above the median) needs at least
    :data:`MIN_BEYOND` samples beyond it; fewer raise :class:`BenchError`.
    """
    n = len(samples)
    if n == 0:
        raise BenchError(f"p{pct:g} of an empty sample")
    if pct > 50 and not supported(n, pct):
        raise BenchError(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it; {n} samples give "
            f"{n * (100 - pct) / 100:.1f}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def supported(n: int, pct: float) -> bool:
    return n * (100 - pct) / 100 >= MIN_BEYOND


def latency_summary(samples_s) -> dict:
    """Median and the tail percentiles the sample supports, of latencies
    in seconds, as milliseconds."""
    out = {"p50_ms": percentile(samples_s, 50) * 1e3, "count": len(samples_s)}
    for pct in (90, 95, 99):
        if supported(len(samples_s), pct):
            out[f"p{pct}_ms"] = percentile(samples_s, pct) * 1e3
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
