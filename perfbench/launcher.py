"""Server process of the pubsub and churn workloads.

Builds the workload's index (``common.make_index``), then serves it
through the program's ``serve_until_interrupted`` with the
library-default service config.
Set-up is repeated ``--builds`` times so the benchmark can take a median:
each build is stopped with SIGINT once the benchmark has pinged it, and
the last one serves the workload until SIGTERM.

Events go to stdout as one JSON object per line:

``ready``    a build answers on ``port``; ``t_sig`` is the monotonic
             time the signatures were in hand, before the build.
``usage``    reply to SIGUSR1: this process's CPU seconds and peak RSS.
``stopped``  a build has shut down.
``done``     spans (trace mode) are written; the process exits.

With ``--trace 1`` the benchmark's wrappers (``tracing.py``) time the
calls into each layer; the program itself is unchanged.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--builds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    common.bootstrap()
    from repro.service.server import serve_until_interrupted

    index = common.make_index(args.users)
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    for build in range(args.builds):
        t_sig = time.monotonic()
        engine = common.build_engine(index)
        info = {}
        if recorder is not None:
            usage = engine.memory_usage()
            info["index_bytes"] = usage.host_bytes + usage.gpu_tagset_bytes
            info["partitions"] = engine.num_partitions
            with recorder.paused():
                info["fixed_s"] = common.fixed_cost_probe(engine, index.blocks)

        def ready(server, build=build, t_sig=t_sig, info=info):
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(
                signal.SIGUSR1,
                lambda: emit(
                    "usage", cpu_s=time.process_time(), rss_mb=common.peak_rss_mb()
                ),
            )
            emit("ready", build=build, port=server.port, t_sig=t_sig, **info)

        asyncio.run(
            serve_until_interrupted(engine, common.service_config(), ready_cb=ready)
        )
        # Freed before the next build: a server never holds two indexes.
        engine = None
        gc.collect()
        emit("stopped", build=build)

    if recorder is not None and args.spans is not None:
        recorder.dump(args.spans)
    emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
