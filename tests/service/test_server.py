"""End-to-end server tests: live updates, overload, epoch swaps, drain.

No pytest-asyncio in the image, so each test drives its own loop with
``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.config import ServiceConfig, TagMatchConfig
from repro.core.engine import TagMatch
from repro.service.protocol import OverloadedError, ServiceClient
from repro.service.server import MatchServer

ENGINE_CONFIG = TagMatchConfig(max_partition_size=8, num_gpus=1, batch_timeout_s=None)


def _engine(associations) -> TagMatch:
    engine = TagMatch(ENGINE_CONFIG)
    for tags, key in associations:
        engine.add_set(tags, key=key)
    engine.consolidate()
    return engine


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        port=0,
        batch_deadline_s=0.005,
        min_deadline_s=0.001,
        max_deadline_s=0.05,
        reconsolidate_threshold=0,  # no background rebuilds unless asked
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _serve(associations, **overrides):
    server = MatchServer(_engine(associations), _config(**overrides))
    await server.start()
    client = await ServiceClient.connect("127.0.0.1", server.port)
    return server, client


def test_live_subscribe_unsubscribe_and_multiset_semantics():
    async def run():
        server, client = await _serve(
            [(("a", "b"), 1), (("a", "b"), 1), (("c",), 2)]
        )
        try:
            keys, epoch0 = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 1]

            await client.subscribe(["a"], key=7)
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 1, 7]
            keys, _ = await client.publish(["a", "b"], unique=True)
            assert sorted(keys) == [1, 7]

            # Tombstones remove exactly one instance each.
            assert await client.unsubscribe(["a", "b"], key=1)
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 7]
            assert await client.unsubscribe(["a", "b"], key=1)
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [7]
            assert not await client.unsubscribe(["a", "b"], key=1)

            # Removing a live delta add deletes it outright.
            assert await client.unsubscribe(["a"], key=7)
            keys, _ = await client.publish(["a", "b"])
            assert keys == []

            stats = await client.stats()
            assert stats["delta_size"] == 2  # two tombstones remain
            assert stats["publishes"] >= 5

            # Reconsolidate folds the delta and bumps the epoch.
            epoch1 = await client.reconsolidate()
            assert epoch1 > epoch0
            stats = await client.stats()
            assert stats["delta_size"] == 0
            assert stats["reconsolidations"] == 1
            keys, epoch = await client.publish(["a", "b"])
            assert keys == [] and epoch == epoch1
            keys, _ = await client.publish(["c"])
            assert keys == [2]
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_overload_rejects_with_bounded_latency():
    async def run():
        # max_inflight=2 and a long deadline: the first publishes sit in
        # the batcher, the rest must bounce immediately.
        server, client = await _serve(
            [(("a",), 1)],
            max_inflight=2,
            ingress_batch_size=256,
            batch_deadline_s=0.1,
            max_deadline_s=0.2,
        )
        try:
            outcomes = await asyncio.gather(
                *(client.publish(["a"]) for _ in range(12)),
                return_exceptions=True,
            )
            rejected = [o for o in outcomes if isinstance(o, OverloadedError)]
            served = [o for o in outcomes if isinstance(o, tuple)]
            assert len(rejected) >= 1
            assert len(served) >= 2
            assert len(rejected) + len(served) == 12
            for keys, _ in served:
                assert keys == [1]
            stats = await client.stats()
            assert stats["overloads"] == len(rejected)
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_reconsolidation_swaps_epochs_under_load():
    async def run():
        server, client = await _serve(
            [(("a",), 1)],
            reconsolidate_threshold=4,
            reconsolidate_interval_s=0.01,
        )
        try:
            epochs = set()
            key = 100
            for round_no in range(6):
                for _ in range(4):
                    key += 1
                    await client.subscribe(["a", f"r{round_no}"], key=key)
                keys, epoch = await client.publish(["a"])
                epochs.add(epoch)
                assert 1 in keys  # frozen association never disappears
                await asyncio.sleep(0.03)
            stats = await client.stats()
            assert stats["reconsolidations"] >= 1
            assert len(epochs) >= 2  # a swap was observed mid-stream
            assert stats["errors"] == 0
            # Every subscription survived the swaps.
            keys, _ = await client.publish(["a"] + [f"r{i}" for i in range(6)])
            assert len(keys) == 1 + 24
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_graceful_shutdown_drains_pending_publishes():
    async def run():
        server, client = await _serve(
            [(("a",), 1)],
            ingress_batch_size=256,
            batch_deadline_s=0.1,
            max_deadline_s=0.2,
        )
        try:
            pending = asyncio.get_running_loop().create_task(client.publish(["a"]))
            await asyncio.sleep(0.01)  # let it land in the batcher
            await server.shutdown()
            keys, _ = await pending
            assert keys == [1]
        finally:
            await client.close()

    asyncio.run(run())


def test_unconsolidated_engine_is_rejected():
    engine = TagMatch(ENGINE_CONFIG)
    engine.add_set({"a"}, key=1)
    with pytest.raises(Exception):
        MatchServer(engine, _config())
    engine.close()


def test_bad_requests_get_error_replies_not_disconnects():
    async def run():
        server, client = await _serve([(("a",), 1)])
        try:
            reply = await client.request("pub", tags=[])
            assert reply["ok"] is False and "bad_request" in reply["error"]
            reply = await client.request("frobnicate")
            assert reply["ok"] is False
            reply = await client.request("sub", tags=["x"])  # missing key
            assert reply["ok"] is False
            await client.ping()  # connection still healthy
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_out_of_range_key_is_rejected_and_server_keeps_serving():
    async def run():
        server, client = await _serve([(("a",), 1)])
        try:
            for verb in ("sub", "unsub"):
                for key in (2**70, 2**63, -(2**63) - 1):
                    reply = await client.request(verb, tags=["a"], key=key)
                    assert reply["ok"] is False and "bad_request" in reply["error"]
            # The delta store was never touched, so publishes still answer.
            keys, _ = await asyncio.wait_for(client.publish(["a"]), timeout=5.0)
            assert keys == [1]
            await client.subscribe(["a"], key=2**63 - 1)
            await client.subscribe(["a"], key=-(2**63))
            keys, _ = await asyncio.wait_for(client.publish(["a"]), timeout=5.0)
            assert sorted(keys) == [-(2**63), 1, 2**63 - 1]
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_failed_delta_snapshot_replies_and_releases_the_ticket(monkeypatch):
    async def run():
        server, client = await _serve([(("a",), 1)], conn_inflight=1)
        try:
            def broken_view():
                raise RuntimeError("snapshot failed")

            monkeypatch.setattr(server.delta, "view", broken_view)
            reply = await asyncio.wait_for(
                client.request("pub", tags=["a"]), timeout=5.0
            )
            assert reply["ok"] is False and "match_failed" in reply["error"]
            assert server._inflight == 0
            assert server._idle.is_set()
            (conn,) = server._conns
            assert not conn.sem.locked()  # the one permit came back
            monkeypatch.undo()
            keys, _ = await asyncio.wait_for(client.publish(["a"]), timeout=5.0)
            assert keys == [1]
        finally:
            await client.close()
            await asyncio.wait_for(server.shutdown(), timeout=10.0)

    asyncio.run(run())
