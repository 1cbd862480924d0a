"""Integration: the service is bit-identical to offline ``api.stream()``.

The tentpole acceptance test (ISSUE 7): N concurrent client streams served
through ``repro.service`` must produce exactly the change points, scores and
p-values of an offline :func:`repro.api.stream` run over the same data —
including across a mid-stream freeze → checkpoint → rebalance-to-another-
worker → resume, which exercises the full elastic-rebalancing path (the
state payload is pickle round-tripped, i.e. genuinely shipped).
"""

import asyncio
import json

import numpy as np
import pytest

from repro import api
from repro.datasets import SegmentSpec, compose_stream
from repro.service import SegmentationService, ServiceClient
from repro.utils.parallel import shard_for_key

N_SHARDS = 3
CONFIG = {"window_size": 200, "scoring_interval": 5}


def _dataset(seed: int) -> np.ndarray:
    """A three-regime stream with two true change points."""
    specs = [
        SegmentSpec("sine", 400, {"period": 20, "noise": 0.05}, label="slow"),
        SegmentSpec("square", 400, {"period": 50, "noise": 0.05}, label="cycling"),
        SegmentSpec("sine", 400, {"period": 8, "noise": 0.05}, label="fast"),
    ]
    return compose_stream(specs, name=f"stream-{seed}", seed=seed).values


def _offline_events(values: np.ndarray) -> list[dict]:
    """The ground truth: offline api.stream() events as JSON payloads."""
    segmenter = api.create("class", api.ClaSSConfig(**CONFIG))
    events = list(api.stream(segmenter, values, chunk_size=256))
    # normalise through JSON exactly like the service does
    return [json.loads(json.dumps(event.to_dict())) for event in events]


async def _serve_stream(
    port: int, name: str, values: np.ndarray, batch_size: int, rebalance_at: int | None
) -> list[dict]:
    """Drive one stream through the service; optionally rebalance mid-stream."""
    client = await ServiceClient("127.0.0.1", port).connect()
    try:
        status, body = await client.request(
            "POST", f"/streams/{name}", {"detector": "class", "config": CONFIG}
        )
        assert status == 201, body
        for start in range(0, len(values), batch_size):
            if rebalance_at is not None and start >= rebalance_at:
                status, info = await client.request("GET", f"/streams/{name}")
                target = (info["shard"] + 1) % N_SHARDS
                status, body = await client.request(
                    "POST", f"/streams/{name}/rebalance", {"shard": target}
                )
                assert status == 200, body
                assert body["shard"] == target
                rebalance_at = None  # once
            batch = values[start : start + batch_size].tolist()
            status, body = await client.request(
                "POST", f"/streams/{name}/observations", {"values": batch}
            )
            assert status == 200, body
            await asyncio.sleep(0)  # interleave with the other clients
        status, body = await client.request("GET", f"/streams/{name}/events?since=0")
        assert status == 200
        return body["events"]
    finally:
        await client.close()


class TestServiceBitIdentity:
    def test_concurrent_streams_match_offline_including_rebalance(self):
        """Six concurrent clients; two rebalance mid-stream; all bit-identical."""
        datasets = {f"s{i}": _dataset(seed=i) for i in range(6)}
        offline = {name: _offline_events(values) for name, values in datasets.items()}

        async def scenario():
            service = SegmentationService(n_shards=N_SHARDS)
            await service.start(port=0)
            try:
                jobs = []
                for i, (name, values) in enumerate(datasets.items()):
                    # different batch sizes per client; two clients freeze +
                    # rebalance mid-stream (s1 mid-warm-up at n_seen=150 < 200,
                    # s4 after its first change point)
                    rebalance_at = {1: 150, 4: 700}.get(i)
                    jobs.append(
                        _serve_stream(
                            service.port, name, values, 120 + 30 * i, rebalance_at
                        )
                    )
                served = await asyncio.gather(*jobs)
                # shard routing must match the batch engine's CRC-32 partitioning
                for stream in service.registry.list_streams():
                    if stream.name not in ("s1", "s4"):  # not rebalanced
                        assert stream.shard == shard_for_key(stream.name, N_SHARDS)
                return dict(zip(datasets, served))
            finally:
                await service.stop()

        online = asyncio.run(scenario())
        for name, values in datasets.items():
            assert online[name] == offline[name], f"stream {name} diverged"
            # sanity: the workload actually produced detections to compare
            kinds = [event["kind"] for event in online[name]]
            assert "warmup" in kinds
        total_change_points = sum(
            1 for events in online.values() for event in events
            if event["kind"] == "change_point"
        )
        assert total_change_points >= 6  # 2 true change points per stream

    def test_freeze_resume_on_same_shard_is_bit_identical(self):
        """Freeze → checkpoint → resume without moving shards, mid-stream."""
        values = _dataset(seed=42)
        offline = _offline_events(values)

        async def scenario():
            service = SegmentationService(n_shards=2)
            await service.start(port=0)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                await client.request("POST", "/streams/fr", {"config": CONFIG})
                half = len(values) // 2
                await client.request(
                    "POST", "/streams/fr/observations", {"values": values[:half].tolist()}
                )
                status, body = await client.request("POST", "/streams/fr/freeze")
                assert status == 200 and body["frozen"] is True
                status, body = await client.request("POST", "/streams/fr/resume")
                assert status == 200 and body["n_seen"] == half
                await client.request(
                    "POST", "/streams/fr/observations", {"values": values[half:].tolist()}
                )
                status, body = await client.request("GET", "/streams/fr/events?since=0")
                return body["events"]
            finally:
                await client.close()
                await service.stop()

        assert asyncio.run(scenario()) == offline

    def test_websocket_ingest_matches_offline(self):
        """Observations pushed over the WebSocket produce identical events."""
        values = _dataset(seed=7)
        offline = _offline_events(values)

        async def scenario():
            service = SegmentationService(n_shards=2)
            await service.start(port=0)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                await client.request("POST", "/streams/ws", {"config": CONFIG})
                session = await client.open_websocket("/streams/ws/ws")
                collected = []
                for start in range(0, len(values), 300):
                    await session.send_json(
                        {"values": values[start : start + 300].tolist()}
                    )
                    while True:
                        message = await session.recv_json()
                        assert message is not None
                        if message["kind"] == "ack":
                            break
                        if message["kind"] == "error":
                            pytest.fail(f"websocket error: {message}")
                        collected.append(message)
                await session.close()
                return collected
            finally:
                await client.close()
                await service.stop()

        assert asyncio.run(scenario()) == offline
