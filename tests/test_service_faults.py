"""Chaos suite: injected crashes, hangs, corruption and connection drops.

The acceptance bar for the fault-tolerance work: after any injected fault —
a worker killed mid-batch, a corrupted newest checkpoint forcing recovery
to fall back one checkpoint and replay a longer tail, a hung job tripping
the per-job deadline, a severed WebSocket — the service recovers every
affected stream *automatically* and the observable event sequence is
bit-identical to an offline :func:`repro.api.stream` run over the same
data.  Clients ride through crashes with retry/backoff plus sequence-number
idempotency: every batch is acked exactly once.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import api
from repro.datasets import SegmentSpec, compose_stream
from repro.service import (
    DurabilityConfig,
    FaultInjector,
    RetryPolicy,
    SegmentationService,
    ServiceClient,
    ServiceUnavailableError,
    SupervisorConfig,
)
from repro.service.faults import Fault, WorkerCrash, parse_fault
from repro.utils.exceptions import ConfigurationError

CONFIG = {"window_size": 200, "scoring_interval": 5}
CHUNK = 100
BATCH = 300


def _dataset(seed: int) -> np.ndarray:
    specs = [
        SegmentSpec("sine", 600, {"period": 20, "noise": 0.05}, label="slow"),
        SegmentSpec("square", 600, {"period": 50, "noise": 0.05}, label="cycling"),
    ]
    return compose_stream(specs, name=f"chaos-{seed}", seed=seed).values


def _offline_events(values: np.ndarray) -> list[dict]:
    segmenter = api.create("class", api.ClaSSConfig(**CONFIG))
    events = list(api.stream(segmenter, values, chunk_size=CHUNK))
    return [json.loads(json.dumps(event.to_dict())) for event in events]


def _service(tmp_path, faults, **supervision):
    return SegmentationService(
        n_shards=2,
        durability=DurabilityConfig(
            spool_dir=tmp_path / "spool",
            checkpoint_every_n=BATCH,
            checkpoint_every_seconds=None,
            fsync=False,
        ),
        faults=faults,
        supervision=SupervisorConfig(**supervision),
    )


async def _drive(service, name, values, *, retry=None):
    """Create a stream and push it in seq-numbered batches; return its events."""
    client = await ServiceClient(
        "127.0.0.1", service.port, retry=retry or RetryPolicy(backoff=0.02)
    ).connect()
    try:
        status, body = await client.request(
            "POST", f"/streams/{name}",
            {"detector": "class", "config": CONFIG, "chunk_size": CHUNK},
        )
        assert status == 201, body
        for seq, start in enumerate(range(0, len(values), BATCH)):
            status, body = await client.request(
                "POST", f"/streams/{name}/observations",
                {"values": values[start : start + BATCH].tolist(), "seq": seq},
            )
            assert status == 200, body
        status, body = await client.request("GET", f"/streams/{name}/events?since=0")
        assert status == 200
        return body["events"], client.n_retries
    finally:
        await client.close()


class TestCrashRecoveryBitIdentity:
    def test_kill_worker_recovers_bit_identically(self, tmp_path):
        """A worker killed between jobs: restart + restore, identical events."""
        values = _dataset(seed=1)
        offline = _offline_events(values)

        async def scenario():
            faults = FaultInjector()
            faults.arm("kill-worker", stream="kw", after=3)
            service = _service(tmp_path, faults)
            await service.start(port=0)
            try:
                events, n_retries = await _drive(service, "kw", values)
                return events, n_retries, service.supervisor.snapshot(), faults.fired
            finally:
                await service.stop()

        events, n_retries, supervision, fired = asyncio.run(scenario())
        assert ("kill-worker", 0, "kw") in fired or ("kill-worker", 1, "kw") in fired
        assert events == offline
        assert supervision["worker_restarts"] == 1
        assert supervision["n_recoveries"] == 1
        assert supervision["last_recovery_seconds"] is not None
        assert n_retries >= 1  # the crashed batch was retried, not lost

    def test_kill_mid_batch_recovers_bit_identically(self, tmp_path):
        """The tentpole acceptance test: a crash *between ingestion chunks*
        leaves the in-memory detector half-mutated; recovery rebuilds it from
        the checkpoint + write-ahead tail and the retried batch lands as a
        replayed ack — the event log matches offline exactly."""
        values = _dataset(seed=2)
        offline = _offline_events(values)

        async def scenario():
            faults = FaultInjector()
            # batches are 3 chunks; mid-batch hook fires twice per batch.
            # after=5 → crash on batch 3's first chunk boundary.
            faults.arm("kill-mid-batch", stream="mb", after=5)
            service = _service(tmp_path, faults)
            await service.start(port=0)
            try:
                events, n_retries = await _drive(service, "mb", values)
                stream = service.registry.get("mb")
                return events, n_retries, service.supervisor.recoveries, int(
                    stream.segmenter.n_seen
                )
            finally:
                await service.stop()

        events, n_retries, recoveries, n_seen = asyncio.run(scenario())
        assert events == offline
        assert n_seen == len(values)
        assert n_retries >= 1
        assert len(recoveries) == 1
        report = recoveries[0]
        assert report.stream == "mb"
        assert report.n_replayed_observations >= BATCH  # the in-flight batch
        assert report.fell_back is False

    def test_corrupt_newest_checkpoint_falls_back_and_replays(self, tmp_path):
        """A corrupted newest checkpoint: recovery falls back one checkpoint
        and replays the longer tail window — still bit-identical."""
        values = _dataset(seed=3)
        offline = _offline_events(values)

        async def scenario():
            faults = FaultInjector()
            # checkpoint writes: birth (n=0), then one per batch.  Corrupt the
            # checkpoint after batch 2 (n=600), crash mid-batch 3: recovery
            # must fall back to the n=300 checkpoint and replay two batches.
            faults.arm("corrupt-checkpoint", stream="cc", after=3)
            faults.arm("kill-mid-batch", stream="cc", after=5)
            service = _service(tmp_path, faults)
            await service.start(port=0)
            try:
                events, _ = await _drive(service, "cc", values)
                return events, service.supervisor.recoveries, faults.fired
            finally:
                await service.stop()

        events, recoveries, fired = asyncio.run(scenario())
        assert ("corrupt-checkpoint", None, "cc") in fired
        assert events == offline
        assert len(recoveries) == 1
        report = recoveries[0]
        assert report.fell_back is True
        assert report.checkpoint_n_seen == 300
        assert report.n_replayed_observations >= 2 * BATCH

    def test_kill_mid_batch_on_the_adopting_shard_replays_across_the_move(self, tmp_path):
        """A move writes no checkpoint: the spool is keyed by stream name, and
        its tail holds every batch since the oldest retained snapshot.  With
        no checkpoint since birth, a crash in the adopting shard's first
        batch replays the whole tail across the move — still bit-identical."""
        values = _dataset(seed=8)
        offline = _offline_events(values)

        async def scenario():
            faults = FaultInjector()
            service = SegmentationService(
                n_shards=2,
                durability=DurabilityConfig(
                    spool_dir=tmp_path / "spool",
                    checkpoint_every_n=10**9,
                    checkpoint_every_seconds=None,
                    fsync=False,
                ),
                faults=faults,
            )
            await service.start(port=0)
            client = await ServiceClient(
                "127.0.0.1", service.port, retry=RetryPolicy(backoff=0.02)
            ).connect()
            try:
                status, body = await client.request(
                    "POST", "/streams/mv",
                    {"detector": "class", "config": CONFIG, "chunk_size": CHUNK},
                )
                assert status == 201, body
                target = 1 - service.registry.get("mv").shard
                for seq, start in enumerate(range(0, len(values), BATCH)):
                    if seq == 2:
                        status, body = await client.request(
                            "POST", "/streams/mv/rebalance", {"shard": target}
                        )
                        assert status == 200, body
                        faults.arm("kill-mid-batch", shard=target, stream="mv")
                    status, body = await client.request(
                        "POST", "/streams/mv/observations",
                        {"values": values[start : start + BATCH].tolist(), "seq": seq},
                    )
                    assert status == 200, body
                status, body = await client.request("GET", "/streams/mv/events?since=0")
                assert status == 200
                return body["events"], service.supervisor.recoveries, faults.fired, target
            finally:
                await client.close()
                await service.stop()

        events, recoveries, fired, target = asyncio.run(scenario())
        assert ("kill-mid-batch", target, "mv") in fired
        assert events == offline
        (report,) = recoveries
        assert report.checkpoint_n_seen == 0  # birth: the move wrote no checkpoint
        assert report.n_replayed_observations == 3 * BATCH
        assert report.fell_back is False

    def test_kill_mid_batch_under_a_skip_policy_recovers_from_the_newest_snapshot(
        self, tmp_path
    ):
        """A skip policy drops rows, so the newest snapshot's stored row lies
        beyond its ``n_seen``: recovery still anchors on it, not on an older
        one, and replays only the crashed batch."""
        policy = {"nan_policy": "skip"}
        values = _dataset(seed=9)
        values[100:120] = np.nan  # 20 rows of batch 0 are dropped
        segmenter = api.create("class", {**CONFIG, "data_policy": policy})
        offline = [
            json.loads(json.dumps(event.to_dict()))
            for event in api.stream(segmenter, values, chunk_size=CHUNK)
        ]

        async def scenario():
            faults = FaultInjector()
            # mid-batch hooks fire twice per batch: after=5 crashes batch 2,
            # after the snapshot batch 1 triggered (n_seen 580, row 600)
            faults.arm("kill-mid-batch", stream="sk", after=5)
            service = _service(tmp_path, faults)
            await service.start(port=0)
            client = await ServiceClient(
                "127.0.0.1", service.port, retry=RetryPolicy(backoff=0.02)
            ).connect()
            try:
                status, body = await client.request(
                    "POST", "/streams/sk",
                    {"config": CONFIG, "chunk_size": CHUNK, "data_policy": policy},
                )
                assert status == 201, body
                for seq, start in enumerate(range(0, len(values), BATCH)):
                    status, body = await client.request(
                        "POST", "/streams/sk/observations",
                        {"values": values[start : start + BATCH].tolist(), "seq": seq},
                    )
                    assert status == 200, body
                status, body = await client.request("GET", "/streams/sk/events?since=0")
                assert status == 200
                return body["events"], service.supervisor.recoveries
            finally:
                await client.close()
                await service.stop()

        events, recoveries = asyncio.run(scenario())
        assert events == offline
        (report,) = recoveries
        assert report.checkpoint_n_seen == 2 * BATCH - 20
        assert report.fell_back is False
        assert report.n_replayed_observations == BATCH

    def test_hung_job_trips_deadline_and_restarts(self, tmp_path):
        """A job delayed past the per-job deadline counts as a hang: the
        worker is declared dead, restarted, and the batch retried."""
        values = _dataset(seed=4)[:600]
        offline = _offline_events(values)

        async def scenario():
            faults = FaultInjector()
            faults.arm("delay", stream="hang", after=2, seconds=5.0)
            service = _service(tmp_path, faults, job_deadline=0.2)
            await service.start(port=0)
            try:
                events, n_retries = await _drive(service, "hang", values)
                return events, n_retries, service.supervisor.total_restarts
            finally:
                await service.stop()

        events, n_retries, restarts = asyncio.run(scenario())
        assert events == offline
        assert restarts == 1
        assert n_retries >= 1

    def test_crash_metrics_are_reported(self, tmp_path):
        """/metrics exposes restart counts, recovery stats and error counters."""
        values = _dataset(seed=5)[:600]

        async def scenario():
            faults = FaultInjector()
            faults.arm("kill-worker", stream="mx", after=2)
            service = _service(tmp_path, faults)
            await service.start(port=0)
            client = await ServiceClient(
                "127.0.0.1", service.port, retry=RetryPolicy(backoff=0.02)
            ).connect()
            try:
                await _drive(service, "mx", values)
                status, metrics = await client.request("GET", "/metrics")
                assert status == 200
                return metrics, service.registry.get("mx").shard
            finally:
                await client.close()
                await service.stop()

        metrics, shard = asyncio.run(scenario())
        assert metrics["worker_restarts"] == 1
        assert metrics["restarts_per_shard"][shard] == 1
        assert metrics["n_recoveries"] == 1
        assert metrics["errors"].get("worker-crashed") == 1
        worker = next(w for w in metrics["workers"] if w["shard"] == shard)
        assert worker["restarts"] == 1
        assert worker["last_checkpoint_age_seconds"] is not None
        assert metrics["streams"]["mx"]["last_checkpoint_age_seconds"] is not None


class TestSequenceIdempotency:
    def test_duplicate_seq_replays_ack_and_older_seq_conflicts(self, tmp_path):
        async def scenario():
            service = SegmentationService(n_shards=1)
            await service.start(port=0)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                await client.request("POST", "/streams/seq", {"config": CONFIG})
                batch = {"values": _dataset(seed=6)[:300].tolist(), "seq": 0}
                status, first = await client.request(
                    "POST", "/streams/seq/observations", batch
                )
                assert status == 200 and first["n_seen"] == 300
                # exact duplicate: replayed ack, no double ingestion
                status, dup = await client.request(
                    "POST", "/streams/seq/observations", batch
                )
                assert status == 200
                assert dup["replayed"] is True
                assert dup["n_seen"] == 300
                assert dup["events"] == first["events"]
                # push seq 1, then retry seq 0 again: now it is *stale*
                status, _ = await client.request(
                    "POST", "/streams/seq/observations",
                    {"values": [0.5] * 10, "seq": 1},
                )
                assert status == 200
                status, body = await client.request(
                    "POST", "/streams/seq/observations", batch
                )
                assert status == 409
                assert body["error"]["code"] == "stale-sequence"
                # a malformed sequence number is a typed 400
                status, body = await client.request(
                    "POST", "/streams/seq/observations",
                    {"values": [0.1], "seq": -3},
                )
                assert status == 400
                assert body["error"]["code"] == "bad-sequence"
                return int(service.registry.get("seq").segmenter.n_seen)
            finally:
                await client.close()
                await service.stop()

        assert asyncio.run(scenario()) == 310  # 300 + 10, duplicates ignored

    def test_websocket_ingest_honours_sequence_numbers(self, tmp_path):
        async def scenario():
            service = SegmentationService(n_shards=1)
            await service.start(port=0)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                await client.request("POST", "/streams/wseq", {"config": CONFIG})
                session = await client.open_websocket("/streams/wseq/ws")
                await session.send_json({"values": [0.1, 0.2], "seq": 0})
                ack = await session.recv_json()
                assert ack == {"kind": "ack", "n_seen": 2, "seq": 0}
                await session.send_json({"values": [0.1, 0.2], "seq": 0})
                replay = await session.recv_json()
                assert replay["replayed"] is True and replay["n_seen"] == 2
                await session.close()
                return int(service.registry.get("wseq").segmenter.n_seen)
            finally:
                await client.close()
                await service.stop()

        assert asyncio.run(scenario()) == 2


class TestLoadShedding:
    def test_full_queue_sheds_with_503_and_retry_after(self, tmp_path):
        async def scenario():
            faults = FaultInjector()
            faults.arm("delay", stream="sh", seconds=0.6)  # occupy the worker
            service = SegmentationService(
                n_shards=1,
                faults=faults,
                supervision=SupervisorConfig(max_queue_depth=1, retry_after=0.07),
            )
            await service.start(port=0)
            clients = [
                await ServiceClient(
                    "127.0.0.1", service.port, retry=RetryPolicy(retries=0)
                ).connect()
                for _ in range(3)
            ]
            try:
                await clients[0].request("POST", "/streams/sh", {"config": CONFIG})
                blocked = asyncio.create_task(  # held by the delay fault
                    clients[0].request(
                        "POST", "/streams/sh/observations", {"values": [0.1]}
                    )
                )
                await asyncio.sleep(0.1)  # worker now sleeping inside the job
                queued = asyncio.create_task(  # fills the depth-1 queue
                    clients[1].request(
                        "POST", "/streams/sh/observations", {"values": [0.2]}
                    )
                )
                await asyncio.sleep(0.1)
                with pytest.raises(ServiceUnavailableError) as caught:
                    await clients[2].request(
                        "POST", "/streams/sh/observations", {"values": [0.3]}
                    )
                # both held requests complete once the delay elapses
                assert (await blocked)[0] == 200
                assert (await queued)[0] == 200
                return caught.value
            finally:
                for client in clients:
                    await client.close()
                await service.stop()

        error = asyncio.run(scenario())
        assert error.status == 503
        assert error.code == "overloaded"
        assert error.retry_after == pytest.approx(0.07)

    def test_client_retries_through_backpressure(self, tmp_path):
        """With retries enabled the same shedding is invisible to the caller."""

        async def scenario():
            faults = FaultInjector()
            faults.arm("delay", stream="bp", seconds=0.3)
            service = SegmentationService(
                n_shards=1,
                faults=faults,
                supervision=SupervisorConfig(max_queue_depth=1, retry_after=0.05),
            )
            await service.start(port=0)
            clients = [
                await ServiceClient(
                    "127.0.0.1", service.port,
                    retry=RetryPolicy(retries=6, backoff=0.05),
                ).connect()
                for _ in range(3)
            ]
            try:
                await clients[0].request("POST", "/streams/bp", {"config": CONFIG})
                pushes = [
                    asyncio.create_task(
                        client.request(
                            "POST", "/streams/bp/observations",
                            {"values": [0.1 * (i + 1)], "seq": None},
                        )
                    )
                    for i, client in enumerate(clients)
                ]
                outcomes = await asyncio.gather(*pushes)
                return outcomes, int(service.registry.get("bp").segmenter.n_seen)
            finally:
                for client in clients:
                    await client.close()
                await service.stop()

        outcomes, n_seen = asyncio.run(scenario())
        assert all(status == 200 for status, _ in outcomes)
        assert n_seen == 3


class TestWebSocketDropAndResume:
    def test_dropped_socket_resumes_without_loss_or_duplication(self, tmp_path):
        values = _dataset(seed=7)
        offline = _offline_events(values)

        async def scenario():
            faults = FaultInjector()
            service = _service(tmp_path, faults)
            await service.start(port=0)
            client = await ServiceClient(
                "127.0.0.1", service.port, retry=RetryPolicy(backoff=0.02)
            ).connect()
            try:
                await client.request(
                    "POST", "/streams/dw",
                    {"detector": "class", "config": CONFIG, "chunk_size": CHUNK},
                )
                session = await client.open_stream("dw")
                collected = []
                half = len(values) // 2
                for seq, start in enumerate(range(0, half, BATCH)):
                    await session.send_json(
                        {"values": values[start : start + BATCH].tolist(), "seq": seq}
                    )
                    while True:
                        message = await session.recv_json()
                        assert message is not None
                        if message["kind"] == "ack":
                            break
                        collected.append(message)
                # sever the link abruptly on the next inbound frame
                faults.arm("drop-ws", stream="dw")
                await session.send_json({"values": values[half : half + 1].tolist()})
                assert await session.recv_json() is None  # connection died
                # resume from the delivered-event cursor; re-push the rest
                session = await client.resume_stream(session)
                next_seq = half // BATCH
                for seq, start in enumerate(range(half, len(values), BATCH), next_seq):
                    await session.send_json(
                        {"values": values[start : start + BATCH].tolist(), "seq": seq}
                    )
                    while True:
                        message = await session.recv_json()
                        assert message is not None
                        if message["kind"] == "ack":
                            break
                        collected.append(message)
                await session.close()
                return collected, faults.fired
            finally:
                await client.close()
                await service.stop()

        collected, fired = asyncio.run(scenario())
        assert ("drop-ws", None, "dw") in fired
        assert collected == offline


class TestFaultSpecs:
    def test_parse_fault_grammar(self):
        fault = parse_fault("kill-mid-batch:stream=s1:after=3:times=2")
        assert fault.kind == "kill-mid-batch"
        assert fault.stream == "s1" and fault.after == 3 and fault.times == 2
        delay = parse_fault("delay:shard=1:seconds=2.5")
        assert delay.shard == 1 and delay.seconds == 2.5

    def test_parse_fault_rejects_bad_specs(self):
        for spec in ("explode", "delay:seconds=fast", "delay:color=red", "delay:nope"):
            with pytest.raises(ConfigurationError):
                parse_fault(spec)

    def test_from_env_builds_injector(self):
        injector = FaultInjector.from_env(
            {"REPRO_FAULTS": "kill-worker:shard=0, delay:seconds=1"}
        )
        assert [fault.kind for fault in injector.faults] == ["kill-worker", "delay"]
        assert FaultInjector.from_env({}) is None
        assert FaultInjector.from_env({"REPRO_FAULTS": "  "}) is None

    def test_fault_counting_and_selectors(self):
        fault = Fault("kill-worker", shard=1, after=2, times=1)
        assert fault.should_fire(0, None) is False  # selector mismatch
        assert fault.should_fire(1, None) is False  # 1st match, after=2
        assert fault.should_fire(1, None) is True   # 2nd match fires
        assert fault.should_fire(1, None) is False  # times exhausted

    def test_unmatched_hooks_are_noops(self):
        injector = FaultInjector()
        injector.arm("kill-mid-batch", stream="s1")
        injector.mid_batch(0, "other")  # no raise
        assert injector.fired == []
        with pytest.raises(WorkerCrash):
            injector.mid_batch(0, "s1")
