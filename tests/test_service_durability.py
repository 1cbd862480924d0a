"""Durability layer: spool framing, tail logs, checkpoints, graceful shutdown.

The contract under test (``docs/fault-tolerance.rst``): **no acked
observation is ever lost**.  Checkpoints are written atomically with a
CRC-32 integrity frame into each stream's checkpoint index; the write-ahead
tail is fsynced before a batch mutates the detector; a truncated or corrupt
tail record ends the scan without losing the valid prefix; a corrupt newest
checkpoint falls back to its predecessor with a complete replay window.
"""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro import api
from repro.api.checkpoint import FRAME_MAGIC, read_payload_file, write_payload_file
from repro.service import (
    DurabilityConfig,
    DurabilityManager,
    SegmentationService,
    ServiceClient,
    StreamRegistry,
)
from repro.service.durability import StreamSpool
from repro.storage.eventlog import encode_frame
from repro.utils.exceptions import ConfigurationError, CorruptCheckpointError

CONFIG = {"window_size": 200, "scoring_interval": 5}


def _values(n, seed=0):
    return np.random.default_rng(seed).normal(0.0, 1.0, n)


class TestPayloadFileFraming:
    def test_round_trip_and_atomic_write(self, tmp_path):
        path = tmp_path / "state.ckpt"
        payload = {"answer": 42, "array": np.arange(5)}
        write_payload_file(path, payload)
        assert path.read_bytes().startswith(FRAME_MAGIC)
        assert not list(tmp_path.glob("*.tmp"))  # tmp file was renamed away
        loaded = read_payload_file(path)
        assert loaded["answer"] == 42
        np.testing.assert_array_equal(loaded["array"], np.arange(5))

    def test_corrupt_body_is_detected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_payload_file(path, {"x": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError):
            read_payload_file(path)

    def test_bad_magic_is_detected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CorruptCheckpointError):
            read_payload_file(path)

    def test_save_checkpoint_files_remain_loadable(self, tmp_path):
        """The CLI checkpoint path uses the same framed format."""
        segmenter = api.create("class", api.ClaSSConfig(**CONFIG))
        segmenter.process(_values(300))
        path = tmp_path / "segmenter.ckpt"
        api.save_checkpoint(segmenter, path)
        assert path.read_bytes().startswith(FRAME_MAGIC)
        resumed = api.load_checkpoint(path)
        assert resumed.n_seen == 300

    def test_legacy_raw_pickle_checkpoints_still_load(self, tmp_path):
        """Pre-framing checkpoint files (bare pickle) keep working."""
        import pickle

        segmenter = api.create("class", api.ClaSSConfig(**CONFIG))
        segmenter.process(_values(250))
        path = tmp_path / "legacy.ckpt"
        path.write_bytes(pickle.dumps(segmenter.save_state(), protocol=pickle.HIGHEST_PROTOCOL))
        assert api.load_checkpoint(path).n_seen == 250


class TestStreamSpoolTail:
    def test_tail_round_trip(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        batches = [(_values(50, seed=i), i) for i in range(4)]
        start = 0
        for values, seq in batches:
            spool.append_tail(start, values, seq)
            start += len(values)
        records = spool.read_tail()
        assert [record["start"] for record in records] == [0, 50, 100, 150]
        assert [record["seq"] for record in records] == [0, 1, 2, 3]
        for record, (values, _) in zip(records, batches):
            np.testing.assert_array_equal(record["values"], values)

    def test_tail_uses_the_event_log_frame(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        spool.append_tail(0, _values(5), 7)
        raw = spool.tail_path.read_bytes()
        assert raw == encode_frame(raw[8:])  # u32 length | u32 CRC-32, little-endian

    def test_corrupt_record_truncates_scan_keeping_valid_prefix(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        for i in range(3):
            spool.append_tail(i * 10, _values(10, seed=i), i)
        raw = bytearray(spool.tail_path.read_bytes())
        raw[-5] ^= 0xFF  # damage the last record's body
        spool.tail_path.write_bytes(bytes(raw))
        records = spool.read_tail()
        assert [record["seq"] for record in records] == [0, 1]

    def test_truncated_trailing_record_is_dropped(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        for i in range(2):
            spool.append_tail(i * 10, _values(10, seed=i), i)
        raw = spool.tail_path.read_bytes()
        spool.tail_path.write_bytes(raw[:-7])  # simulated crash mid-append
        assert [record["seq"] for record in spool.read_tail()] == [0]

    def test_compact_drops_records_before_min_start(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        for i in range(5):
            spool.append_tail(i * 100, _values(100, seed=i), i)
        spool.compact_tail(min_start=300)
        assert [record["start"] for record in spool.read_tail()] == [300, 400]

    def test_empty_tail_reads_empty(self, tmp_path):
        assert StreamSpool(tmp_path / "fresh").read_tail() == []


class TestStreamSpoolCheckpoints:
    def _checkpoint(self, spool, n_seen):
        segmenter = api.create("class", api.ClaSSConfig(**CONFIG))
        if n_seen:
            segmenter.process(_values(n_seen))
        return spool.write_checkpoint(segmenter, detector="class", config=CONFIG)

    def test_snapshots_live_in_the_checkpoint_index(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        path = self._checkpoint(spool, 300)
        assert path == tmp_path / "s1" / "checkpoints" / "ckpt-000000000300.ckpt"
        assert spool.checkpoints.positions() == [300]
        assert spool.last_checkpoint_n == 300

    def test_latest_valid_checkpoint_wins(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        for n in (0, 300, 600):
            self._checkpoint(spool, n)
        assert spool.checkpoints.latest()["n_seen"] == 600

    def test_corrupt_newest_falls_back_to_predecessor(self, tmp_path):
        spool = StreamSpool(tmp_path / "s1")
        self._checkpoint(spool, 300)
        newest = self._checkpoint(spool, 600)
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        newest.write_bytes(bytes(raw))
        envelope = spool.checkpoints.latest()
        assert envelope["n_seen"] == 300
        assert api.restore(envelope["state"]).n_seen == 300

    def test_all_corrupt_raises(self, tmp_path):
        manager = DurabilityManager(DurabilityConfig(tmp_path, fsync=False))
        stream = StreamRegistry(1).create_stream("s1", {"config": CONFIG})
        manager.register(stream)
        (path,) = manager.spool_for("s1").checkpoints.directory.iterdir()
        path.write_bytes(b"garbage")
        with pytest.raises(CorruptCheckpointError):
            manager.recover(stream)


class TestDurabilityManager:
    def _manager(self, tmp_path, **overrides):
        settings = dict(spool_dir=tmp_path, checkpoint_every_n=100,
                        checkpoint_every_seconds=None, fsync=False)
        settings.update(overrides)
        return DurabilityManager(DurabilityConfig(**settings))

    def _stream(self, manager):
        registry = StreamRegistry(2)
        stream = registry.create_stream("s1", {"config": CONFIG})
        manager.register(stream)
        return stream

    def test_register_writes_meta_and_birth_checkpoint(self, tmp_path):
        manager = self._manager(tmp_path)
        self._stream(manager)
        spool_dir = tmp_path / "streams" / "s1"
        assert (spool_dir / "meta.json").exists()
        assert (spool_dir / "checkpoints" / "ckpt-000000000000.ckpt").exists()

    def test_observation_count_trigger(self, tmp_path):
        manager = self._manager(tmp_path, checkpoint_every_n=100)
        stream = self._stream(manager)
        stream.segmenter.process(_values(60))
        assert manager.maybe_checkpoint(stream) is False
        stream.segmenter.process(_values(60))
        assert manager.maybe_checkpoint(stream) is True  # 120 >= 100 since last
        assert manager.spool_for("s1").checkpoints.positions()[-1] == 120

    def test_wall_clock_trigger_needs_progress(self, tmp_path):
        manager = self._manager(tmp_path, checkpoint_every_n=10**9,
                                checkpoint_every_seconds=0.01)
        stream = self._stream(manager)
        spool = manager.spool_for("s1")
        spool.last_checkpoint_time -= 1.0  # pretend the clock trigger is due
        assert manager.maybe_checkpoint(stream) is False  # no new observations
        stream.segmenter.process(_values(5))
        spool.last_checkpoint_time -= 1.0
        assert manager.maybe_checkpoint(stream) is True

    def test_checkpoint_prunes_and_compacts_to_fallback_window(self, tmp_path):
        manager = self._manager(tmp_path, checkpoint_every_n=100)
        stream = self._stream(manager)
        for i in range(4):
            values = _values(100, seed=i)
            manager.log_batch(stream, values, seq=i)
            stream.segmenter.process(values)
            stream.last_seq = i
            manager.maybe_checkpoint(stream)
        spool = manager.spool_for("s1")
        assert spool.checkpoints.positions() == [300, 400]
        # the tail still covers everything past the *oldest* retained
        # checkpoint, so corrupt-newest fallback has a complete window
        assert [record["start"] for record in spool.read_tail()] == [300]

    def test_checkpoint_skips_frozen_stream(self, tmp_path):
        manager = self._manager(tmp_path)
        stream = self._stream(manager)
        stream.segmenter = None  # frozen: state travels in the checkpoint payload
        assert manager.checkpoint(stream) is None

    def test_discard_removes_spool(self, tmp_path):
        manager = self._manager(tmp_path)
        self._stream(manager)
        assert (tmp_path / "streams" / "s1").exists()
        manager.discard("s1")
        assert not (tmp_path / "streams" / "s1").exists()

    def test_register_clears_a_spool_left_by_an_earlier_run(self, tmp_path):
        """Two managers on one spool dir: a graceful shutdown leaves the first
        run's spool behind, and the new stream of the same name must recover
        its own detector, not the old one."""
        earlier = self._manager(tmp_path)
        old = self._stream(earlier)
        for i in range(3):
            values = _values(100, seed=i)
            earlier.log_batch(old, values, seq=i)
            old.segmenter.process(values)
            earlier.maybe_checkpoint(old)
        earlier.checkpoint(old)  # the shutdown checkpoint
        earlier.spool_for("s1").close()

        manager = self._manager(tmp_path)
        stream = self._stream(manager)
        values = _values(30, seed=9)
        manager.log_batch(stream, values, seq=0)
        stream.segmenter.process(values[:10])  # crash mid-batch
        report = manager.recover(stream)
        assert report.checkpoint_n_seen == 0 and report.fell_back is False
        assert int(stream.segmenter.n_seen) == 30
        assert manager.spool_for("s1").checkpoints.positions() == [0]
        assert [record["seq"] for record in manager.spool_for("s1").read_tail()] == [0]

    def test_recovery_skips_a_dropped_batch_inside_the_snapshot(self, tmp_path):
        """Tail records are keyed by stored row: a batch a skip policy dropped
        whole leaves ``n_seen`` where it was, yet lies inside a snapshot
        taken after it and must not be replayed twice."""
        policy = {"nan_policy": "skip"}
        values = _values(1_200, seed=4)
        batches = [values[:300], np.full(50, np.nan), values[300:600], values[600:]]
        offline = api.create("class", {**CONFIG, "data_policy": policy})
        for batch in batches:
            offline.process(batch)

        manager = self._manager(tmp_path, checkpoint_every_n=10**9,
                                checkpoint_every_seconds=1.0)
        stream = StreamRegistry(1).create_stream(
            "s1", {"config": CONFIG, "data_policy": policy}
        )
        manager.register(stream)
        for seq, batch in enumerate(batches[:2]):
            manager.log_batch(stream, batch, seq)
            stream.segmenter.process(batch)
            stream.commit_batch(stream.segmenter, len(batch), 0.0, seq)
        manager.spool_for("s1").last_checkpoint_time -= 10.0  # clock trigger due
        assert manager.maybe_checkpoint(stream) is True  # n_seen 300, row 350
        manager.log_batch(stream, batches[2], 2)
        stream.segmenter.process(batches[2][:100])  # crash mid-batch
        report = manager.recover(stream)
        assert report.checkpoint_n_seen == 300 and report.n_replayed_batches == 1
        assert stream.segmenter.n_seen_raw == 650
        stream.segmenter.process(batches[3])
        assert stream.segmenter.events() == offline.events()

    def test_checkpoint_age_reporting(self, tmp_path):
        manager = self._manager(tmp_path)
        assert manager.checkpoint_age("nope") is None
        self._stream(manager)
        age = manager.checkpoint_age("s1")
        assert age is not None and 0 <= age < 5


class TestDurabilityConfigValidation:
    def test_rejects_bad_settings(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(tmp_path, checkpoint_every_n=0).validate()
        with pytest.raises(ConfigurationError):
            DurabilityConfig(tmp_path, checkpoint_every_seconds=-1.0).validate()

    def test_manager_validates_on_construction(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurabilityManager(DurabilityConfig(tmp_path, checkpoint_every_n=0))


class TestGracefulShutdown:
    def test_shutdown_drains_and_checkpoints_every_stream(self, tmp_path):
        async def scenario():
            service = SegmentationService(
                n_shards=2,
                durability=DurabilityConfig(
                    spool_dir=tmp_path, checkpoint_every_n=10**9, fsync=False
                ),
            )
            await service.start(port=0)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                for name in ("a", "b"):
                    await client.request("POST", f"/streams/{name}", {"config": CONFIG})
                    status, _ = await client.request(
                        "POST", f"/streams/{name}/observations",
                        {"values": _values(500).tolist()},
                    )
                    assert status == 200
            finally:
                await client.close()
            await service.shutdown()
            assert service.routes.draining is True
            return service

        service = asyncio.run(scenario())
        for name in ("a", "b"):
            spool = service.durability.spool_for(name)
            # the final checkpoint pins the full 500 acked observations
            assert spool.checkpoints.positions()[-1] == 500

    def test_draining_service_sheds_intake_with_typed_503(self, tmp_path):
        async def scenario():
            service = SegmentationService(n_shards=1)
            await service.start(port=0)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                await client.request("POST", "/streams/d", {"config": CONFIG})
                service.routes.draining = True
                status, body = await client.request(
                    "POST", "/streams/d/observations", {"values": [0.1]}
                )
                pytest.fail(f"expected ServiceUnavailableError, got {status} {body}")
            except Exception as error:
                return error
            finally:
                await client.close()
                await service.stop()

        from repro.service import ServiceUnavailableError

        error = asyncio.run(scenario())
        assert isinstance(error, ServiceUnavailableError)
        assert error.code == "shutting-down"
        assert error.retry_after == 1.0

    @pytest.mark.skipif(os.name != "posix", reason="POSIX signal delivery")
    def test_sigint_triggers_graceful_shutdown(self, tmp_path):
        """``serve_forever`` catches SIGINT, drains, checkpoints and returns."""

        async def scenario():
            service = SegmentationService(
                n_shards=1,
                durability=DurabilityConfig(
                    spool_dir=tmp_path, checkpoint_every_n=10**9, fsync=False
                ),
            )
            serving = asyncio.create_task(service.serve_forever(host="127.0.0.1", port=0))
            while service.port == 0:
                await asyncio.sleep(0.01)
            client = await ServiceClient("127.0.0.1", service.port).connect()
            try:
                await client.request("POST", "/streams/sig", {"config": CONFIG})
                await client.request(
                    "POST", "/streams/sig/observations", {"values": _values(300).tolist()}
                )
            finally:
                await client.close()
            os.kill(os.getpid(), signal.SIGINT)
            await asyncio.wait_for(serving, timeout=10)  # returns, no KeyboardInterrupt
            return service

        service = asyncio.run(scenario())
        spool = service.durability.spool_for("sig")
        assert spool.checkpoints.positions()[-1] == 300
