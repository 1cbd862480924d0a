"""Bounded service event history: memory window, disk spill, typed 410.

ISSUE 9 satellite: the service's per-stream in-memory event history is
bounded by spilling older events to the storage event log, so long-lived
streams no longer grow without limit while old ``?since=`` cursors are
still served (from disk).  Without a spill directory the bound still
holds, and an evicted cursor comes back as a typed 410
``history-truncated`` carrying the oldest cursor that still works.
"""

import asyncio
from pathlib import Path

import pytest

from repro.service import DurabilityConfig, SegmentationService, ServiceClient
from repro.service.streams import StreamRegistry
from repro.storage import StreamHistory
from repro.utils.exceptions import ConfigurationError, HistoryTruncatedError


def _run(coro):
    return asyncio.run(coro)


async def _with_service(fn, **kwargs):
    service = SegmentationService(n_shards=kwargs.pop("n_shards", 1), **kwargs)
    await service.start(port=0)
    client = await ServiceClient("127.0.0.1", service.port).connect()
    try:
        return await fn(client, service)
    finally:
        await client.close()
        await service.stop()


def _events(n):
    return [{"kind": "score", "at": i, "score": float(i)} for i in range(n)]


# --------------------------------------------------------------------------- #
# StreamHistory unit behaviour
# --------------------------------------------------------------------------- #


class TestStreamHistory:
    def test_unbounded_window_keeps_everything(self):
        history = StreamHistory(window=None)
        assert history.append(_events(50)) == 50
        events, cursor = history.read_since(0)
        assert len(events) == 50 and cursor == 50
        assert history.info()["spilled"] == 0

    def test_window_without_spill_truncates(self):
        history = StreamHistory(window=8)
        history.append(_events(20))
        assert len(history) == 20
        assert history.earliest == 12
        tail, cursor = history.read_since(15)
        assert [e["at"] for e in tail] == [15, 16, 17, 18, 19]
        assert cursor == 20
        with pytest.raises(HistoryTruncatedError) as excinfo:
            history.read_since(3)
        assert excinfo.value.earliest == 12

    def test_window_with_spill_serves_full_history(self, tmp_path):
        history = StreamHistory(window=8, spill_path=tmp_path / "s.events.log")
        history.append(_events(20))
        assert history.earliest == 0
        assert history.n_spilled == 12
        events, cursor = history.read_since(0)
        assert [e["at"] for e in events] == list(range(20))
        assert cursor == 20
        # a cursor straddling the spill/memory boundary also works
        middle, _ = history.read_since(10)
        assert [e["at"] for e in middle] == list(range(10, 20))
        assert history.snapshot() == events
        history.close()

    def test_non_monotone_ats_spill_without_error(self, tmp_path):
        history = StreamHistory(window=2, spill_path=tmp_path / "s.events.log")
        history.append([{"kind": "score", "at": 100}, {"kind": "warmup"}, {"at": 7}])
        history.append(_events(3))
        events, _ = history.read_since(0)
        assert len(events) == 6  # clamped ats, nothing dropped or raised
        history.close()

    def test_discard_removes_spill_files(self, tmp_path):
        spill = tmp_path / "s.events.log"
        history = StreamHistory(window=2, spill_path=spill)
        history.append(_events(10))
        assert spill.exists()
        history.discard()
        assert not spill.exists()
        assert not spill.with_name(spill.name + ".idx").exists()

    def test_registry_validates_history_window(self):
        with pytest.raises(ConfigurationError, match="history_window"):
            StreamRegistry(1, history_window=0)
        with pytest.raises(ConfigurationError, match="history_window"):
            StreamRegistry(1, history_window=True)


# --------------------------------------------------------------------------- #
# service integration: spill-backed replay and typed 410
# --------------------------------------------------------------------------- #


async def _ingest_events(client, n_values=400):
    """Create a stream, push values, return every fresh event the acks saw.

    Uses page-hinkley over a mean that flips every 25 observations, so each
    flip emits a change point — far more events than the 4-event window.
    """
    await client.request("POST", "/streams/s1", {"detector": "page-hinkley"})
    seen = []
    for start in range(0, n_values, 100):
        values = [float(((start + i) // 25) % 2) * 8.0 for i in range(100)]
        status, body = await client.request(
            "POST", "/streams/s1/observations", {"values": values}
        )
        assert status == 200
        seen.extend(body["events"])
    return seen


class TestServiceBoundedHistory:
    def test_old_cursor_served_from_spill(self, tmp_path):
        async def scenario(client, service):
            seen = await _ingest_events(client)
            assert len(seen) > 4  # the window is smaller than the history

            status, info = await client.request("GET", "/streams/s1")
            assert info["n_events"] == len(seen)  # total, not just in-memory

            status, body = await client.request("GET", "/streams/s1/events?since=0")
            assert status == 200
            assert body["events"] == seen  # full replay crosses the spill
            assert body["next"] == len(seen)

            spill = Path(tmp_path / "history" / "s1.events.log")
            assert spill.exists() and spill.stat().st_size > 0

        _run(
            _with_service(
                scenario, history_window=4, history_dir=str(tmp_path / "history")
            )
        )

    def test_truncated_cursor_is_typed_410_without_spill(self):
        async def scenario(client, service):
            seen = await _ingest_events(client)
            status, body = await client.request("GET", "/streams/s1/events?since=0")
            assert status == 410
            assert body["error"]["code"] == "history-truncated"
            earliest = body["error"]["detail"]["earliest"]
            assert earliest == len(seen) - 4
            # the advertised earliest cursor really does work
            status, body = await client.request(
                "GET", f"/streams/s1/events?since={earliest}"
            )
            assert status == 200
            assert body["events"] == seen[earliest:]

            # and the service is still fully alive after the 410
            status, _ = await client.request("GET", "/healthz")
            assert status == 200

        _run(_with_service(scenario, history_window=4))

    def test_ws_replay_from_spill(self, tmp_path):
        async def scenario(client, service):
            seen = await _ingest_events(client)
            session = await client.open_websocket("/streams/s1/ws?since=0")
            for expected in seen:  # replay spans disk + memory, in order
                assert await session.recv_json() == expected
            await session.close()

        _run(
            _with_service(
                scenario, history_window=4, history_dir=str(tmp_path / "history")
            )
        )

    def test_ws_truncated_cursor_rejected_without_spill(self):
        async def scenario(client, service):
            from repro.service.protocol import ProtocolError

            await _ingest_events(client)
            with pytest.raises(ProtocolError, match="history-truncated"):
                await client.open_websocket("/streams/s1/ws?since=0")

        _run(_with_service(scenario, history_window=4))

    def test_delete_stream_removes_spill_files(self, tmp_path):
        async def scenario(client, service):
            await _ingest_events(client)
            spill = Path(tmp_path / "history" / "s1.events.log")
            assert spill.exists()
            status, _ = await client.request("DELETE", "/streams/s1")
            assert status == 200
            assert not spill.exists()

        _run(
            _with_service(
                scenario, history_window=4, history_dir=str(tmp_path / "history")
            )
        )

    def test_stream_named_history_keeps_other_spills(self, tmp_path):
        """With a spool, streams live under ``<spool>/streams/``: deleting a
        stream named ``history`` leaves every stream's spill under
        ``<spool>/history`` alone."""

        async def scenario(client, service):
            seen = await _ingest_events(client)
            status, _ = await client.request("POST", "/streams/history", {})
            assert status == 201
            status, _ = await client.request("DELETE", "/streams/history")
            assert status == 200
            status, body = await client.request("GET", "/streams/s1/events?since=0")
            assert status == 200
            assert body["events"] == seen

        _run(
            _with_service(
                scenario,
                history_window=4,
                durability=DurabilityConfig(spool_dir=tmp_path, fsync=False),
            )
        )
