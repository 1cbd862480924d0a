"""Event log tests: framing, cursors, range reads, torn-tail recovery.

The crash case pins the ISSUE 9 satellite: a torn final record (short
header, short body, or CRC mismatch) is detected on open and physically
truncated — the log never silently serves a half-written record.
"""

import json

import pytest

from repro.api.events import ChangePointEvent
from repro.storage import EventLog
from repro.utils.exceptions import (
    ConfigurationError,
    CorruptRecordError,
    StorageError,
)


def fill(log, n, step=10):
    for i in range(n):
        log.append(i * step, {"kind": "score", "at": i * step, "score": float(i)})


class TestAppendRead:
    def test_round_trip_and_cursor(self, tmp_path):
        with EventLog(tmp_path / "e.log") as log:
            fill(log, 20)
            assert len(log) == 20
            assert log.last_at == 190
            events = log.read_since(0)
            assert len(events) == 20
            assert events[0]["score"] == 0.0
            assert log.read_since(15) == events[15:]
            assert log.read_since(99) == []
            assert log.read_since(5, limit=3) == events[5:8]

    def test_reopen_resumes_sequence(self, tmp_path):
        with EventLog(tmp_path / "e.log") as log:
            fill(log, 10)
        with EventLog(tmp_path / "e.log") as log:
            assert len(log) == 10
            assert log.append(500, {"kind": "score", "at": 500, "score": 9.0}) == 10
            assert len(log.read_since(0)) == 11

    def test_typed_event_round_trip(self, tmp_path):
        event = ChangePointEvent(at=5_200, change_point=5_000, score=0.93, p_value=1e-30)
        with EventLog(tmp_path / "e.log") as log:
            log.append_event(event)
            record = next(log.iter_records())
        assert record == {"seq": 0, "at": 5_200, "event": event.to_dict()}

    def test_range_read_bisects_on_time(self, tmp_path):
        with EventLog(tmp_path / "e.log", index_every=8) as log:
            fill(log, 100)
            records = log.read_range(200, 400)
            assert [r["at"] for r in records] == list(range(200, 400, 10))
            assert [r["at"] for r in log.read_range(905)] == list(range(910, 1_000, 10))
            assert log.read_range(10_000) == []

    def test_at_regression_rejected(self, tmp_path):
        with EventLog(tmp_path / "e.log") as log:
            log.append(100, {"kind": "score", "at": 100, "score": 0.0})
            with pytest.raises(StorageError, match="regresses"):
                log.append(50, {"kind": "score", "at": 50, "score": 0.0})

    def test_bad_index_every_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EventLog(tmp_path / "e.log", index_every=0)


class TestFileHandles:
    """Pinned: a read opens the record file once, not once per record."""

    @staticmethod
    def count_opens(monkeypatch, path):
        opened = []
        open_path = type(path).open

        def counting(self, *args, **kwargs):
            if self == path:
                opened.append(args[0] if args else kwargs.get("mode", "r"))
            return open_path(self, *args, **kwargs)

        monkeypatch.setattr(type(path), "open", counting)
        return opened

    def test_one_open_per_iter_records_call(self, tmp_path, monkeypatch):
        path = tmp_path / "e.log"
        with EventLog(path, index_every=16) as log:
            fill(log, 200)
            opened = self.count_opens(monkeypatch, path)
            assert len(log.read_since(0)) == 200
            assert opened == ["rb"]
            assert [r["seq"] for r in log.iter_records(150)] == list(range(150, 200))
            assert len(log.read_range(500, 900)) == 40
            assert opened == ["rb"] * 3

    def test_one_open_to_scan_the_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "e.log"
        with EventLog(path, index_every=1_000) as log:
            fill(log, 200)  # one hint: opening scans all 200 records
        opened = self.count_opens(monkeypatch, path)
        with EventLog(path, index_every=1_000) as log:
            assert len(log) == 200
        # the hint's check, the tail scan and the append handle
        assert opened == ["rb", "rb", "ab"]


class TestSparseIndex:
    def test_hints_written_and_used(self, tmp_path):
        with EventLog(tmp_path / "e.log", index_every=4) as log:
            fill(log, 30)
            assert log.info()["n_index_hints"] == 8  # seqs 0,4,...,28
        hints = [json.loads(line) for line in (tmp_path / "e.log.idx").read_text().splitlines()]
        assert [h["seq"] for h in hints] == list(range(0, 30, 4))

    def test_stale_sidecar_rebuilt(self, tmp_path):
        with EventLog(tmp_path / "e.log", index_every=4) as log:
            fill(log, 30)
        (tmp_path / "e.log.idx").write_text('{"seq": 999, "at": 0, "offset": 123456}\n')
        with EventLog(tmp_path / "e.log", index_every=4) as log:
            assert len(log) == 30  # full scan fallback
            assert len(log.read_since(17)) == 13

    def test_garbage_sidecar_rebuilt(self, tmp_path):
        with EventLog(tmp_path / "e.log") as log:
            fill(log, 10)
        (tmp_path / "e.log.idx").write_text("not json at all\n")
        with EventLog(tmp_path / "e.log") as log:
            assert len(log) == 10

    def test_deleted_sidecar_is_fine(self, tmp_path):
        with EventLog(tmp_path / "e.log", index_every=4) as log:
            fill(log, 30)
        (tmp_path / "e.log.idx").unlink()
        with EventLog(tmp_path / "e.log") as log:
            assert len(log.read_since(0)) == 30


class TestCrashRecovery:
    @pytest.mark.parametrize("torn_bytes", [1, 5, 9, 40])
    def test_torn_final_record_truncated_on_open(self, tmp_path, torn_bytes):
        with EventLog(tmp_path / "e.log") as log:
            fill(log, 10)
        path = tmp_path / "e.log"
        intact_after_9 = None
        with EventLog(tmp_path / "probe.log") as probe:
            fill(probe, 9)
            intact_after_9 = probe.info()["bytes"]
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[: size - torn_bytes])
        with EventLog(path) as log:
            # everything before the torn record survives intact
            assert len(log) == 9
            assert path.stat().st_size == intact_after_9
            events = log.read_since(0)
            assert [e["at"] for e in events] == [i * 10 for i in range(9)]
            # appending after recovery reuses the truncated tail position
            assert log.append(300, {"kind": "score", "at": 300, "score": 1.0}) == 9
            assert len(log.read_since(0)) == 10

    def test_corrupt_crc_tail_truncated(self, tmp_path):
        with EventLog(tmp_path / "e.log") as log:
            fill(log, 5)
        path = tmp_path / "e.log"
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0xFF  # flip a byte inside the final record's body
        path.write_bytes(bytes(raw))
        with EventLog(path) as log:
            assert len(log) == 4

    def test_mid_file_corruption_raises_on_read(self, tmp_path):
        with EventLog(tmp_path / "e.log", index_every=2) as log:
            fill(log, 10)
            second_record = list(log.iter_records())[1]
        path = tmp_path / "e.log"
        raw = bytearray(path.read_bytes())
        # flip a byte inside record 1's body (well before the tail)
        body = json.dumps(second_record, separators=(",", ":"), sort_keys=True).encode()
        offset = raw.find(body)
        assert offset > 0
        raw[offset + 5] ^= 0xFF
        path.write_bytes(bytes(raw))
        # open seeks via the (intact) newest index hint, so the committed
        # range still counts 10 — but reading across the damage surfaces a
        # typed error instead of a silently wrong record
        with EventLog(path, index_every=2) as log:
            assert len(log) == 10
            with pytest.raises(CorruptRecordError, match="integrity"):
                list(log.iter_records())

    def test_iter_detects_corruption_after_open(self, tmp_path):
        with EventLog(tmp_path / "e.log") as log:
            fill(log, 5)
            path = tmp_path / "e.log"
            raw = bytearray(path.read_bytes())
            raw[15] ^= 0xFF  # corrupt record 0 while the log stays open
            path.write_bytes(bytes(raw))
            with pytest.raises(CorruptRecordError, match="integrity"):
                list(log.iter_records())

    def test_torn_tail_with_dangling_hints(self, tmp_path):
        with EventLog(tmp_path / "e.log", index_every=2) as log:
            fill(log, 10)
        path = tmp_path / "e.log"
        # tear back into hinted territory: drop the last 4 records' bytes
        with EventLog(tmp_path / "probe.log", index_every=2) as probe:
            fill(probe, 6)
            keep = probe.info()["bytes"]
        path.write_bytes(path.read_bytes()[:keep])
        with EventLog(path, index_every=2) as log:
            assert len(log) == 6
            assert len(log.read_since(0)) == 6
