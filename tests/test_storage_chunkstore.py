"""Chunk store tests: round-trips, boundaries, zero-copy reads, recovery.

The crash cases pin the ISSUE 9 satellite: a partially written segment
file (torn write) is detected via the manifest's byte length / CRC and
truncated by recovery — never silently served to a reader.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.storage import (
    ChunkStoreWriter,
    StoredStream,
    StreamStore,
    recover_chunk_store,
)
from repro.utils.exceptions import (
    ConfigurationError,
    CorruptRecordError,
    StorageError,
)


@pytest.fixture
def store(tmp_path):
    return StreamStore(tmp_path / "store", segment_rows=1_000, fsync=False)


@pytest.fixture
def data(rng):
    return np.concatenate([rng.normal(0, 1, 2_500), rng.normal(4, 1, 2_500)])


class TestWriterReader:
    def test_round_trip_across_segments(self, store, data):
        stored = store.ingest("s", data)
        assert len(stored) == 5_000
        assert stored.shape == (5_000,)
        assert len(stored.segments) == 5
        assert np.array_equal(stored.read(), data)

    def test_range_read_spanning_boundary(self, store, data):
        stored = store.ingest("s", data)
        assert np.array_equal(stored.read(990, 1_010), data[990:1_010])
        assert np.array_equal(stored.read(4_999), data[4_999:])
        assert stored.read(2_000, 2_000).shape == (0,)

    def test_iter_chunks_clips_at_segment_boundaries(self, store, data):
        stored = store.ingest("s", data)
        sizes = [chunk.shape[0] for chunk in stored.iter_chunks(300)]
        # 1000-row segments chunked by 300 -> 300,300,300,100 per segment
        assert sizes == [300, 300, 300, 100] * 5
        pieces = [np.array(chunk, copy=True) for chunk in stored.iter_chunks(300)]
        assert np.array_equal(np.concatenate(pieces), data)

    def test_iter_chunks_window(self, store, data):
        stored = store.ingest("s", data)
        window = np.concatenate(
            [np.array(c, copy=True) for c in stored.iter_chunks(256, start=700, stop=3_300)]
        )
        assert np.array_equal(window, data[700:3_300])

    def test_chunks_are_zero_copy_views(self, store, data):
        stored = store.ingest("s", data)
        chunk = next(stored.iter_chunks(100))
        assert chunk.base is not None  # a view into the segment map, not a copy

    def test_chunks_kept_past_the_iteration_stay_readable(self, tmp_path):
        # a view of a closed map would crash the reading process, so the
        # check runs in a subprocess: a crash fails this test, not the suite
        script = """
import gc, sys
import numpy as np
from repro.storage import StreamStore

values = np.arange(600_000, dtype=np.float64)
stored = StreamStore(sys.argv[1], segment_rows=100_000, fsync=False).ingest("s", values)
chunks = list(stored.iter_chunks(50_000))
kept = [chunks[0], chunks[-1]]
piece = chunks[5][10:20]
del chunks
gc.collect()
assert kept[0].base is not None  # still zero-copy views
assert np.array_equal(kept[0], values[:50_000])
assert np.array_equal(kept[1], values[-50_000:])
assert np.array_equal(piece, values[250_010:250_020])
print("ok")
"""
        env = dict(os.environ)
        repo_src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = f"{repo_src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, (result.returncode, result.stderr)
        assert result.stdout.strip() == "ok"

    def test_multivariate_round_trip(self, store, rng):
        data = rng.normal(size=(2_300, 3))
        stored = store.ingest("mv", data)
        assert stored.shape == (2_300, 3)
        assert stored.columns == 3
        assert np.array_equal(stored.read(), data)
        assert np.array_equal(stored.read(995, 1_005), data[995:1_005])

    def test_reopen_appends_after_flush(self, store, data):
        store.ingest("s", data[:2_200])
        with store.writer("s") as writer:
            assert writer.n_rows == 2_200
            writer.append(data[2_200:])
        stored = store.open("s")
        assert np.array_equal(stored.read(), data)

    def test_partial_final_segment_then_continue(self, tmp_path, rng):
        values = rng.normal(size=777)
        with ChunkStoreWriter(tmp_path / "w", segment_rows=500, fsync=False) as writer:
            writer.append(values)
        # 500-row sealed segment + 277-row partial one
        stored = StoredStream(tmp_path / "w")
        assert [int(entry["rows"]) for entry in stored.segments] == [500, 277]
        assert np.array_equal(stored.read(), values)

    def test_ingest_iterable_source(self, store, data):
        chunks = (data[i : i + 64] for i in range(0, data.shape[0], 64))
        stored = store.ingest("s", chunks)
        assert np.array_equal(stored.read(), data)

    def test_verify_clean_store(self, store, data):
        assert store.ingest("s", data).verify() == []


class TestValidation:
    def test_ingest_existing_name_requires_append(self, store, data):
        store.ingest("s", data)
        with pytest.raises(StorageError, match="already exists"):
            store.ingest("s", data)
        store.ingest("s", data, append=True)
        assert len(store.open("s")) == 10_000

    def test_bad_stream_names_rejected(self, store):
        for name in ("", "../evil", "a/b", ".hidden", "x" * 200):
            with pytest.raises(StorageError, match="invalid stream name"):
                store.path_for(name)

    def test_unknown_stream(self, store):
        with pytest.raises(StorageError, match="unknown stream"):
            store.open("ghost")
        assert not store.exists("ghost")

    def test_shape_mismatch_rejected(self, store, rng):
        store.ingest("mv", rng.normal(size=(100, 2)))
        with store.writer("mv", columns=2) as writer:
            with pytest.raises(ConfigurationError, match=r"\(n, 2\)"):
                writer.append(rng.normal(size=50))

    def test_dtype_and_columns_pinned_on_reopen(self, store, rng):
        store.ingest("s", rng.normal(size=100))
        with pytest.raises(ConfigurationError, match="dtype"):
            store.writer("s", dtype=np.float32)
        with pytest.raises(ConfigurationError, match="column"):
            store.writer("s", columns=2)

    def test_bad_chunk_windows_rejected(self, store, data):
        stored = store.ingest("s", data)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            list(stored.iter_chunks(0))
        with pytest.raises(ConfigurationError, match="out of range"):
            list(stored.iter_chunks(10, start=4_000, stop=9_999))

    def test_delete_removes_everything(self, store, data):
        store.ingest("s", data)
        store.delete("s")
        assert store.list_streams() == []
        with pytest.raises(StorageError):
            store.delete("s")


class TestCrashRecovery:
    def _segment_path(self, store, name, index):
        return store.path_for(name) / "segments" / f"seg-{index:08d}.npy"

    def test_torn_segment_detected_not_silently_read(self, store, data):
        store.ingest("s", data)
        path = self._segment_path(store, "s", 4)
        path.write_bytes(path.read_bytes()[:-16])  # crash mid-write
        with pytest.raises(CorruptRecordError, match="torn write"):
            store.open("s")

    def test_recovery_truncates_torn_tail(self, store, data):
        store.ingest("s", data)
        path = self._segment_path(store, "s", 4)
        path.write_bytes(path.read_bytes()[:-16])
        report = recover_chunk_store(store.path_for("s"), fsync=False)
        assert report.dropped_segments == ["seg-00000004.npy"]
        assert report.n_rows_before == 5_000
        assert report.n_rows_after == 4_000
        stored = store.open("s")  # opens clean again
        assert np.array_equal(stored.read(), data[:4_000])
        assert stored.verify() == []

    def test_recovery_removes_orphan_tmp_files(self, store, data):
        store.ingest("s", data)
        orphan = store.path_for("s") / "segments" / "seg-00000009.npy.tmp"
        orphan.write_bytes(b"torn")
        report = recover_chunk_store(store.path_for("s"), fsync=False)
        assert "seg-00000009.npy.tmp" in report.removed_files
        assert not orphan.exists()

    def test_recovery_is_idempotent_on_clean_store(self, store, data):
        store.ingest("s", data)
        report = recover_chunk_store(store.path_for("s"), fsync=False)
        assert report.clean
        assert report.n_rows_after == 5_000

    def test_missing_segment_detected(self, store, data):
        store.ingest("s", data)
        self._segment_path(store, "s", 2).unlink()
        with pytest.raises(CorruptRecordError, match="missing"):
            store.open("s")
        report = recover_chunk_store(store.path_for("s"), fsync=False)
        # truncate-at-first-bad: everything from the hole on is dropped
        assert report.n_rows_after == 2_000

    def test_verify_flags_bit_rot(self, store, data):
        stored = store.ingest("s", data)
        path = self._segment_path(store, "s", 1)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # same length, different bytes: only the CRC sees it
        path.write_bytes(bytes(raw))
        problems = store.open("s").verify()
        assert problems and "CRC" in problems[0]
        assert stored is not None

    def test_appending_after_recovery_continues_from_truncation(self, store, data):
        store.ingest("s", data)
        path = self._segment_path(store, "s", 4)
        path.write_bytes(path.read_bytes()[:-16])
        # reopening the writer runs recovery implicitly, then appends
        with store.writer("s") as writer:
            assert writer.n_rows == 4_000
            writer.append(data[4_000:])
        assert np.array_equal(store.open("s").read(), data)
