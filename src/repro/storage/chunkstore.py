"""Time-partitioned, memory-mapped chunk store for stream inputs.

One stored stream is a directory of append-only ``.npy`` **segment files**
plus an atomically rewritten ``manifest.json`` naming them::

    <stream>/
        manifest.json            # format, dtype, layout, segment table
        segments/
            seg-00000000.npy     # rows [0, segment_rows)
            seg-00000001.npy     # rows [segment_rows, 2*segment_rows)
            ...

The design follows the write path of an LSM/time-series store:

* :class:`ChunkStoreWriter` buffers at most one segment's worth of rows in
  memory, serialises each full segment to bytes, CRC-32s them, writes the
  file tmp + fsync + rename, and only then appends the segment to the
  manifest (itself rewritten tmp + fsync + rename).  A crash therefore
  leaves either a ``*.tmp`` file or a segment file the manifest does not
  know about — never a manifest entry pointing at torn data — and
  :func:`recover_chunk_store` cleans both up.
* :class:`StoredStream` opens segments with ``np.load(..., mmap_mode="r")``
  and exposes a zero-copy chunk iterator, so a reader's resident memory is
  bounded by one segment regardless of stream length: a segment's map is
  released once the iterator has moved past it and the last chunk viewing
  it is gone, so a chunk stays readable for as long as it is referenced.

Integrity: every manifest entry records the segment's byte length and
CRC-32.  Opening a stream validates the (cheap) byte lengths and raises
:class:`~repro.utils.exceptions.CorruptRecordError` on a mismatch instead
of silently serving torn rows; :meth:`StoredStream.verify` re-reads every
segment and checks the CRCs.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.utils.exceptions import ConfigurationError, CorruptRecordError, StorageError

logger = logging.getLogger(__name__)

#: Manifest format marker.
MANIFEST_FORMAT = "repro.chunkstore/1"
#: Manifest file name inside a stream directory.
MANIFEST_NAME = "manifest.json"
#: Sub-directory holding the segment files.
SEGMENT_DIR = "segments"
#: Segment file name pattern (index zero-padded for lexical order).
SEGMENT_NAME = re.compile(r"^seg-(\d{8})\.npy$")
#: Default rows per segment — 2 MiB of univariate float64.
DEFAULT_SEGMENT_ROWS = 262_144


def write_json_atomic(path: Path, payload: dict, *, fsync: bool = True) -> None:
    """Write a JSON document tmp + flush (+ fsync) + rename, like a checkpoint."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_directory(path.parent)


def fsync_directory(directory: Path) -> None:
    """Fsync a directory so a rename inside it is durable."""
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


def _load_manifest(directory: Path) -> dict:
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise StorageError(f"no chunk-store manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise CorruptRecordError(f"manifest {path} is unreadable: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise StorageError(
            f"manifest {path} has format {manifest.get('format')!r}; "
            f"expected {MANIFEST_FORMAT!r}"
        )
    return manifest


@dataclass
class ChunkStoreRecovery:
    """What :func:`recover_chunk_store` did to bring a store back to consistency."""

    #: Manifest entries dropped because their file was missing or short.
    dropped_segments: list[str] = field(default_factory=list)
    #: Orphan files deleted (tmp files, segments unknown to the manifest).
    removed_files: list[str] = field(default_factory=list)
    #: Durable row count before and after recovery.
    n_rows_before: int = 0
    n_rows_after: int = 0

    @property
    def clean(self) -> bool:
        """True when the store needed no repair at all."""
        return not self.dropped_segments and not self.removed_files


def recover_chunk_store(directory: str | Path, *, fsync: bool = True) -> ChunkStoreRecovery:
    """Repair a chunk store after a crash; return what was done.

    Walks the manifest in order and truncates it at the first segment whose
    file is missing or shorter than recorded (a torn write can only affect
    the tail — segments are sealed strictly in order).  Any file in the
    segment directory that the surviving manifest does not reference —
    ``*.tmp`` remnants, segments renamed but not yet committed to the
    manifest — is deleted.  Idempotent; a clean store is left untouched.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    segments_dir = directory / SEGMENT_DIR
    report = ChunkStoreRecovery(n_rows_before=int(manifest.get("n_rows", 0)))

    kept: list[dict] = []
    truncated = False
    for entry in manifest.get("segments", []):
        path = segments_dir / entry["file"]
        if not truncated and path.exists() and path.stat().st_size == int(entry["bytes"]):
            kept.append(entry)
            continue
        truncated = True
        report.dropped_segments.append(entry["file"])

    referenced = {entry["file"] for entry in kept}
    if segments_dir.exists():
        for path in sorted(segments_dir.iterdir()):
            if path.name in referenced:
                continue
            report.removed_files.append(path.name)
            path.unlink(missing_ok=True)

    report.n_rows_after = sum(int(entry["rows"]) for entry in kept)
    if report.dropped_segments or report.n_rows_after != report.n_rows_before:
        manifest["segments"] = kept
        manifest["n_rows"] = report.n_rows_after
        write_json_atomic(directory / MANIFEST_NAME, manifest, fsync=fsync)
        logger.warning(
            "chunk store %s recovered: dropped %d segment(s), removed %d file(s), "
            "%d -> %d durable rows",
            directory, len(report.dropped_segments), len(report.removed_files),
            report.n_rows_before, report.n_rows_after,
        )
    return report


class ChunkStoreWriter:
    """Append-only writer of one stored stream (constant memory).

    Parameters
    ----------
    directory:
        The stream's directory (created if missing).  Reopening a directory
        that already holds a manifest continues appending after an implicit
        :func:`recover_chunk_store` pass.
    dtype:
        Element dtype rows are cast to on append (default ``float64``).
    columns:
        0 for a univariate 1-d stream, else the channel count of ``(n,
        columns)`` rows.  Must match the manifest when reopening.
    segment_rows:
        Rows per sealed segment file; the writer never buffers more than
        this many rows in memory.
    fsync:
        Fsync segment files and manifest rewrites (disable only in tests).

    Raises
    ------
    ConfigurationError
        On a non-positive ``segment_rows``, negative ``columns``, or a
        dtype/layout mismatch with an existing manifest.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        dtype: str | np.dtype = np.float64,
        columns: int = 0,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        fsync: bool = True,
    ) -> None:
        if not isinstance(segment_rows, int) or segment_rows < 1:
            raise ConfigurationError("segment_rows must be a positive integer")
        if not isinstance(columns, int) or columns < 0:
            raise ConfigurationError("columns must be a non-negative integer")
        self.directory = Path(directory)
        self.segments_dir = self.directory / SEGMENT_DIR
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            recover_chunk_store(self.directory, fsync=fsync)
            self.manifest = _load_manifest(self.directory)
            if np.dtype(self.manifest["dtype"]) != np.dtype(dtype):
                raise ConfigurationError(
                    f"store {self.directory} holds dtype {self.manifest['dtype']!r}, "
                    f"cannot append {np.dtype(dtype).str!r}"
                )
            if int(self.manifest["columns"]) != columns:
                raise ConfigurationError(
                    f"store {self.directory} holds {self.manifest['columns']} column(s), "
                    f"cannot append {columns}"
                )
            self.segment_rows = int(self.manifest["segment_rows"])
        else:
            self.segment_rows = segment_rows
            self.manifest = {
                "format": MANIFEST_FORMAT,
                "dtype": np.dtype(dtype).str,
                "columns": columns,
                "segment_rows": segment_rows,
                "n_rows": 0,
                "segments": [],
            }
            write_json_atomic(manifest_path, self.manifest, fsync=fsync)
        self.dtype = np.dtype(self.manifest["dtype"])
        self.columns = int(self.manifest["columns"])
        self._buffer: list[np.ndarray] = []
        self._buffered = 0

    # ------------------------------------------------------------------ #

    @property
    def n_rows(self) -> int:
        """Rows already durable on disk (excludes the in-memory buffer)."""
        return int(self.manifest["n_rows"])

    @property
    def pending_rows(self) -> int:
        """Rows buffered in memory, not yet sealed into a segment."""
        return self._buffered

    def append(self, values) -> "ChunkStoreWriter":
        """Buffer rows; seal full segments to disk as the buffer fills.

        ``values`` is cast to the store dtype and must be 1-d (univariate
        store) or ``(n, columns)``; raises
        :class:`~repro.utils.exceptions.ConfigurationError` otherwise.
        """
        array = np.asarray(values, dtype=self.dtype)
        if self.columns == 0:
            if array.ndim != 1:
                raise ConfigurationError(
                    f"univariate store expects 1-d rows, got shape {array.shape}"
                )
        elif array.ndim != 2 or array.shape[1] != self.columns:
            raise ConfigurationError(
                f"store expects (n, {self.columns}) rows, got shape {array.shape}"
            )
        if array.shape[0] == 0:
            return self
        self._buffer.append(array)
        self._buffered += array.shape[0]
        while self._buffered >= self.segment_rows:
            self._seal(self.segment_rows)
        return self

    def flush(self) -> "ChunkStoreWriter":
        """Seal any buffered rows as a (possibly short) final segment."""
        if self._buffered:
            self._seal(self._buffered)
        return self

    def close(self) -> None:
        """Flush; the writer can be reopened on the same directory later."""
        self.flush()

    def __enter__(self) -> "ChunkStoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _take(self, n: int) -> np.ndarray:
        """Remove and return the first ``n`` buffered rows as one array."""
        pieces: list[np.ndarray] = []
        needed = n
        while needed:
            head = self._buffer[0]
            if head.shape[0] <= needed:
                pieces.append(head)
                needed -= head.shape[0]
                self._buffer.pop(0)
            else:
                pieces.append(head[:needed])
                self._buffer[0] = head[needed:]
                needed = 0
        self._buffered -= n
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def _seal(self, n: int) -> None:
        """Write one segment file atomically, then commit it to the manifest."""
        array = np.ascontiguousarray(self._take(n))
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, array, allow_pickle=False)
        data = buffer.getvalue()
        name = f"seg-{len(self.manifest['segments']):08d}.npy"
        path = self.segments_dir / name
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync:
            fsync_directory(self.segments_dir)
        self.manifest["segments"].append(
            {
                "file": name,
                "start": int(self.manifest["n_rows"]),
                "rows": int(n),
                "bytes": len(data),
                "crc32": zlib.crc32(data),
            }
        )
        self.manifest["n_rows"] = int(self.manifest["n_rows"]) + int(n)
        write_json_atomic(self.directory / MANIFEST_NAME, self.manifest, fsync=self.fsync)


class StoredStream:
    """Zero-copy reader over a stored stream's memory-mapped segments.

    Opening validates the manifest and every segment's on-disk byte length;
    a mismatch raises :class:`~repro.utils.exceptions.CorruptRecordError`
    (run :func:`recover_chunk_store` to truncate the torn tail).  All reads
    go through ``np.load(..., mmap_mode="r")``, so arbitrarily long streams
    are served at one-segment resident memory.
    """

    def __init__(self, directory: str | Path, *, name: str | None = None) -> None:
        self.directory = Path(directory)
        self.name = name if name is not None else self.directory.name
        self.manifest = _load_manifest(self.directory)
        self.dtype = np.dtype(self.manifest["dtype"])
        self.columns = int(self.manifest["columns"])
        self.segments: list[dict] = list(self.manifest["segments"])
        self.n_rows = int(self.manifest["n_rows"])
        segments_dir = self.directory / SEGMENT_DIR
        for entry in self.segments:
            path = segments_dir / entry["file"]
            if not path.exists():
                raise CorruptRecordError(
                    f"stored stream {self.name!r}: segment {entry['file']} is missing; "
                    "run repro.storage.recover_chunk_store() to truncate the store"
                )
            size = path.stat().st_size
            if size != int(entry["bytes"]):
                raise CorruptRecordError(
                    f"stored stream {self.name!r}: segment {entry['file']} holds "
                    f"{size} byte(s), manifest records {entry['bytes']} — torn write; "
                    "run repro.storage.recover_chunk_store() to truncate the store"
                )

    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        """``(n_rows,)`` for univariate stores, ``(n_rows, columns)`` otherwise."""
        if self.columns == 0:
            return (self.n_rows,)
        return (self.n_rows, self.columns)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all segments (excluding npy headers)."""
        return self.n_rows * max(1, self.columns) * self.dtype.itemsize

    def __len__(self) -> int:
        return self.n_rows

    def _segment_array(self, entry: dict) -> np.ndarray:
        return np.load(self.directory / SEGMENT_DIR / entry["file"], mmap_mode="r")

    def iter_chunks(
        self,
        chunk_size: int | None = None,
        *,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Yield zero-copy row chunks of at most ``chunk_size`` rows.

        Chunks never cross a segment boundary (so they stay views into one
        mapping), which means a chunk may be shorter than ``chunk_size`` —
        harmless for every detector thanks to chunk invariance.  A chunk,
        and any slice of it, keeps its segment's map alive: a consumer that
        drops its chunks as it goes reads one segment at a time, and one
        that keeps a chunk can read it after the iteration.  With
        ``chunk_size=None`` each segment is yielded whole.

        Raises
        ------
        ConfigurationError
            On a non-positive ``chunk_size`` or an out-of-range window.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be a positive integer")
        stop = self.n_rows if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= self.n_rows:
            raise ConfigurationError(
                f"chunk window [{start}, {stop}) out of range for {self.n_rows} rows"
            )
        for entry in self.segments:
            seg_start, seg_rows = int(entry["start"]), int(entry["rows"])
            seg_stop = seg_start + seg_rows
            if seg_stop <= start:
                continue
            if seg_start >= stop:
                break
            array = self._segment_array(entry)
            lo = max(start, seg_start) - seg_start
            hi = min(stop, seg_stop) - seg_start
            step = hi - lo if chunk_size is None else chunk_size
            for offset in range(lo, hi, step):
                yield array[offset : min(offset + step, hi)]

    def read(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Materialise rows ``[start, stop)`` as one contiguous in-memory array."""
        # copy each chunk, so the result is writable and holds no segment map
        pieces = [np.array(chunk, copy=True) for chunk in self.iter_chunks(start=start, stop=stop)]
        if not pieces:
            shape = (0,) if self.columns == 0 else (0, self.columns)
            return np.empty(shape, dtype=self.dtype)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def verify(self) -> list[str]:
        """Re-read every segment and check its CRC-32; return problem strings."""
        problems: list[str] = []
        for entry in self.segments:
            data = (self.directory / SEGMENT_DIR / entry["file"]).read_bytes()
            if len(data) != int(entry["bytes"]):
                problems.append(f"{entry['file']}: {len(data)} byte(s), expected {entry['bytes']}")
            elif zlib.crc32(data) != int(entry["crc32"]):
                problems.append(f"{entry['file']}: CRC mismatch")
        return problems

    def info(self) -> dict[str, Any]:
        """JSON-safe descriptor: layout, size and segmentation of the store."""
        return {
            "name": self.name,
            "dtype": self.dtype.str,
            "columns": self.columns,
            "n_rows": self.n_rows,
            "n_segments": len(self.segments),
            "segment_rows": int(self.manifest["segment_rows"]),
            "bytes": self.nbytes,
        }
