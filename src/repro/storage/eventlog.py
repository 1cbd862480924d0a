"""Append-only CRC-framed event log with a sparse time index.

One log is a single record file plus an optional ``<name>.idx`` sidecar of
index hints.  Every record is framed by :func:`encode_frame` (little-endian;
the service spool's write-ahead tail uses the same frame)::

    u32 body length | u32 CRC-32 of body | body (UTF-8 JSON)

with body ``{"seq": int, "at": int, "event": {...}}`` — ``seq`` is the
dense record number (the replay cursor), ``at`` the stream timestamp the
event is keyed by (monotone non-decreasing, so range reads can bisect).

The sidecar holds one JSON line per ``index_every`` records:
``{"seq", "at", "offset"}`` — byte offsets into the record file.  It is a
pure *hint* file: opening a log validates the last hint against the record
file and falls back to a full scan when the sidecar is stale, torn or
missing, so it needs no fsync and can always be deleted.

Crash behaviour mirrors the chunk store: the writer appends frame-at-a-time
(optionally fsynced), so a crash can only tear the final record.  Opening
scans the tail, and a torn trailing frame (short header, short body, or CRC
mismatch) is **physically truncated** — with a warning — rather than ever
being surfaced to a reader.  Corruption anywhere *before* the tail is not
self-repairable and raises
:class:`~repro.utils.exceptions.CorruptRecordError`.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import zlib
from bisect import bisect_left
from pathlib import Path
from typing import Any, Iterator

from repro.utils.exceptions import ConfigurationError, CorruptRecordError, StorageError

logger = logging.getLogger(__name__)

_HEADER = struct.Struct("<II")
#: Index sidecar suffix, appended to the log file name.
INDEX_SUFFIX = ".idx"
#: Default record interval between sparse-index hints.
DEFAULT_INDEX_EVERY = 64


def encode_frame(body: bytes) -> bytes:
    """Frame one record: ``u32 length | u32 CRC-32 of body | body``, little-endian."""
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def read_frame(handle) -> bytes | None:
    """Read the next frame's body from a binary file handle.

    Returns None at the end of the file and on a torn or corrupt frame (a
    short header, a short body or a CRC mismatch); the handle's position
    is then unspecified.
    """
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return None
    length, crc = _HEADER.unpack(header)
    body = handle.read(length)
    if len(body) < length or zlib.crc32(body) != crc:
        return None
    return body


class EventLog:
    """Append-only log of typed events keyed by ``(seq, at)``.

    Parameters
    ----------
    path:
        Record file path; created (with parents) on first append.
    fsync:
        Fsync after every appended record.  Durability spools want this on;
        the service's history spill (which can be rebuilt) leaves it off.
    index_every:
        Emit one sparse-index hint per this many records.

    Raises
    ------
    ConfigurationError
        On a non-positive ``index_every``.
    CorruptRecordError
        When a record *before* the tail fails its CRC — the log cannot be
        self-repaired without losing acknowledged history.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = False,
        index_every: int = DEFAULT_INDEX_EVERY,
    ) -> None:
        if not isinstance(index_every, int) or index_every < 1:
            raise ConfigurationError("index_every must be a positive integer")
        self.path = Path(path)
        self.index_path = self.path.with_name(self.path.name + INDEX_SUFFIX)
        self.fsync = fsync
        self.index_every = index_every
        #: Sparse hints as parallel lists (for bisect): seqs, ats, offsets.
        self._hint_seqs: list[int] = []
        self._hint_ats: list[int] = []
        self._hint_offsets: list[int] = []
        self._n_records = 0
        self._end_offset = 0
        self._last_at = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()
        self._handle = self.path.open("ab")

    # ------------------------------------------------------------------ #
    # open / recovery

    def _open(self) -> None:
        if not self.path.exists():
            self.path.touch()
            return
        self._load_hints()
        torn_at = self._scan_tail()
        if torn_at is not None:
            logger.warning(
                "event log %s: torn trailing record at byte %d (after %d intact "
                "record(s)); truncating",
                self.path, torn_at, self._n_records,
            )
            with self.path.open("r+b") as handle:
                handle.truncate(torn_at)
            self._end_offset = torn_at
            self._rewrite_hints()

    def _load_hints(self) -> None:
        """Load the sparse index sidecar; drop it when stale or torn."""
        if not self.index_path.exists():
            return
        seqs: list[int] = []
        ats: list[int] = []
        offsets: list[int] = []
        try:
            with self.index_path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    hint = json.loads(line)
                    seqs.append(int(hint["seq"]))
                    ats.append(int(hint["at"]))
                    offsets.append(int(hint["offset"]))
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            logger.warning("event log %s: unreadable index sidecar; rebuilding", self.path)
            return
        if not seqs:
            return
        # validate the newest hint actually points at its record
        record = self._read_frame_at(offsets[-1])
        if record is None or int(record[0].get("seq", -1)) != seqs[-1]:
            logger.warning("event log %s: stale index sidecar; rebuilding", self.path)
            return
        self._hint_seqs, self._hint_ats, self._hint_offsets = seqs, ats, offsets

    def _read_frame_at(self, offset: int) -> tuple[dict, int] | None:
        """Read one frame; return ``(body, next_offset)`` or None when torn."""
        with self.path.open("rb") as handle:
            handle.seek(offset)
            body = read_frame(handle)
            next_offset = handle.tell()
        if body is None:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return payload, next_offset

    def _scan_tail(self) -> int | None:
        """Walk records from the newest hint; return the torn offset, if any.

        Sets ``_n_records``, ``_end_offset`` and ``_last_at`` as a side
        effect.  Because appends are strictly sequential, the first frame
        that fails to parse marks where the crash hit; everything from that
        byte on is the torn tail.
        """
        if self._hint_seqs:
            offset = self._hint_offsets[-1]
            count = self._hint_seqs[-1]
            last_at = self._hint_ats[-1]
        else:
            offset = 0
            count = 0
            last_at = 0
        size = self.path.stat().st_size
        torn_at: int | None = None
        while offset < size:
            frame = self._read_frame_at(offset)
            if frame is None or frame[1] > size:
                torn_at = offset
                break
            payload, next_offset = frame
            count += 1
            last_at = int(payload.get("at", last_at))
            offset = next_offset
        self._n_records = count
        self._end_offset = offset
        self._last_at = last_at
        if torn_at is not None:
            # hints for records beyond the tear are now dangling
            while self._hint_offsets and self._hint_offsets[-1] >= torn_at:
                self._hint_seqs.pop()
                self._hint_ats.pop()
                self._hint_offsets.pop()
        return torn_at

    # ------------------------------------------------------------------ #
    # append

    def append(self, at: int, event: dict[str, Any]) -> int:
        """Append one event keyed at stream time ``at``; return its ``seq``.

        ``at`` values must be monotone non-decreasing (range reads bisect on
        them); a regression raises
        :class:`~repro.utils.exceptions.StorageError`.
        """
        at = int(at)
        if at < self._last_at:
            raise StorageError(
                f"event log {self.path.name}: at={at} regresses behind {self._last_at}"
            )
        seq = self._n_records
        body = json.dumps(
            {"seq": seq, "at": at, "event": event}, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        frame = encode_frame(body)
        offset = self._end_offset
        self._handle.write(frame)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._n_records = seq + 1
        self._end_offset = offset + len(frame)
        self._last_at = at
        if seq % self.index_every == 0:
            self._write_hint(seq, at, offset)
        return seq

    def append_event(self, event) -> int:
        """Append a typed API event (anything with ``to_dict()`` and ``at``)."""
        return self.append(int(event.at), event.to_dict())

    def _rewrite_hints(self) -> None:
        """Rewrite the sidecar from the surviving in-memory hints."""
        try:
            with self.index_path.open("w", encoding="utf-8") as handle:
                for seq, at, offset in zip(self._hint_seqs, self._hint_ats, self._hint_offsets):
                    handle.write(json.dumps({"seq": seq, "at": at, "offset": offset}) + "\n")
        except OSError:
            logger.warning("event log %s: could not rewrite index sidecar", self.path)

    def _write_hint(self, seq: int, at: int, offset: int) -> None:
        self._hint_seqs.append(seq)
        self._hint_ats.append(at)
        self._hint_offsets.append(offset)
        try:
            with self.index_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"seq": seq, "at": at, "offset": offset}) + "\n")
        except OSError:  # the sidecar is only a hint; never fail an append on it
            logger.warning("event log %s: could not extend index sidecar", self.path)

    # ------------------------------------------------------------------ #
    # read

    def __len__(self) -> int:
        return self._n_records

    @property
    def last_at(self) -> int:
        """Stream timestamp of the newest record (0 when empty)."""
        return self._last_at

    def _offset_for_seq(self, seq: int) -> tuple[int, int]:
        """Nearest hinted ``(offset, seq)`` at or before the requested seq."""
        if not self._hint_seqs or seq < self._hint_seqs[0]:
            return 0, 0
        position = bisect_left(self._hint_seqs, seq + 1) - 1
        return self._hint_offsets[position], self._hint_seqs[position]

    def iter_records(self, from_seq: int = 0) -> Iterator[dict]:
        """Yield raw record bodies (``{"seq", "at", "event"}``) from a cursor.

        Raises
        ------
        CorruptRecordError
            When a frame inside the committed range fails its CRC — this is
            mid-file corruption, not a torn tail, and cannot be repaired
            without losing history.
        """
        from_seq = max(0, int(from_seq))
        if from_seq >= self._n_records:
            return
        offset, seq = self._offset_for_seq(from_seq)
        end = self._end_offset
        while offset < end:
            frame = self._read_frame_at(offset)
            if frame is None:
                raise CorruptRecordError(
                    f"event log {self.path}: record {seq} at byte {offset} failed its "
                    "integrity check inside the committed range"
                )
            payload, offset = frame
            if int(payload["seq"]) >= from_seq:
                yield payload
            seq += 1

    def read_since(self, seq: int, limit: int | None = None) -> list[dict]:
        """Events (bodies' ``event`` fields) with record number ``>= seq``."""
        out: list[dict] = []
        for record in self.iter_records(seq):
            out.append(record["event"])
            if limit is not None and len(out) >= limit:
                break
        return out

    def read_range(self, from_t: int, to_t: int | None = None) -> list[dict]:
        """Records with ``from_t <= at < to_t`` (``to_t=None`` → to the end).

        Seeks via the sparse time index (hints' ``at`` values are monotone
        because appends enforce it), then filters the scanned records.
        """
        from_t = int(from_t)
        if self._hint_ats:
            position = max(0, bisect_left(self._hint_ats, from_t) - 1)
            start_seq = self._hint_seqs[position]
        else:
            start_seq = 0
        out: list[dict] = []
        for record in self.iter_records(start_seq):
            at = int(record["at"])
            if at < from_t:
                continue
            if to_t is not None and at >= int(to_t):
                break
            out.append(record)
        return out

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the append handle; the log can be reopened."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def info(self) -> dict[str, Any]:
        """JSON-safe descriptor: record count, span and file size."""
        return {
            "path": str(self.path),
            "n_records": self._n_records,
            "last_at": self._last_at,
            "bytes": self._end_offset,
            "n_index_hints": len(self._hint_seqs),
        }
