"""Named stream registry: detector lifecycle, shard routing, metrics.

Each client-created stream owns one registry-built detector, a cursor-
addressed event history (a bounded memory window backed by an optional disk
spill — :class:`repro.storage.history.StreamHistory`), a set of live
WebSocket subscribers, and latency/count metrics.  Cursors older than the
memory window are served from the spill log; when spilling is disabled they
get a typed 410 ``history-truncated`` carrying the oldest cursor that still
works.
Streams are hash-routed to shard workers with the *same* process-stable
CRC-32 partitioning the batch engine uses
(:func:`repro.utils.parallel.shard_for_key`), so a stream name maps to
the same shard here and in an offline :class:`~repro.streamengine.sharded.ShardedPipeline`
replay — and the assignment can be overridden per stream by the elastic
rebalancing path (freeze → checkpoint → adopt on another worker → resume).

Payload validation happens here, before anything reaches a worker: stream
names, detector configs (rejected by the registry's own typed validation),
observation arrays (shape, finiteness, batch size).  A malformed payload
raises a typed :class:`~repro.service.errors.ServiceError` and never
touches detector state.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api import ScoreEvent, create, event_from_dict
from repro.service.errors import ServiceError, unknown_stream, unrecoverable_stream
from repro.storage.checkpoints import segmenter_row
from repro.storage.history import DEFAULT_HISTORY_WINDOW, StreamHistory
from repro.utils.exceptions import ConfigurationError, HistoryTruncatedError, ReproError
from repro.utils.parallel import shard_for_key

#: Accepted stream names (URL-safe, bounded).
STREAM_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")
#: Hard cap on observations per batch; larger batches get a typed 413.
DEFAULT_MAX_BATCH = 100_000
#: Per-stream reservoir of recent event latencies (seconds).
LATENCY_WINDOW = 8_192


def quantile(samples: list[float], q: float) -> float | None:
    """The ``q`` quantile of a sample list (None when empty).

    Uses the nearest-rank method on a sorted copy — exact for the small
    per-stream reservoirs the metrics endpoint serves.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class StreamMetrics:
    """Event counts and latency reservoir of one stream."""

    n_observations: int = 0
    n_batches: int = 0
    #: Stale/duplicate batches silently dropped under ``duplicate_policy="drop"``.
    n_dropped_batches: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)

    def record(self, n_values: int, events: list, seconds: float) -> None:
        """Account one processed batch: counts plus one latency per event."""
        self.n_observations += int(n_values)
        self.n_batches += 1
        for event in events:
            kind = getattr(type(event), "kind", "event")
            self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
            if len(self.latencies) >= LATENCY_WINDOW:
                self.latencies.pop(0)
            self.latencies.append(seconds)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe metrics view: counts plus p50/p99 event latency."""
        return {
            "n_observations": self.n_observations,
            "n_batches": self.n_batches,
            "n_dropped_batches": self.n_dropped_batches,
            "event_counts": dict(self.event_counts),
            "n_events": sum(self.event_counts.values()),
            "event_latency_p50_ms": _ms(quantile(self.latencies, 0.50)),
            "event_latency_p99_ms": _ms(quantile(self.latencies, 0.99)),
        }


def _ms(seconds: float | None) -> float | None:
    """Seconds → milliseconds rounded for display (None passes through)."""
    return None if seconds is None else round(seconds * 1e3, 3)


@dataclass
class StreamState:
    """One named stream: its detector, routing, event log and subscribers."""

    name: str
    detector: str
    config: dict[str, Any]
    segmenter: Any
    shard: int
    chunk_size: int | None = None
    include_scores: bool = False
    #: The stream's dirty-data policy (mapping form of
    #: :class:`repro.api.DataPolicy`), or None for strict rejection.
    data_policy: dict[str, Any] | None = None
    frozen: bool = False
    #: Why the stream's crash recovery failed, leaving its detector unusable:
    #: every request for it then answers 409 ``stream-unrecoverable``, and
    #: only ``DELETE`` still works.
    failed: str | None = None
    #: Events already fanned out (cursor into ``segmenter.events()``).
    n_emitted: int = 0
    #: Cursor-addressed event history: bounded memory window + disk spill.
    history: StreamHistory = field(default_factory=StreamHistory)
    metrics: StreamMetrics = field(default_factory=StreamMetrics)
    subscribers: set[asyncio.Queue] = field(default_factory=set)
    created_at: float = field(default_factory=time.time)
    #: Frozen checkpoint payload awaiting adoption by a worker (rebalance).
    checkpoint: dict[str, Any] | None = None
    #: Last client-supplied sequence number acked, and the ack it got — a
    #: duplicate of ``last_seq`` replays ``last_ack`` instead of processing.
    last_seq: int | None = None
    last_ack: dict[str, Any] | None = None
    #: Stored row (raw observation count, see
    #: :func:`repro.storage.checkpoints.segmenter_row`) up to which results
    #: have been published/acked; the recovery replay republishes only
    #: batches from this frontier on.
    n_acked: int = 0

    @property
    def accepts_non_finite(self) -> bool:
        """True when the stream's policy repairs NaN/inf instead of rejecting.

        Such streams skip the registry's finite-observations rejection: the
        detector-side sanitizer handles (and accounts for) the dirty values.
        """
        policy = self.data_policy or {}
        return policy.get("nan_policy", "reject") != "reject"

    @property
    def duplicate_policy(self) -> str:
        """How stale/duplicate sequence numbers are handled (reject|drop)."""
        policy = self.data_policy or {}
        return str(policy.get("duplicate_policy", "reject"))

    def info(self) -> dict[str, Any]:
        """JSON-safe stream descriptor served by ``GET /streams/{name}``."""
        descriptor = {
            "name": self.name,
            "detector": self.detector,
            "config": self.config,
            "shard": self.shard,
            "frozen": self.frozen,
            "n_seen": int(self.segmenter.n_seen) if self.segmenter is not None else 0,
            "n_events": len(self.history),
            "change_points": [int(cp) for cp in self.segmenter.change_points]
            if self.segmenter is not None
            else [],
        }
        if self.data_policy is not None:
            descriptor["data_policy"] = dict(self.data_policy)
        if self.failed is not None:
            descriptor["failed"] = self.failed
        return descriptor

    def publish(self, payloads: list[dict[str, Any]]) -> None:
        """Append events to the history and fan them out to live subscribers."""
        self.history.append(payloads)
        for queue in list(self.subscribers):
            for payload in payloads:
                queue.put_nowait(payload)

    def commit_batch(
        self, segmenter: Any, n_values: int, elapsed: float, seq: int | None
    ) -> dict[str, Any]:
        """Publish one processed batch's fresh events and build its ack.

        The single bookkeeping path shared by the shard worker's normal
        ingestion and the durability layer's crash-recovery replay: slices
        the detector's event history at the ``n_emitted`` cursor, appends
        the optional per-batch :class:`~repro.api.ScoreEvent`, records
        metrics, fans the payloads out, advances the published/acked
        frontier and — when a sequence number was supplied — caches the ack
        for idempotent replay.
        """
        history = segmenter.events()
        fresh = list(history[self.n_emitted :])
        self.n_emitted = len(history)
        if self.include_scores:
            score = getattr(segmenter, "current_score", None)
            if score is not None:
                fresh.append(ScoreEvent(at=int(segmenter.n_seen), score=float(score)))
        self.metrics.record(n_values, fresh, elapsed)
        payloads = [event.to_dict() for event in fresh]
        self.publish(payloads)
        self.n_acked = segmenter_row(segmenter)
        ack: dict[str, Any] = {
            "name": self.name,
            "n_seen": int(segmenter.n_seen),
            "events": payloads,
        }
        if seq is not None:
            ack["seq"] = seq
            self.last_seq = seq
            self.last_ack = ack
        return ack


class StreamRegistry:
    """All live streams of one service instance, keyed by name.

    Parameters
    ----------
    n_shards:
        Number of shard workers streams are partitioned over.
    max_batch:
        Maximum observations accepted per batch (typed 413 beyond).
    history_window:
        Newest events kept in memory per stream (None = unbounded, the
        pre-storage behaviour).
    history_dir:
        Directory for per-stream event-log spills.  With a finite window
        and no spill directory, evicted events are dropped and stale
        ``?since=`` cursors get a typed 410 ``history-truncated``.

    Raises
    ------
    ConfigurationError
        When ``n_shards``, ``max_batch`` or ``history_window`` is not a
        positive integer.
    """

    def __init__(
        self,
        n_shards: int,
        max_batch: int = DEFAULT_MAX_BATCH,
        *,
        history_window: int | None = DEFAULT_HISTORY_WINDOW,
        history_dir: str | None = None,
    ) -> None:
        if not isinstance(n_shards, int) or isinstance(n_shards, bool) or n_shards < 1:
            raise ConfigurationError("n_shards must be a positive integer")
        if not isinstance(max_batch, int) or max_batch < 1:
            raise ConfigurationError("max_batch must be a positive integer")
        if history_window is not None and (
            not isinstance(history_window, int)
            or isinstance(history_window, bool)
            or history_window < 1
        ):
            raise ConfigurationError("history_window must be a positive integer or None")
        self.n_shards = n_shards
        self.max_batch = max_batch
        self.history_window = history_window
        self.history_dir = history_dir
        self._streams: dict[str, StreamState] = {}

    def _history_for(self, name: str) -> StreamHistory:
        """Build a stream's history per the registry's bounding policy."""
        spill_path = None
        if self.history_dir is not None:
            spill_path = f"{self.history_dir}/{name}.events.log"
        return StreamHistory(window=self.history_window, spill_path=spill_path)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def create_stream(self, name: str, spec: dict[str, Any]) -> StreamState:
        """Create a stream from a JSON spec; validate everything up front.

        ``spec`` accepts ``detector`` (registry key, default ``"class"``),
        ``config`` (the detector's typed-config mapping), ``chunk_size``
        (ingestion chunking), ``include_scores`` (emit a
        :class:`~repro.api.events.ScoreEvent` per processed batch) and
        ``data_policy`` (mapping form of :class:`repro.api.DataPolicy` —
        per-stream dirty-data handling; under a repairing ``nan_policy``
        the finite-observations rejection is relaxed and NaN/inf runs are
        sanitized detector-side instead of 422'd).
        """
        if not isinstance(name, str) or not STREAM_NAME.match(name):
            raise ServiceError(
                400,
                "bad-stream-name",
                f"invalid stream name {name!r}; expected {STREAM_NAME.pattern}",
            )
        if name in self._streams:
            raise ServiceError(409, "stream-exists", f"stream {name!r} already exists")
        if not isinstance(spec, dict):
            raise ServiceError(400, "bad-request", "stream spec must be a JSON object")
        unknown = sorted(
            set(spec) - {"detector", "config", "chunk_size", "include_scores", "data_policy"}
        )
        if unknown:
            raise ServiceError(400, "bad-request", f"unknown stream spec fields: {unknown}")
        detector = spec.get("detector", "class")
        config = spec.get("config", {})
        chunk_size = spec.get("chunk_size")
        if chunk_size is not None and (not isinstance(chunk_size, int) or chunk_size < 1):
            raise ServiceError(400, "bad-request", "chunk_size must be a positive integer")
        if not isinstance(config, dict):
            raise ServiceError(400, "bad-config", "config must be a JSON object")
        data_policy = spec.get("data_policy")
        if data_policy is not None:
            if not isinstance(data_policy, dict):
                raise ServiceError(400, "bad-config", "data_policy must be a JSON object")
            if "data_policy" in config:
                raise ServiceError(
                    400,
                    "bad-config",
                    "data_policy given both as a spec field and inside config",
                )
            config = {**config, "data_policy": data_policy}
        try:
            segmenter = create(detector, config)
        except ReproError as error:  # registry/typed-config validation failures
            raise ServiceError(400, "bad-config", str(error)) from error
        stream = StreamState(
            name=name,
            detector=str(detector),
            config=config,
            segmenter=segmenter,
            shard=shard_for_key(name, self.n_shards),
            chunk_size=chunk_size,
            include_scores=bool(spec.get("include_scores", False)),
            data_policy=config.get("data_policy"),
            history=self._history_for(name),
        )
        self._streams[name] = stream
        return stream

    def get(self, name: str) -> StreamState:
        """The stream registered under ``name``.

        Raises a typed 404 when absent, and a typed 409
        ``stream-unrecoverable`` when its crash recovery failed.
        """
        try:
            stream = self._streams[name]
        except KeyError:
            raise unknown_stream(name) from None
        if stream.failed is not None:
            raise unrecoverable_stream(stream)
        return stream

    def delete(self, name: str) -> StreamState:
        """Remove and return a stream, an unrecoverable one too (typed 404 when absent).

        The stream's history spill files, if any, are deleted with it.
        """
        try:
            stream = self._streams.pop(name)
        except KeyError:
            raise unknown_stream(name) from None
        stream.history.discard()
        return stream

    def list_streams(self) -> list[StreamState]:
        """All streams in creation order."""
        return list(self._streams.values())

    def __len__(self) -> int:
        return len(self._streams)

    # ------------------------------------------------------------------ #
    # payload validation
    # ------------------------------------------------------------------ #

    def parse_observations(self, payload: Any, *, allow_non_finite: bool = False) -> np.ndarray:
        """Validate an observations payload into a float64 array.

        Accepts ``{"values": [...]}`` with a flat list (univariate) or a
        list of equal-length rows (multivariate), plus an optional ``"seq"``
        sequence number (validated by :meth:`parse_sequence`).  Rejects,
        with typed 4xx errors: non-object payloads, missing/empty/ragged
        values, non-numeric entries, NaN/inf entries, and batches beyond
        ``max_batch``.  The finiteness mask is computed in one pass; the
        422 ``non-finite-observations`` detail carries both the first bad
        flat index and its value.  ``allow_non_finite=True`` (used for
        streams whose :class:`repro.api.DataPolicy` repairs dirty values)
        skips that rejection and lets NaN/inf through to the sanitizer.
        """
        if not isinstance(payload, dict) or "values" not in payload:
            raise ServiceError(
                400, "bad-request", "observations payload must be {'values': [...]}"
            )
        unknown = sorted(set(payload) - {"values", "seq"})
        if unknown:
            raise ServiceError(400, "bad-request", f"unknown observation fields: {unknown}")
        values = payload["values"]
        if not isinstance(values, list) or not values:
            raise ServiceError(400, "bad-request", "'values' must be a non-empty JSON array")
        if len(values) > self.max_batch:
            raise ServiceError(
                413,
                "oversized-batch",
                f"batch of {len(values)} observations exceeds the {self.max_batch} limit",
                detail={"max_batch": self.max_batch},
            )
        try:
            array = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise ServiceError(
                422, "bad-observations", "'values' must be numbers (or equal-length rows)",
                detail=str(error),
            ) from error
        if array.ndim not in (1, 2):
            raise ServiceError(
                422, "bad-observations", f"'values' must be 1-d or 2-d, got shape {array.shape}"
            )
        if not allow_non_finite:
            finite = np.isfinite(array).reshape(-1)
            if not finite.all():
                bad = int(np.flatnonzero(~finite)[0])
                raise ServiceError(
                    422,
                    "non-finite-observations",
                    "observations must be finite numbers (no NaN/inf)",
                    detail={
                        "first_bad_index": bad,
                        "first_bad_value": repr(float(array.reshape(-1)[bad])),
                    },
                )
        return array

    @staticmethod
    def parse_sequence(payload: Any) -> int | None:
        """The optional ``"seq"`` sequence number of an observations payload.

        ``seq`` makes batch ingestion idempotent: clients number their
        batches monotonically; a retry of the last acked batch replays the
        cached ack instead of double-processing.  Returns None when absent;
        raises a typed 400 on a non-integer or negative value.
        """
        if not isinstance(payload, dict):
            return None
        seq = payload.get("seq")
        if seq is None:
            return None
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise ServiceError(
                400, "bad-sequence", f"'seq' must be a non-negative integer, got {seq!r}"
            )
        return seq

    # ------------------------------------------------------------------ #
    # event log access
    # ------------------------------------------------------------------ #

    def events_since(self, name: str, cursor: int) -> tuple[list[dict[str, Any]], int]:
        """Event payloads of a stream from ``cursor`` on, plus the next cursor.

        Cursors beyond the memory window are served from the stream's disk
        spill; cursors predating everything retained raise a typed 410
        ``history-truncated`` whose detail carries the ``earliest`` cursor
        that can still be replayed.
        """
        stream = self.get(name)
        if cursor < 0:
            raise ServiceError(400, "bad-request", "'since' must be a non-negative integer")
        try:
            return stream.history.read_since(cursor)
        except HistoryTruncatedError as error:
            raise ServiceError(
                410,
                "history-truncated",
                f"cursor {cursor} predates the retained event history of {name!r}; "
                f"replay from {error.earliest} or enable a history spill directory",
                detail={"earliest": error.earliest, "cursor": int(cursor)},
            ) from error

    @staticmethod
    def typed_events(payloads: list[dict[str, Any]]) -> list:
        """Rebuild typed event objects from logged payloads (audit helper)."""
        return [event_from_dict(dict(payload)) for payload in payloads]
