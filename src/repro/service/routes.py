"""HTTP route table of the segmentation service.

Declarative method + path-pattern dispatch onto async handlers.  Handlers
receive the parsed :class:`~repro.service.protocol.HTTPRequest` and the
path parameters, and return ``(status, json_payload)``; all client failures
are raised as typed :class:`~repro.service.errors.ServiceError` and
rendered by the server.

Endpoints (the full protocol reference lives in ``docs/service.rst``):

========  =================================  =====================================
method    path                               purpose
========  =================================  =====================================
GET       ``/healthz``                       liveness + stream/shard counts
GET       ``/metrics``                       per-stream event counts, p50/p99
GET       ``/streams``                       list streams
POST      ``/streams/{name}``                create a stream from a JSON spec
GET       ``/streams/{name}``                stream info (shard, n_seen, ...)
DELETE    ``/streams/{name}``                drop a stream
POST      ``/streams/{name}/observations``   push a batch; returns fresh events
GET       ``/streams/{name}/events``         event log from ``?since=`` cursor
POST      ``/streams/{name}/freeze``         barrier + checkpoint (stops intake)
POST      ``/streams/{name}/resume``         adopt on ``{"shard": k}`` and resume
POST      ``/streams/{name}/rebalance``      freeze + ship + resume in one call
GET       ``/streams/{name}/ws``             WebSocket upgrade (push + subscribe)
========  =================================  =====================================
"""

from __future__ import annotations

import re
import time
from collections import Counter
from typing import Any, Awaitable, Callable

from repro.service.errors import ServiceError
from repro.service.protocol import HTTPRequest
from repro.service.streams import StreamRegistry, StreamState, quantile
from repro.service.workers import WorkerPool

Handler = Callable[..., Awaitable[tuple[int, Any]]]


class Router:
    """Method + path-pattern dispatch table."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern, Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register a handler for ``method`` on a ``/path/{param}`` pattern."""
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    def match(self, method: str, path: str) -> tuple[Handler, dict[str, str]]:
        """Resolve a request; raise typed 404/405 when nothing matches."""
        allowed: list[str] = []
        for route_method, regex, handler in self._routes:
            found = regex.match(path)
            if not found:
                continue
            if route_method == method:
                return handler, found.groupdict()
            allowed.append(route_method)
        if allowed:
            raise ServiceError(
                405,
                "method-not-allowed",
                f"{method} is not supported on {path}",
                detail={"allowed": sorted(set(allowed))},
            )
        raise ServiceError(404, "unknown-route", f"no route for {method} {path}")


class ServiceRoutes:
    """The service's handlers, bound to one registry + worker pool."""

    def __init__(
        self,
        registry: StreamRegistry,
        pool: WorkerPool,
        supervisor=None,
        durability=None,
        error_counts: Counter | None = None,
    ) -> None:
        self.registry = registry
        self.pool = pool
        self.supervisor = supervisor
        self.durability = durability
        #: Per-error-code counters surfaced by ``/metrics`` (shared with the
        #: connection layer so protocol/worker failures land here too).
        self.error_counts: Counter = error_counts if error_counts is not None else Counter()
        #: Set during graceful shutdown: intake answers 503 ``shutting-down``.
        self.draining = False
        self.started_at = time.time()
        self.router = Router()
        self.router.add("GET", "/healthz", self.healthz)
        self.router.add("GET", "/metrics", self.metrics)
        self.router.add("GET", "/streams", self.list_streams)
        self.router.add("POST", "/streams/{name}", self.create_stream)
        self.router.add("GET", "/streams/{name}", self.stream_info)
        self.router.add("DELETE", "/streams/{name}", self.delete_stream)
        self.router.add("POST", "/streams/{name}/observations", self.push_observations)
        self.router.add("GET", "/streams/{name}/events", self.stream_events)
        self.router.add("POST", "/streams/{name}/freeze", self.freeze_stream)
        self.router.add("POST", "/streams/{name}/resume", self.resume_stream)
        self.router.add("POST", "/streams/{name}/rebalance", self.rebalance_stream)

    # ------------------------------------------------------------------ #
    # service-level endpoints
    # ------------------------------------------------------------------ #

    async def healthz(self, request: HTTPRequest) -> tuple[int, Any]:
        """Liveness probe: always 200 while the server accepts connections."""
        return 200, {
            "status": "ok",
            "n_streams": len(self.registry),
            "n_shards": self.registry.n_shards,
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }

    async def metrics(self, request: HTTPRequest) -> tuple[int, Any]:
        """Service metrics: per-stream counts and latency quantiles, shards,
        per-error-code counters, worker restarts and checkpoint ages."""
        streams = {}
        all_latencies: list[float] = []
        total_events = 0
        total_observations = 0
        checkpoint_age_by_shard: dict[int, float] = {}
        for stream in self.registry.list_streams():
            snapshot = stream.metrics.snapshot()
            snapshot["shard"] = stream.shard
            snapshot["frozen"] = stream.frozen
            snapshot["failed"] = stream.failed is not None
            counters = getattr(stream.segmenter, "quality_counters", None)
            if callable(counters):  # policy-wrapped detector: dirty-data accounting
                snapshot["quality"] = counters()
            if self.durability is not None:
                age = self.durability.checkpoint_age(stream.name)
                snapshot["last_checkpoint_age_seconds"] = (
                    round(age, 3) if age is not None else None
                )
                if age is not None:
                    previous = checkpoint_age_by_shard.get(stream.shard)
                    # worst-case staleness per shard: the oldest last-checkpoint
                    checkpoint_age_by_shard[stream.shard] = max(previous or 0.0, age)
            streams[stream.name] = snapshot
            all_latencies.extend(stream.metrics.latencies)
            total_events += snapshot["n_events"]
            total_observations += snapshot["n_observations"]
        workers = self.pool.snapshot()
        for entry in workers:
            age = checkpoint_age_by_shard.get(entry["shard"])
            entry["last_checkpoint_age_seconds"] = round(age, 3) if age is not None else None
            if self.supervisor is not None:
                entry["restarts"] = self.supervisor.restarts[entry["shard"]]
        uptime = max(time.time() - self.started_at, 1e-9)
        payload = {
            "uptime_seconds": round(uptime, 3),
            "n_streams": len(self.registry),
            "n_failed_streams": sum(stream["failed"] for stream in streams.values()),
            "total_observations": total_observations,
            "total_events": total_events,
            "observations_per_second": round(total_observations / uptime, 3),
            "event_latency_p50_ms": _ms(quantile(all_latencies, 0.50)),
            "event_latency_p99_ms": _ms(quantile(all_latencies, 0.99)),
            "errors": dict(self.error_counts),
            "workers": workers,
            "streams": streams,
        }
        if self.supervisor is not None:
            payload.update(self.supervisor.snapshot())
        return 200, payload

    # ------------------------------------------------------------------ #
    # stream lifecycle
    # ------------------------------------------------------------------ #

    async def list_streams(self, request: HTTPRequest) -> tuple[int, Any]:
        """All streams with their routing and progress descriptors."""
        return 200, {"streams": [stream.info() for stream in self.registry.list_streams()]}

    async def create_stream(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Create a named stream from ``{"detector": ..., "config": {...}}``."""
        if self.draining:
            raise ServiceError(
                503, "shutting-down", "service is draining; no new streams", retry_after=1.0
            )
        spec = request.json("stream spec") if request.body else {}
        stream = self.registry.create_stream(name, spec)
        if self.durability is not None:
            self.durability.register(stream)
        return 201, stream.info()

    async def stream_info(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Routing, progress and change points of one stream."""
        return 200, self.registry.get(name).info()

    async def delete_stream(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Drop a stream; its in-flight batches finish, then it is gone."""
        stream = self.registry.delete(name)
        for queue in list(stream.subscribers):
            queue.put_nowait(None)  # wake subscribers so their sockets close
        if self.durability is not None:
            self.durability.discard(name)
        return 200, {"deleted": name}

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #

    async def push_observations(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Validate and ingest one observation batch; return fresh events."""
        stream = self.registry.get(name)
        return 200, await self.ingest(stream, request.json("observations payload"))

    async def ingest(self, stream: StreamState, document: Any) -> dict[str, Any]:
        """The shared HTTP/WebSocket ingestion path: validate, dedup, process.

        Returns the ack body (``name``, ``n_seen``, fresh ``events``, the
        echoed ``seq`` when supplied).  A duplicate of the last acked
        sequence number short-circuits here with the cached ack (and the
        check is repeated authoritatively inside the serialized worker, so
        two concurrent duplicates cannot both process).  Raises typed
        errors for frozen streams, drained service, malformed payloads and
        full shard queues.
        """
        if self.draining:
            raise ServiceError(
                503, "shutting-down", "service is draining; retry elsewhere", retry_after=1.0
            )
        if stream.frozen:
            raise ServiceError(
                409, "stream-frozen", f"stream {stream.name!r} is frozen; resume it first"
            )
        document_seq = self.registry.parse_sequence(document)
        values = self.registry.parse_observations(
            document, allow_non_finite=stream.accepts_non_finite
        )
        if (
            document_seq is not None
            and stream.last_seq is not None
            and document_seq == stream.last_seq
            and stream.last_ack is not None
        ):
            return {**stream.last_ack, "replayed": True}
        return await self.pool.process(stream, values, seq=document_seq)

    async def stream_events(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """The stream's event log from the ``?since=`` cursor on."""
        raw = request.query.get("since", "0")
        try:
            cursor = int(raw)
        except ValueError:
            raise ServiceError(400, "bad-request", f"'since' must be an integer, got {raw!r}")
        events, next_cursor = self.registry.events_since(name, cursor)
        return 200, {"name": name, "events": events, "next": next_cursor}

    # ------------------------------------------------------------------ #
    # elastic rebalancing
    # ------------------------------------------------------------------ #

    async def freeze_stream(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Stop intake, drain in-flight batches, checkpoint the detector."""
        stream = self.registry.get(name)
        if stream.frozen:
            raise ServiceError(409, "stream-frozen", f"stream {name!r} is already frozen")
        stream.frozen = True  # stops new intake; queued batches still drain
        outcome = await self.pool.freeze(stream)
        outcome["shard"] = stream.shard
        return 200, outcome

    async def resume_stream(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Adopt a frozen stream on a (possibly different) shard worker."""
        stream = self.registry.get(name)
        if not stream.frozen or stream.checkpoint is None:
            raise ServiceError(409, "not-frozen", f"stream {name!r} is not frozen")
        shard = self._target_shard(request, default=stream.shard)
        outcome = await self.pool.adopt(stream, shard)
        return 200, outcome

    async def rebalance_stream(self, request: HTTPRequest, name: str) -> tuple[int, Any]:
        """Freeze, ship and resume in one call: ``{"shard": k}``."""
        stream = self.registry.get(name)
        if stream.frozen:
            raise ServiceError(409, "stream-frozen", f"stream {name!r} is frozen; resume it")
        shard = self._target_shard(request, default=None)
        if shard is None:
            raise ServiceError(400, "bad-request", "rebalance needs {'shard': <int>}")
        if shard == stream.shard:
            raise ServiceError(
                409, "same-shard", f"stream {name!r} already lives on shard {shard}"
            )
        stream.frozen = True
        await self.pool.freeze(stream)
        outcome = await self.pool.adopt(stream, shard)
        outcome["rebalanced"] = True
        return 200, outcome

    def _target_shard(self, request: HTTPRequest, default: int | None) -> int | None:
        """Parse and range-check the optional ``{"shard": k}`` body field."""
        if not request.body:
            return default
        payload = request.json("shard spec")
        if not isinstance(payload, dict):
            raise ServiceError(400, "bad-request", "shard spec must be a JSON object")
        shard = payload.get("shard", default)
        if shard is None:
            return default
        if not isinstance(shard, int) or isinstance(shard, bool):
            raise ServiceError(400, "bad-request", "'shard' must be an integer")
        if not 0 <= shard < self.registry.n_shards:
            raise ServiceError(
                400,
                "bad-request",
                f"'shard' must lie in [0, {self.registry.n_shards}), got {shard}",
            )
        return shard


def _ms(seconds: float | None) -> float | None:
    """Seconds → milliseconds rounded for display (None passes through)."""
    return None if seconds is None else round(seconds * 1e3, 3)
