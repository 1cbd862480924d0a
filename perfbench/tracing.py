"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` keeps spans ``(name, start, end, parent)`` in memory (up to
:data:`KEEP_SPANS`; the per-name aggregates stay exact beyond that) and derives
each span's self time as its duration minus the time its child spans
cover.  The ``install_*`` functions wrap the public functions of one layer
each — kernels, k-NN, scoring, significance, the segmenter, the stream
driver and sanitizer, storage, the service — by replacing the attribute
the program looks up at call time.  No program source is edited; the
wrappers live only in the process that installed them.

:func:`layer_metrics` turns a tracer's aggregates into the per-layer
metrics of ``BENCHMARK.json``.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from common import quantile

#: Kernel entry points reported one by one (``rank_smallest`` stays in the
#: k-NN's self time).
KERNELS = ("extend_shrink", "similarity", "topk_newest", "insert_newest", "fused_split_scores")
#: Spans kept one by one; beyond this only the per-name totals grow, which
#: bounds memory on runs with millions of kernel calls.
KEEP_SPANS = 100_000


class Tracer:
    """In-memory span recorder with exact per-name totals."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.origin = perf_counter()
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.last: dict[str, object] = {}

    def begin(self, name: str) -> None:
        start = perf_counter()
        index = -1
        if len(self.spans) < KEEP_SPANS:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, start - self.origin, None, parent])
        self._stack.append([name, start, 0.0, index])

    def end(self) -> float:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end - self.origin
        return duration

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn, sample: str | None = None):
        """A coroutine function with no suspension point inside, in a span."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            self.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                duration = self.end()
                if sample is not None:
                    self.samples[sample].append(duration * 1e3)

        return traced

    def drain(self, name: str, generator):
        """One span over the whole consumption of ``generator``."""
        self.begin(name)
        try:
            yield from generator
        finally:
            self.end()

    def per_item(self, name: str, generator):
        """One span per ``next()`` of ``generator`` (the time to produce an item)."""
        iterator = iter(generator)
        try:
            while True:
                self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end()
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "samples": {key: list(values) for key, values in self.samples.items()},
        }

    def merge(self, summary: dict) -> None:
        """Add another process's :meth:`summary` into this tracer's totals."""
        for key, value in summary["inclusive"].items():
            self.inclusive[key] += value
        for key, value in summary["self"].items():
            self.self_s[key] += value
        self.calls.update(summary["calls"])
        self.counters.update(summary["counters"])
        for key, values in summary["samples"].items():
            self.samples[key].extend(values)

    def dump(self, path: Path) -> None:
        """Write aggregates, then one span per line: ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.summary()) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @staticmethod
    def load_summary(path: Path) -> dict:
        with open(path, encoding="utf-8") as handle:
            return json.loads(handle.readline())


def _patch(owner, attribute: str, wrapper) -> None:
    setattr(owner, attribute, wrapper(getattr(owner, attribute)))


# ---------------------------------------------------------------------- #
# layer installers


def install_core(tracer: Tracer) -> None:
    """Kernels, k-NN, scoring, significance, ClaSS and its width learner.

    Install before any detector is built: the k-NN caches its similarity
    kernel at construction.
    """
    from repro.core import class_segmenter
    from repro.core.class_segmenter import ClaSS
    from repro.core.kernels import get_backend
    from repro.core.significance import ChangePointSignificanceTest
    from repro.core.streaming_knn import StreamingKNN

    backend = get_backend("auto")
    for name in ("extend_shrink", "topk_newest", "insert_newest", "fused_split_scores"):
        _patch(backend, name, functools.partial(tracer.wrap, f"kernels.{name}"))
    similarity_kernel = backend.similarity_kernel
    backend.similarity_kernel = lambda measure: tracer.wrap(
        "kernels.similarity", similarity_kernel(measure)
    )

    update_many = StreamingKNN.update_many

    def traced_update_many(self, values):
        chunk = update_many(self, values)
        if not tracer.enabled:
            return chunk
        tracer.counters["knn.obs"] += len(values)
        return tracer.drain("knn", chunk)

    StreamingKNN.update_many = traced_update_many

    def count_subsequences(args, result):
        tracer.counters["scoring.subsequences"] += len(args[0])

    _patch(
        class_segmenter,
        "cross_val_scores_from_thresholds",
        lambda fn: tracer.wrap("scoring", fn, count_subsequences),
    )

    def count_passed(args, result):
        tracer.counters["significance.passed"] += int(bool(result.significant))

    _patch(
        ChangePointSignificanceTest,
        "test",
        lambda fn: tracer.wrap("significance", fn, count_passed),
    )
    _patch(
        class_segmenter,
        "learn_subsequence_width",
        functools.partial(tracer.wrap, "warmup.width"),
    )
    _patch(ClaSS, "process", functools.partial(tracer.wrap, "class.process"))
    _patch(ClaSS, "events", functools.partial(tracer.wrap, "stream.events"))


def install_sanitizer(tracer: Tracer) -> None:
    """The dirty-data sanitizer and the wrapped detector's event rebuild."""
    from repro.api.quality import SanitizingSegmenter
    from repro.core.quality import Sanitizer

    def remember(args, result):
        tracer.last["sanitizer"] = args[0]

    _patch(Sanitizer, "feed", lambda fn: tracer.wrap("sanitizer.feed", fn, remember))
    _patch(SanitizingSegmenter, "process", functools.partial(tracer.wrap, "sanitizer.process"))
    _patch(SanitizingSegmenter, "events", functools.partial(tracer.wrap, "stream.events"))


def install_storage(tracer: Tracer) -> None:
    """Chunk store ingest/reads, checkpoint index, event log, restore."""
    from repro.storage import store as store_module
    from repro.storage.checkpoints import CheckpointIndex
    from repro.storage.chunkstore import StoredStream
    from repro.storage.eventlog import EventLog
    from repro.storage.store import StreamStore

    def count_ingest(args, result):
        tracer.counters["storage.ingest_bytes"] += int(result.nbytes)

    _patch(StreamStore, "ingest", lambda fn: tracer.wrap("storage.ingest", fn, count_ingest))

    iter_chunks = StoredStream.iter_chunks

    def traced_iter_chunks(self, *args, **kwargs):
        chunks = iter_chunks(self, *args, **kwargs)
        return tracer.per_item("storage.read", chunks) if tracer.enabled else chunks

    StoredStream.iter_chunks = traced_iter_chunks

    def count_checkpoint(args, result):
        tracer.counters["storage.checkpoint_bytes"] += Path(result).stat().st_size

    _patch(
        CheckpointIndex,
        "add",
        lambda fn: tracer.wrap("storage.checkpoint", fn, count_checkpoint),
    )
    _patch(
        CheckpointIndex,
        "load_at_or_before",
        functools.partial(tracer.wrap, "storage.restore"),
    )
    _patch(store_module, "restore", functools.partial(tracer.wrap, "storage.restore"))
    _patch(EventLog, "append_event", functools.partial(tracer.wrap, "storage.eventlog_append"))


def install_service(tracer: Tracer, services: list) -> None:
    """Parse, shard job, WAL, checkpoint, encode and scrape of the server.

    Every :class:`SegmentationService` built afterwards is appended to
    ``services`` so its error counters can be read at exit.
    """
    from repro.service import server as server_module
    from repro.service.durability import DurabilityManager, StreamSpool
    from repro.service.protocol import HTTPRequest
    from repro.service.routes import ServiceRoutes
    from repro.service.streams import StreamRegistry
    from repro.service.workers import ShardWorker

    init = server_module.SegmentationService.__init__

    def remember_service(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    server_module.SegmentationService.__init__ = remember_service

    _patch(HTTPRequest, "json", functools.partial(tracer.wrap, "service.parse"))
    _patch(StreamRegistry, "parse_observations", functools.partial(tracer.wrap, "service.parse"))
    _patch(server_module, "render_response", functools.partial(tracer.wrap, "service.encode"))
    _patch(DurabilityManager, "log_batch", functools.partial(tracer.wrap, "service.wal"))
    _patch(DurabilityManager, "checkpoint", functools.partial(tracer.wrap, "service.checkpoint"))

    def count_checkpoint(args, result):
        tracer.counters["service.checkpoint_bytes"] += Path(result).stat().st_size

    _patch(
        StreamSpool,
        "write_checkpoint",
        lambda fn: tracer.wrap("service.checkpoint_write", fn, count_checkpoint),
    )
    process = ShardWorker._process

    def traced_process(self, stream, values, seq, enqueued_at):
        if tracer.enabled:
            tracer.samples["service.queue_wait_ms"].append((perf_counter() - enqueued_at) * 1e3)
            depth = self.queue.qsize()
            if depth > tracer.counters["service.queue_depth_max"]:
                tracer.counters["service.queue_depth_max"] = depth
        return process(self, stream, values, seq, enqueued_at)

    ShardWorker._process = tracer.wrap("service.job", traced_process)
    ServiceRoutes.metrics = tracer.wrap_async(
        "service.metrics", ServiceRoutes.metrics, sample="service.metrics_scrape_ms"
    )


# ---------------------------------------------------------------------- #
# per-layer metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(samples: list[float], q: float) -> float:
    return quantile(samples, q) if samples else 0.0


def layer_metrics(tracer: Tracer) -> list[tuple[str, str, float, str]]:
    """``(layer, metric, value, unit)`` for every per-layer metric."""
    inc, own, calls, counters = tracer.inclusive, tracer.self_s, tracer.calls, tracer.counters
    knn_obs = counters["knn.obs"]
    kernel_calls = sum(calls[f"kernels.{name}"] for name in KERNELS)
    rows = [("repro.core.kernels", "kernels.calls_per_obs", _ratio(kernel_calls, knn_obs), "calls/obs")]
    rows += [
        ("repro.core.kernels", f"kernels.{name}.self_s", own[f"kernels.{name}"], "s")
        for name in KERNELS
    ]
    tests = calls["significance"]
    ingest_s = inc["storage.ingest"]
    rows += [
        ("repro.core.streaming_knn", "knn.obs", knn_obs, "count"),
        ("repro.core.streaming_knn", "knn.self_s", own["knn"], "s"),
        ("repro.core.streaming_knn", "knn.us_per_obs", _ratio(inc["knn"] * 1e6, knn_obs), "us/obs"),
        ("repro.core.cross_val", "scoring.passes", calls["scoring"], "count"),
        ("repro.core.cross_val", "scoring.subsequences", counters["scoring.subsequences"], "count"),
        ("repro.core.cross_val", "scoring.self_s", own["scoring"], "s"),
        ("repro.core.significance", "significance.tests", tests, "count"),
        (
            "repro.core.significance",
            "significance.passed",
            _ratio(counters["significance.passed"], tests),
            "fraction",
        ),
        ("repro.core.significance", "significance.self_s", own["significance"], "s"),
        ("repro.core.class_segmenter", "class.self_s", own["class.process"], "s"),
        ("repro.core.window_size", "warmup.width_s", inc["warmup.width"], "s"),
        ("repro.core.quality", "sanitizer.feed_s", inc["sanitizer.feed"], "s"),
        ("repro.core.quality", "sanitizer.repaired_obs", counters["sanitizer.repaired_obs"], "count"),
        ("repro.api.stream", "stream.events_s", inc["stream.events"], "s"),
        ("repro.api.stream", "stream.driver_self_s", own["stream.driver"], "s"),
        ("repro.service", "service.parse_s", inc["service.parse"], "s"),
        (
            "repro.service",
            "service.queue_wait_ms_p50",
            _p(tracer.samples["service.queue_wait_ms"], 0.50),
            "ms",
        ),
        (
            "repro.service",
            "service.queue_wait_ms_p99",
            _p(tracer.samples["service.queue_wait_ms"], 0.99),
            "ms",
        ),
        ("repro.service", "service.compute_s", inc["class.process"] if calls["service.job"] else 0.0, "s"),
        ("repro.service", "service.wal_s", inc["service.wal"], "s"),
        ("repro.service", "service.checkpoint_s", inc["service.checkpoint"], "s"),
        ("repro.service", "service.checkpoint_bytes", counters["service.checkpoint_bytes"], "bytes"),
        ("repro.service", "service.encode_s", inc["service.encode"], "s"),
        (
            "repro.service",
            "service.metrics_scrape_ms_p99",
            _p(tracer.samples["service.metrics_scrape_ms"], 0.99),
            "ms",
        ),
        ("repro.service", "service.queue_depth_max", counters["service.queue_depth_max"], "count"),
        ("repro.service", "service.rejected", counters["service.rejected"], "count"),
        ("repro.storage", "storage.ingest_s", ingest_s, "s"),
        (
            "repro.storage",
            "storage.ingest_mb_per_s",
            _ratio(counters["storage.ingest_bytes"] / 1e6, ingest_s),
            "MB/s",
        ),
        ("repro.storage", "storage.read_s", inc["storage.read"], "s"),
        ("repro.storage", "storage.checkpoints", calls["storage.checkpoint"], "count"),
        ("repro.storage", "storage.checkpoint_s", inc["storage.checkpoint"], "s"),
        ("repro.storage", "storage.checkpoint_bytes", counters["storage.checkpoint_bytes"], "bytes"),
        ("repro.storage", "storage.eventlog_append_s", inc["storage.eventlog_append"], "s"),
        ("repro.storage", "storage.restore_s", inc["storage.restore"], "s"),
    ]
    return rows
