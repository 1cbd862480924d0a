"""Sharded, shared-nothing multi-stream execution layer (paper §4.4, scaled out).

The paper's Flink deployment replays each of the 592 benchmark series as an
independent stream through its own ClaSS window operator.  This module
provides the engine-side scale-out for that workload: a
:class:`ShardedPipeline` hash-partitions *keyed* streams across ``n_shards``
independent pipeline replicas.  Every distinct stream key owns a full
``source -> operator* -> sink`` chain (built by per-key factories, reusing
the :class:`~repro.streamengine.records.RecordBatch` routing of the base
engine), chains are assigned to shards by a process-stable hash of their key
(:func:`repro.utils.parallel.shard_for_key`, CRC-32, deliberately not the
per-process-salted builtin ``hash``), and each shard executes its chains with
zero shared state — so shards can run in this process or on the pool of
:func:`repro.utils.parallel.run_ordered` with bit-identical results.

The run returns a :class:`ShardedRunResult` holding per-key metrics and
sinks, an aggregated :class:`~repro.streamengine.pipeline.PipelineMetrics`,
and an *ordered merge* of all sink outputs: records merged across shards and
sorted by ``(stream, timestamp)``, which is identical for every shard count
(including one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.streamengine.pipeline import Pipeline, PipelineMetrics
from repro.streamengine.records import Record, RecordBatch
from repro.streamengine.sinks import CollectSink
from repro.utils.exceptions import ConfigurationError
from repro.utils.parallel import run_ordered, shard_for_key


@dataclass
class KeyedStreamResult:
    """Outcome of one stream key's chain within a sharded run."""

    key: str
    shard: int
    metrics: PipelineMetrics
    sink: object


@dataclass
class ShardedRunResult:
    """All per-key results of one sharded execution, with aggregation helpers."""

    n_shards: int
    results: dict[str, KeyedStreamResult] = field(default_factory=dict)
    wall_seconds: float = 0.0
    shard_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def keys(self) -> list[str]:
        """Stream keys in registration order."""
        return list(self.results)

    @property
    def aggregate(self) -> PipelineMetrics:
        """Pipeline metrics summed over every chain, timed by the whole run.

        ``throughput`` therefore reports end-to-end records per wall-clock
        second — the number a capacity plan needs — while the per-chain
        metrics keep the per-stream view.
        """
        total = PipelineMetrics(runtime_seconds=self.wall_seconds)
        for result in self.results.values():
            total.n_source_records += result.metrics.n_source_records
            total.n_source_batches += result.metrics.n_source_batches
            total.n_sink_records += result.metrics.n_sink_records
            for name, count in result.metrics.operator_counts.items():
                total.operator_counts[name] = total.operator_counts.get(name, 0) + count
            for name, count in result.metrics.operator_batches.items():
                total.operator_batches[name] = total.operator_batches.get(name, 0) + count
        return total

    def merged_records(self) -> list[Record]:
        """Ordered merge of every sink's records across all shards.

        Records are sorted by ``(stream, timestamp)``, so the merged output
        is deterministic and independent of the shard count.  Only sinks
        exposing ``records`` (the :class:`~repro.streamengine.sinks.CollectSink`
        family) contribute.
        """
        merged: list[Record] = []
        for result in self.results.values():
            merged.extend(getattr(result.sink, "records", []))
        merged.sort(key=lambda record: (record.stream, record.timestamp))
        return merged


def _run_chain(
    key: str,
    shard: int,
    sources: list,
    operator_factory: Callable,
    sink_factory: Callable,
) -> KeyedStreamResult:
    """Build and run one stream key's full chain (worker-safe, shared-nothing)."""
    operators = operator_factory(key)
    if not isinstance(operators, (list, tuple)):
        operators = [operators]
    sink = sink_factory(key)
    pipeline = Pipeline(_chain_sources(sources), name=f"shard{shard}::{key}")
    for operator in operators:
        pipeline.add_operator(operator)
    pipeline.add_sink(sink)
    metrics = pipeline.run()
    return KeyedStreamResult(key=key, shard=shard, metrics=metrics, sink=sink)


def _chain_sources(sources: list) -> Iterable:
    """Replay several sources of the same stream key back to back."""
    for source in sources:
        yield from source


def _run_shard(
    task: tuple[int, list[tuple[str, list]], Callable, Callable],
) -> tuple[int, float, list[KeyedStreamResult]]:
    """Run every chain of one ``(shard, jobs, operator_factory, sink_factory)`` task, in order."""
    shard, jobs, operator_factory, sink_factory = task
    start = time.perf_counter()
    results = [
        _run_chain(key, shard, sources, operator_factory, sink_factory)
        for key, sources in jobs
    ]
    return shard, time.perf_counter() - start, results


class ShardedPipeline:
    """Hash-partitioned, shared-nothing execution of many keyed streams.

    Parameters
    ----------
    n_shards:
        Number of independent pipeline replicas.  Must be a positive integer
        (rejected up front, like the CLI rejects a non-positive
        ``--chunk-size``).
    operator_factory:
        ``key -> Operator | [Operator, ...]`` building a fresh operator chain
        per stream key.  Must be picklable for ``run(n_workers > 1)``.
    sink_factory:
        ``key -> sink`` building a fresh sink per stream key (default: a
        :class:`~repro.streamengine.sinks.CollectSink`).
    name:
        Display name used in per-chain pipeline names.
    """

    def __init__(
        self,
        n_shards: int,
        operator_factory: Callable,
        sink_factory: Callable | None = None,
        name: str = "sharded",
    ) -> None:
        if not isinstance(n_shards, int) or isinstance(n_shards, bool) or n_shards < 1:
            raise ConfigurationError("n_shards must be a positive integer")
        self.n_shards = n_shards
        self.operator_factory = operator_factory
        self.sink_factory = sink_factory if sink_factory is not None else _default_sink_factory
        self.name = name
        #: (key, source) pairs in registration order.
        self._sources: list[tuple[str, object]] = []
        #: Interleaved multi-stream record iterables, routed item-by-item.
        self._interleaved: list[Iterable] = []

    # ------------------------------------------------------------------ #

    def add_source(self, source, key: str | None = None) -> "ShardedPipeline":
        """Register one keyed source (fluent API).

        The stream key defaults to the source's ``stream`` attribute (all the
        engine's sources carry one); pass ``key`` explicitly for plain
        iterables.
        """
        if key is None:
            key = getattr(source, "stream", None)
        if key is None:
            raise ConfigurationError(
                "source has no 'stream' attribute; pass key= to route it to a shard"
            )
        self._sources.append((str(key), source))
        return self

    def add_records(self, items: Iterable) -> "ShardedPipeline":
        """Register an interleaved multi-stream iterable, routed record by record.

        Each :class:`Record` / :class:`RecordBatch` is routed to the chain of
        its own ``stream`` key; relative order *within* a key is preserved
        (the usual keyed-stream guarantee), which is why the routing is
        deterministic for every shard count.
        """
        self._interleaved.append(items)
        return self

    def shard_of(self, key: str) -> int:
        """Shard index a stream key is assigned to."""
        return shard_for_key(key, self.n_shards)

    # ------------------------------------------------------------------ #

    def _keyed_jobs(self) -> dict[str, list]:
        """Group registered sources (and routed records) per stream key."""
        jobs: dict[str, list] = {}
        for key, source in self._sources:
            jobs.setdefault(key, []).append(source)
        for items in self._interleaved:
            buckets: dict[str, list] = {}
            for item in items:
                if not isinstance(item, (Record, RecordBatch)):
                    raise ConfigurationError(
                        f"sharded pipeline {self.name!r}: interleaved stream yielded an "
                        f"unsupported item of type {type(item).__name__!r}; expected "
                        "Record or RecordBatch elements"
                    )
                buckets.setdefault(item.stream, []).append(item)
            for key, bucket in buckets.items():
                jobs.setdefault(key, []).append(bucket)
        if not jobs:
            raise ConfigurationError("sharded pipeline has no sources; call add_source first")
        return jobs

    def _shard_assignments(self, jobs: dict[str, list]) -> dict[int, list[tuple[str, list]]]:
        """Assign every key's chain to its shard, keys in registration order."""
        assignments: dict[int, list[tuple[str, list]]] = {}
        for key, sources in jobs.items():
            assignments.setdefault(self.shard_of(key), []).append((key, sources))
        return assignments

    def run(self, n_workers: int | None = None) -> ShardedRunResult:
        """Execute every chain, shard by shard, and return the merged result.

        With ``n_workers`` greater than one, shards run on a process pool
        (shared-nothing: chains, operators and sinks are built from the
        factories inside the workers and shipped back with their final
        state, so factories and sources must be picklable); otherwise shards
        run in-process, in shard order.  Results are keyed by stream and
        bit-identical either way.
        """
        jobs = self._keyed_jobs()
        assignments = self._shard_assignments(jobs)
        result = ShardedRunResult(n_shards=self.n_shards)

        wall_start = time.perf_counter()
        shards = sorted(assignments.items())
        factories = (self.operator_factory, self.sink_factory)
        tasks = [(shard, chains, *factories) for shard, chains in shards]
        names = [f"shard {shard} (streams {[k for k, _ in chains]})" for shard, chains in shards]
        shard_outcomes = run_ordered(_run_shard, tasks, n_workers, names=names)
        by_key: dict[str, KeyedStreamResult] = {}
        for shard, seconds, chain_results in shard_outcomes:
            result.shard_seconds[shard] = seconds
            for chain_result in chain_results:
                by_key[chain_result.key] = chain_result
        # expose results in key registration order regardless of shard layout
        result.results = {key: by_key[key] for key in jobs}
        result.wall_seconds = time.perf_counter() - wall_start
        return result


def _default_sink_factory(key: str) -> CollectSink:
    """Fresh :class:`CollectSink` per stream key (module-level: picklable)."""
    return CollectSink()
