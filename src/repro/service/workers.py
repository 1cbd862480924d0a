"""Asyncio shard workers: serialized detector execution + fault tolerance.

Every stream is owned by exactly one :class:`ShardWorker` at a time (the
CRC-32 assignment from :mod:`repro.service.streams`, until a rebalance moves
it).  A worker is a single asyncio task draining a FIFO job queue, so all
mutation of a stream's detector is serialized — batches of one stream are
processed in arrival order, and a ``freeze`` job doubles as a barrier: by
the time it runs, every batch enqueued before it has been fully processed.

Job kinds:

* ``process`` — run one observation batch through the detector (chunked via
  the stream's ``chunk_size``), collect the *new* typed events from the
  detector's history, stamp batch latency into the stream metrics and fan
  the events out to subscribers.  With durability enabled the batch is
  appended to the stream's write-ahead tail (fsynced) *before* any detector
  mutation, and a periodic checkpoint may fire afterwards.  Client-supplied
  sequence numbers make the job idempotent: a duplicate of the last acked
  batch returns the cached ack instead of double-processing.
* ``freeze``  — serialise the detector (``save_state()``) and park the
  payload on the stream; the stream stops accepting observations.
* ``adopt``   — rebuild the detector from a frozen payload via the
  checkpoint layer's :func:`~repro.api.checkpoint.restore` (the payload is
  pickle round-tripped first, i.e. genuinely *shipped*), attach it to the
  stream and resume — bit-identical to an uninterrupted run.

Failure containment: an *expected* job failure (a typed
:class:`~repro.service.errors.ServiceError`, bad state, a detector raising)
fails only that job's future — the traceback is logged, the error counter
incremented, and the worker keeps draining.  An injected
:class:`~repro.service.faults.WorkerCrash` or a per-job deadline timeout
kills the worker task itself; the in-flight job's future gets a retryable
503 ``worker-crashed`` and the :mod:`~repro.service.supervisor` restarts
the shard, restoring its streams from their durable spools.

Load shedding: each queue is bounded (``max_queue_depth``); a full queue
rejects the submit with a 503 ``overloaded`` carrying ``Retry-After``, so
clients back off instead of growing an unbounded backlog.
"""

from __future__ import annotations

import asyncio
import logging
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.api import restore
from repro.api.protocol import iter_chunks
from repro.service.errors import ServiceError
from repro.service.faults import WorkerCrash
from repro.service.streams import StreamState

logger = logging.getLogger(__name__)


@dataclass
class _Job:
    """One unit of serialized work bound for a shard worker."""

    kind: str
    stream: StreamState
    values: np.ndarray | None = None
    payload: dict | None = None
    #: Client-supplied sequence number for idempotent ingestion (optional).
    seq: int | None = None
    #: Enqueue timestamp — event latency is measured from here, so it
    #: includes time spent queued behind other streams on the same shard.
    created_at: float = field(default_factory=time.perf_counter)
    future: asyncio.Future = field(
        default_factory=lambda: asyncio.get_running_loop().create_future()
    )


class ShardWorker:
    """One shard's executor: a FIFO queue drained by a single asyncio task."""

    def __init__(
        self,
        shard: int,
        *,
        max_queue_depth: int | None = None,
        job_deadline: float | None = None,
        retry_after: float = 0.05,
        durability=None,
        faults=None,
        on_error: Callable[[str], None] | None = None,
    ) -> None:
        self.shard = shard
        self.queue: asyncio.Queue[_Job] = asyncio.Queue(maxsize=max_queue_depth or 0)
        self.max_queue_depth = max_queue_depth
        self.job_deadline = job_deadline
        self.retry_after = retry_after
        self.durability = durability
        self.faults = faults
        self.on_error = on_error or (lambda code: None)
        self.n_jobs = 0
        self.task: asyncio.Task | None = None

    def start(self) -> None:
        """Spawn the drain task (idempotent)."""
        if self.task is None:
            self.task = asyncio.create_task(self._run(), name=f"shard-worker-{self.shard}")

    async def stop(self) -> None:
        """Cancel the drain task and wait for it to finish."""
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
            except Exception:
                pass  # task already died; the supervisor logged the cause
            self.task = None

    def submit_nowait(self, job: _Job) -> asyncio.Future:
        """Enqueue a job, shedding load with a typed 503 when the queue is full."""
        try:
            self.queue.put_nowait(job)
        except asyncio.QueueFull:
            raise ServiceError(
                503,
                "overloaded",
                f"shard {self.shard} queue is full ({self.queue.qsize()} jobs); retry later",
                detail={"shard": self.shard, "max_queue_depth": self.max_queue_depth},
                retry_after=self.retry_after,
            ) from None
        return job.future

    async def submit(self, job: _Job) -> Any:
        """Enqueue a job (waiting for queue room) and await its result."""
        await self.queue.put(job)
        return await job.future

    async def _run(self) -> None:
        while True:
            job = await self.queue.get()
            self.n_jobs += 1
            try:
                if self.job_deadline is not None:
                    result = await asyncio.wait_for(self._execute(job), self.job_deadline)
                else:
                    result = await self._execute(job)
            except asyncio.CancelledError:
                self.queue.task_done()
                raise
            except (WorkerCrash, asyncio.TimeoutError, TimeoutError) as error:
                # the worker itself dies: fail the in-flight job with a
                # retryable 503 and let the supervisor restart + recover
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError(
                            503,
                            "worker-crashed",
                            f"shard {self.shard} worker died mid-job; retry after recovery",
                            detail={"shard": self.shard, "cause": str(error) or type(error).__name__},
                            retry_after=self.retry_after,
                        )
                    )
                self.queue.task_done()
                if isinstance(error, WorkerCrash):
                    raise
                raise WorkerCrash(
                    f"shard {self.shard} job exceeded the {self.job_deadline}s deadline"
                ) from error
            except ServiceError as error:  # expected client error: no traceback
                if not job.future.done():
                    job.future.set_exception(error)
                self.queue.task_done()
            except Exception as error:  # job fails; worker survives
                logger.exception(
                    "shard %d job %r on stream %r failed",
                    self.shard, job.kind, job.stream.name,
                )
                self.on_error("worker-job-error")
                if not job.future.done():
                    job.future.set_exception(error)
                self.queue.task_done()
            else:
                if not job.future.done():
                    job.future.set_result(result)
                self.queue.task_done()
            # yield to the event loop between CPU-bound jobs so accepted
            # connections and other shards' handlers stay responsive
            await asyncio.sleep(0)

    # ------------------------------------------------------------------ #

    async def _execute(self, job: _Job) -> Any:
        if self.faults is not None:
            await self.faults.before_job(self.shard, job.kind, job.stream.name)
        if job.kind == "process":
            return self._process(job.stream, job.values, job.seq, job.created_at)
        if job.kind == "freeze":
            return self._freeze(job.stream)
        if job.kind == "adopt":
            return self._adopt(job.stream, job.payload)
        raise RuntimeError(f"unknown shard job kind {job.kind!r}")

    def _process(
        self,
        stream: StreamState,
        values: np.ndarray,
        seq: int | None,
        enqueued_at: float,
    ) -> dict:
        """Ingest one batch; return its ack body (name, n_seen, fresh events)."""
        # authoritative idempotency check, serialized with all mutation
        if seq is not None and stream.last_seq is not None:
            if seq == stream.last_seq and stream.last_ack is not None:
                return {**stream.last_ack, "replayed": True}
            if seq <= stream.last_seq:
                if stream.duplicate_policy == "drop":
                    # policy says stale batches are expected (e.g. at-least-once
                    # upstreams): count + ack without touching detector state
                    stream.metrics.n_dropped_batches += 1
                    return {
                        "name": stream.name,
                        "n_seen": int(stream.segmenter.n_seen),
                        "events": [],
                        "seq": seq,
                        "dropped": True,
                    }
                raise ServiceError(
                    409,
                    "stale-sequence",
                    f"batch seq {seq} is behind the last acked seq {stream.last_seq}",
                    detail={"last_seq": stream.last_seq},
                )
        if self.durability is not None:
            # write-ahead: the accepted batch is durable before any mutation
            self.durability.log_batch(stream, values, seq)
        segmenter = stream.segmenter
        chunk_size = stream.chunk_size or values.shape[0]
        for index, chunk in enumerate(iter_chunks(values, chunk_size)):
            if self.faults is not None and index > 0:
                self.faults.mid_batch(self.shard, stream.name)
            segmenter.process(chunk)
        elapsed = time.perf_counter() - enqueued_at
        ack = stream.commit_batch(segmenter, int(values.shape[0]), elapsed, seq)
        if self.durability is not None:
            self.durability.maybe_checkpoint(stream)
        return ack

    def _freeze(self, stream: StreamState) -> dict:
        """Serialise the detector state; park it on the stream for adoption."""
        payload = stream.segmenter.save_state()
        stream.checkpoint = payload
        stream.segmenter = None  # ownership moves with the payload
        return {
            "name": stream.name,
            "frozen": True,
            "checkpoint_format": payload.get("format"),
        }

    def _adopt(self, stream: StreamState, payload: dict) -> dict:
        """Rebuild the detector from a shipped checkpoint payload; go live."""
        shipped = pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        segmenter = restore(shipped)
        stream.segmenter = segmenter
        stream.checkpoint = None
        stream.shard = self.shard
        stream.frozen = False
        return {
            "name": stream.name,
            "frozen": False,
            "shard": self.shard,
            "n_seen": int(segmenter.n_seen),
        }


class WorkerPool:
    """The service's fixed set of shard workers, indexed by shard id."""

    def __init__(
        self,
        n_shards: int,
        *,
        max_queue_depth: int | None = None,
        job_deadline: float | None = None,
        retry_after: float = 0.05,
        durability=None,
        faults=None,
        on_error: Callable[[str], None] | None = None,
    ) -> None:
        self._settings = dict(
            max_queue_depth=max_queue_depth,
            job_deadline=job_deadline,
            retry_after=retry_after,
            durability=durability,
            faults=faults,
            on_error=on_error,
        )
        self.workers = [ShardWorker(shard, **self._settings) for shard in range(n_shards)]

    def start(self) -> None:
        """Start every worker's drain task."""
        for worker in self.workers:
            worker.start()

    async def stop(self) -> None:
        """Stop every worker."""
        for worker in self.workers:
            await worker.stop()

    def replace(self, shard: int) -> ShardWorker:
        """Swap an *unstarted* replacement worker into a shard slot.

        Used by the supervisor after a crash: jobs submitted from now on
        queue on the replacement; the caller transfers pending jobs and
        starts the task once stream recovery is done.
        """
        replacement = ShardWorker(shard, **self._settings)
        replacement.n_jobs = self.workers[shard].n_jobs
        self.workers[shard] = replacement
        return replacement

    def worker_for(self, stream: StreamState) -> ShardWorker:
        """The worker currently owning a stream (by its ``shard`` field)."""
        return self.workers[stream.shard]

    async def process(
        self, stream: StreamState, values: np.ndarray, seq: int | None = None
    ) -> dict:
        """Run one batch on the stream's current worker; return its ack body.

        Sheds load with a 503 ``overloaded`` when the shard queue is full
        (the job is never enqueued).
        """
        future = self.worker_for(stream).submit_nowait(
            _Job(kind="process", stream=stream, values=values, seq=seq)
        )
        return await future

    async def freeze(self, stream: StreamState) -> dict:
        """Barrier-freeze a stream on its current worker."""
        return await self.worker_for(stream).submit(_Job(kind="freeze", stream=stream))

    async def adopt(self, stream: StreamState, shard: int) -> dict:
        """Hand a frozen stream's checkpoint to ``shard`` and resume there."""
        return await self.workers[shard].submit(
            _Job(kind="adopt", stream=stream, payload=stream.checkpoint)
        )

    async def drain(self) -> None:
        """Wait until every shard queue is fully processed (shutdown barrier)."""
        for worker in self.workers:
            await worker.queue.join()

    def snapshot(self) -> list[dict]:
        """Per-worker queue depth and served-job counters for ``/metrics``."""
        return [
            {"shard": worker.shard, "queue_depth": worker.queue.qsize(), "n_jobs": worker.n_jobs}
            for worker in self.workers
        ]
