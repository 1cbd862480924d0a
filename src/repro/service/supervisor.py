"""Shard worker supervision: crash/hang detection, restart, stream recovery.

The :class:`Supervisor` owns the :class:`~repro.service.workers.WorkerPool`
task lifecycle.  Every worker task gets a done-callback; when a task dies
with an exception (an injected :class:`~repro.service.faults.WorkerCrash`,
a per-job deadline timeout, or a genuine bug escaping the job machinery)
the supervisor:

1. immediately swaps an *unstarted* replacement worker into the pool slot —
   new jobs for that shard queue up instead of landing on a dead task — and
   transfers the dead worker's pending jobs (FIFO order preserved, their
   awaiting futures intact);
2. restores every unfrozen stream owned by the shard from its durable
   spool (newest valid checkpoint + write-ahead tail replay, falling back
   past corrupt checkpoint files) — bit-identical to an uninterrupted run;
3. starts the replacement worker, which drains the transferred queue.

The job that crashed has already had its future failed with a retryable 503
``worker-crashed`` error by the dying worker, so the issuing client retries
with backoff; thanks to the write-ahead tail and sequence-number dedup the
retry lands as a replayed ack, never a double ingestion.

Streams without a durability spool survive a restart with their in-memory
detector as-is (best effort — a crash mid-batch may leave it half-mutated);
run the service with durability enabled for the full guarantee.  A stream
whose recovery fails (no intact snapshot) is marked failed instead: its
detector may be half-mutated, so every request for it answers a
non-retryable 409 ``stream-unrecoverable`` and only ``DELETE`` works.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass

from repro.service.faults import WorkerCrash
from repro.utils.exceptions import ConfigurationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision and load-shedding tuning.

    Parameters
    ----------
    max_queue_depth:
        Bound on each shard's job queue; a full queue sheds load with a
        503 ``overloaded`` + ``Retry-After`` (None = unbounded).
    job_deadline:
        Per-job wall-clock deadline in seconds; a job exceeding it counts
        as a worker hang and triggers a restart (None disables).
    retry_after:
        ``Retry-After`` seconds advertised on shed/crashed responses.
    max_restarts:
        Hard cap on restarts per shard (None = unlimited); beyond it the
        supervisor stops reviving the shard and logs an error.
    """

    max_queue_depth: int | None = 256
    job_deadline: float | None = None
    retry_after: float = 0.05
    max_restarts: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range settings."""
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be a positive integer or None")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ConfigurationError("job_deadline must be positive or None")
        if self.retry_after <= 0:
            raise ConfigurationError("retry_after must be positive")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0 or None")


class Supervisor:
    """Watches worker tasks and runs the restart + recovery protocol."""

    def __init__(self, pool, registry, durability=None, config=None) -> None:
        self.pool = pool
        self.registry = registry
        self.durability = durability
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.restarts = [0] * len(pool.workers)
        self.recoveries: list = []
        self.last_recovery_seconds: float | None = None
        self._stopping = False

    @property
    def total_restarts(self) -> int:
        """Worker restarts across all shards since service start."""
        return sum(self.restarts)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start every worker and attach crash watchers."""
        self._stopping = False
        self.pool.start()
        for worker in self.pool.workers:
            self._watch(worker)

    async def stop(self) -> None:
        """Stop watching and cancel every worker."""
        self._stopping = True
        await self.pool.stop()

    def _watch(self, worker) -> None:
        task = worker.task
        if task is not None:
            task.add_done_callback(lambda t, w=worker: self._on_worker_done(w, t))

    # ------------------------------------------------------------------ #
    # the restart protocol
    # ------------------------------------------------------------------ #

    def _on_worker_done(self, worker, task: asyncio.Task) -> None:
        if self._stopping or task.cancelled():
            return
        error = task.exception()
        if error is None:
            return  # clean exit (not expected, but nothing to revive)
        shard = worker.shard
        logger.error(
            "shard worker %d died: %s", shard, error,
            exc_info=error if not isinstance(error, WorkerCrash) else None,
        )
        if (
            self.config.max_restarts is not None
            and self.restarts[shard] >= self.config.max_restarts
        ):
            logger.error(
                "shard %d exceeded max_restarts=%d; not reviving",
                shard, self.config.max_restarts,
            )
            return
        self.restarts[shard] += 1
        # swap in an unstarted replacement synchronously so jobs submitted
        # from now on queue there instead of on the dead task
        replacement = self.pool.replace(shard)
        while not worker.queue.empty():  # transfer pending jobs, FIFO intact
            replacement.queue.put_nowait(worker.queue.get_nowait())
        asyncio.get_running_loop().create_task(
            self._revive(shard, replacement), name=f"revive-shard-{shard}"
        )

    async def _revive(self, shard: int, replacement) -> None:
        """Restore the shard's streams from their spools, then go live."""
        started = time.perf_counter()
        restored = 0
        for stream in self.registry.list_streams():
            if stream.shard != shard or stream.frozen or stream.segmenter is None:
                continue
            if self.durability is None:
                logger.warning(
                    "stream %r has no durability spool; resuming with its "
                    "in-memory detector (crash may have left it inconsistent)",
                    stream.name,
                )
                continue
            try:
                report = self.durability.recover(stream)
            except Exception as error:
                # its detector may be half-mutated: a retried batch would
                # land on top of it, so the stream takes no more requests
                stream.failed = f"recovery failed: {type(error).__name__}: {error}"
                logger.exception("recovery of stream %r failed; marking it failed", stream.name)
                continue
            self.recoveries.append(report)
            restored += 1
            await asyncio.sleep(0)  # stay responsive between CPU-bound replays
        replacement.start()
        self._watch(replacement)
        self.last_recovery_seconds = time.perf_counter() - started
        logger.warning(
            "shard %d back online: %d stream(s) restored in %.3fs (restart #%d)",
            shard, restored, self.last_recovery_seconds, self.restarts[shard],
        )

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Supervision metrics for ``/metrics``."""
        return {
            "worker_restarts": self.total_restarts,
            "restarts_per_shard": list(self.restarts),
            "n_recoveries": len(self.recoveries),
            "last_recovery_seconds": (
                round(self.last_recovery_seconds, 6)
                if self.last_recovery_seconds is not None
                else None
            ),
        }
