"""The one process pool of the offline runs, and process-stable stream sharding.

Every method x dataset cell of the evaluation grid, every shard of the
sharded stream engine and every channel of a multivariate ensemble is a job
that shares nothing with the others (paper §4.3-4.4).  All three hand their
jobs to :func:`run_ordered`, which returns results in task order, so a
parallel run is bit-identical to the sequential one.  Workers start with the
platform's default method (fork on Linux), which keeps the pool's start-up
cost small next to the work it spreads.
"""

from __future__ import annotations

import numbers
import pickle
import zlib
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.utils.exceptions import ConfigurationError


def shard_for_key(key: str, n_shards: int) -> int:
    """Deterministic, process-stable shard index of a stream key.

    Uses CRC-32 instead of the builtin ``hash`` so the partitioning is
    identical across worker processes and interpreter restarts (builtin
    string hashing is salted per process unless ``PYTHONHASHSEED`` is
    pinned).
    """
    return zlib.crc32(str(key).encode("utf-8")) % n_shards


def run_ordered(
    fn: Callable,
    tasks: Iterable,
    n_workers: int | None,
    *,
    names: Sequence[str] | None = None,
) -> list:
    """Return ``[fn(task) for task in tasks]``, computed on a process pool when asked.

    ``n_workers`` of ``None`` or ``1``, or a single task, run in this process.
    Otherwise ``fn`` and every task must pickle, and the tasks are mapped over
    one pool of ``min(n_workers, len(tasks))`` workers in contiguous chunks,
    about four per worker: large enough to amortise the submission overhead,
    small enough to rebalance skewed task runtimes.  ``names`` label the
    tasks in error messages (default ``"task <i>"``).

    Raises
    ------
    ConfigurationError
        If ``n_workers`` is not a positive integer, or if ``fn`` or a task
        cannot be pickled for a pool run (the message names it).
    """
    tasks = list(tasks)
    if n_workers is not None and (
        isinstance(n_workers, bool) or not isinstance(n_workers, numbers.Integral) or n_workers < 1
    ):
        raise ConfigurationError(f"n_workers must be a positive integer, got {n_workers!r}")
    if n_workers is None or n_workers == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    names = names if names is not None else [f"task {index}" for index in range(len(tasks))]
    for name, value in zip(["the task function", *names], [fn, *tasks]):
        try:
            pickle.dumps(value)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise ConfigurationError(
                f"{name} is not picklable and cannot be dispatched to worker processes "
                f"({error}); use a module-level class or function instead of a "
                "closure/lambda, materialise generator sources, or run with n_workers=1"
            ) from error
    n_workers = min(int(n_workers), len(tasks))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (n_workers * 4))))
