"""Tests for the shared process pool and the stream-key sharding.

``run_ordered`` is the one executor of the evaluation grid, the sharded
stream engine and the multivariate channel fan-out: results come back in
task order for every worker count, misuse fails with a
``ConfigurationError`` that names the culprit, and trivial runs stay in
this process.  ``shard_for_key`` routes service streams, so its values are
pinned.
"""

import os

import pytest

from repro.utils.exceptions import ConfigurationError
from repro.utils.parallel import run_ordered, shard_for_key


def _square_with_pid(task: int) -> tuple[int, int]:
    return task * task, os.getpid()


class TestRunOrdered:
    @pytest.mark.parametrize("n_workers", [None, 1, 2, 3])
    def test_results_keep_task_order(self, n_workers):
        tasks = list(range(11))
        results = run_ordered(_square_with_pid, tasks, n_workers)
        assert [value for value, _ in results] == [task * task for task in tasks]
        pids = {pid for _, pid in results}
        if n_workers is None or n_workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids

    @pytest.mark.parametrize("n_workers", [0, -1, True, 1.5])
    def test_invalid_worker_counts_rejected(self, n_workers):
        with pytest.raises(ConfigurationError, match="n_workers must be a positive integer"):
            run_ordered(_square_with_pid, [1, 2, 3], n_workers)

    def test_unpicklable_task_is_named(self):
        tasks = [1, lambda: None, 3]
        with pytest.raises(ConfigurationError, match="stream 'b' is not picklable"):
            run_ordered(_square_with_pid, tasks, 2, names=["stream 'a'", "stream 'b'", "c"])
        with pytest.raises(ConfigurationError, match="task 1 is not picklable"):
            run_ordered(_square_with_pid, tasks, 2)

    def test_unpicklable_function_rejected(self):
        with pytest.raises(ConfigurationError, match="task function is not picklable"):
            run_ordered(lambda task: task, [1, 2], 2)

    def test_single_task_runs_in_process(self):
        # nothing is pickled in-process: a lambda function and task both work
        results = run_ordered(lambda task: (task(), os.getpid()), [lambda: 7], 4)
        assert results == [(7, os.getpid())]

    def test_no_tasks(self):
        assert run_ordered(_square_with_pid, [], 2) == []


class TestShardForKey:
    def test_values_are_pinned(self):
        # service routing and offline sharded replays depend on these values
        assert shard_for_key("stream_17", 5) == 1
        assert shard_for_key("fleet-00", 5) == 4
        assert shard_for_key("a", 2) == 1
