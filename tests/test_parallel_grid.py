"""Equivalence and accounting tests for the process-pool evaluation grid.

The contract under test: ``run_experiment(..., n_workers=k)`` produces
records bit-identical to the sequential runner — same order, same change
points, same Covering/F1 — for every worker count, with per-worker
accounting attached; and the method factories survive a pickle round-trip
(the property the process pool relies on).
"""

import pickle

import numpy as np
import pytest

from repro.datasets import make_tssb_like
from repro.evaluation import default_method_factories, run_experiment
from repro.utils.exceptions import ConfigurationError

WINDOW = 500
SCORING_INTERVAL = 40
METHODS = ["ClaSS", "Window", "DDM"]


@pytest.fixture(scope="module")
def grid_suite():
    return make_tssb_like(n_series=2, length_scale=0.15, seed=2026)


@pytest.fixture(scope="module")
def grid_methods():
    return default_method_factories(
        window_size=WINDOW,
        scoring_interval=SCORING_INTERVAL,
        floss_stride=SCORING_INTERVAL,
        include=METHODS,
    )


@pytest.fixture(scope="module")
def sequential_result(grid_methods, grid_suite):
    return run_experiment(grid_methods, grid_suite)


def assert_records_identical(sequential, parallel):
    assert len(sequential.records) == len(parallel.records)
    for expected, actual in zip(sequential.records, parallel.records):
        assert actual.method == expected.method
        assert actual.dataset == expected.dataset
        assert actual.collection == expected.collection
        assert actual.n_timepoints == expected.n_timepoints
        assert actual.covering == expected.covering
        assert actual.f1 == expected.f1
        assert np.array_equal(actual.predicted_change_points, expected.predicted_change_points)
        assert np.array_equal(actual.detection_times, expected.detection_times)


class TestGridEquivalence:
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_parallel_grid_matches_sequential(
        self, grid_methods, grid_suite, sequential_result, n_workers
    ):
        parallel = run_experiment(grid_methods, grid_suite, n_workers=n_workers)
        assert_records_identical(sequential_result, parallel)
        # dataset-major order, as the sequential runner streams the grid
        cells = [(record.dataset, record.method) for record in parallel.records]
        assert cells == [(dataset.name, method) for dataset in grid_suite for method in METHODS]

    def test_run_experiment_n_workers_delegates_to_grid(
        self, grid_methods, grid_suite, sequential_result
    ):
        parallel = run_experiment(grid_methods, grid_suite, n_workers=2)
        assert_records_identical(sequential_result, parallel)
        assert parallel.grid_stats is not None

    def test_single_worker_falls_back_to_sequential(self, grid_methods, grid_suite):
        result = run_experiment(grid_methods, grid_suite, n_workers=1)
        assert result.grid_stats is None
        assert len(result.records) == len(grid_suite) * len(METHODS)


class TestGridAccounting:
    def test_worker_stats_cover_every_task(self, grid_methods, grid_suite):
        result = run_experiment(grid_methods, grid_suite, n_workers=2)
        stats = result.grid_stats
        assert stats.n_workers == 2
        assert stats.n_tasks == len(grid_suite) * len(METHODS)
        assert sum(worker.n_tasks for worker in stats.workers) == stats.n_tasks
        assert stats.wall_seconds > 0
        assert stats.busy_seconds > 0
        assert stats.speedup > 0
        rows = stats.as_rows()
        assert len(rows) == len(stats.workers)
        assert all(row["points_per_s"] > 0 for row in rows)


class TestGridValidation:
    @pytest.mark.parametrize("n_workers", [0, -2])
    def test_non_positive_workers_rejected(self, grid_methods, grid_suite, n_workers):
        with pytest.raises(ConfigurationError, match="n_workers"):
            run_experiment(grid_methods, grid_suite, n_workers=n_workers)

    def test_empty_methods_rejected(self, grid_suite):
        with pytest.raises(ConfigurationError):
            run_experiment({}, grid_suite, n_workers=2)

    def test_unpicklable_factory_rejected_by_name(self, grid_suite):
        methods = {"bad_method": lambda dataset: None}
        with pytest.raises(ConfigurationError, match="bad_method"):
            run_experiment(methods, grid_suite, n_workers=2)


class TestTaskSpecPickling:
    def test_all_default_factories_picklable(self):
        for name, factory in default_method_factories().items():
            clone = pickle.loads(pickle.dumps(factory))
            assert type(clone) is type(factory), name
