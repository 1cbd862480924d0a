"""Parallel scaling — speedup of the shared-nothing execution layer.

The paper's scalability story (Figures 6-7, the Flink operator experiment of
§4.4) streams many independent series; this benchmark sweeps the worker
count over exactly that fig7-style multi-series workload on both parallel
tiers:

* the process-pool evaluation grid (``run_experiment(n_workers=...)``)
  running ClaSS over every series, and
* the sharded multi-stream engine (``run_class_pipelines(n_shards, n_workers)``)
  replaying every series as an independent keyed stream.

For every worker count it verifies the results are identical to the
sequential run and reports throughput and speedup.  Environment knobs keep
the CI smoke run tiny:

* ``REPRO_BENCH_SERIES``    — number of independent series (default 8)
* ``REPRO_BENCH_POINTS``    — observations per series (default 6000)
* ``REPRO_BENCH_WINDOW``    — ClaSS sliding window (default 1500)
* ``REPRO_BENCH_WORKERS``   — comma-separated worker counts (default "1,2,4")
* ``REPRO_BENCH_MIN_SPEEDUP`` — asserted speedup at the largest worker count,
  only enforced when the machine has at least that many cores (default 2.0
  at 4 workers).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets import SegmentSpec, compose_stream
from repro.evaluation import default_method_factories, format_table, run_experiment
from repro.streamengine import run_class_pipelines

N_SERIES = int(os.environ.get("REPRO_BENCH_SERIES", 8))
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 6_000))
WINDOW = int(os.environ.get("REPRO_BENCH_WINDOW", 1_500))
WORKER_COUNTS = [
    int(token) for token in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4").split(",")
]
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", 2.0))
SCORING_INTERVAL = 25


def _fig7_suite():
    """Independent multi-segment series, as in the Figure 7 length sweep."""
    suite = []
    for index in range(N_SERIES):
        segment = N_POINTS // 4
        specs = [
            SegmentSpec("sine", segment, {"period": 20 + index, "noise": 0.05}),
            SegmentSpec("square", segment, {"period": 50 + index, "noise": 0.05}),
            SegmentSpec("sine", segment, {"period": 12 + index, "noise": 0.05}),
            SegmentSpec("square", segment, {"period": 80 + index, "noise": 0.05}),
        ]
        suite.append(compose_stream(specs, name=f"fig7_{index}", seed=500 + index))
    return suite


def _grid_signature(result):
    """Hashable summary of a grid run used for the equivalence assertion."""
    return [
        (r.method, r.dataset, r.covering, r.f1, tuple(r.predicted_change_points.tolist()))
        for r in result.records
    ]


def test_parallel_scaling_grid_and_sharded_engine(benchmark):
    suite = _fig7_suite()
    methods = default_method_factories(
        window_size=WINDOW, scoring_interval=SCORING_INTERVAL, include=["ClaSS"]
    )
    total_points = sum(dataset.n_timepoints for dataset in suite)

    def sweep():
        rows = []
        baseline_signature = None
        baseline_cps = None
        grid_serial_seconds = None
        engine_serial_seconds = None
        for n_workers in WORKER_COUNTS:
            start = time.perf_counter()
            result = run_experiment(methods, suite, n_workers=n_workers)
            grid_seconds = time.perf_counter() - start
            signature = _grid_signature(result)
            if baseline_signature is None:
                baseline_signature = signature
                grid_serial_seconds = grid_seconds
            assert signature == baseline_signature, "parallel grid diverged from sequential"

            pipeline_results, run = run_class_pipelines(
                suite,
                n_shards=max(n_workers, 1),
                n_workers=n_workers,
                window_size=WINDOW,
                scoring_interval=SCORING_INTERVAL,
                batch_size=512,
            )
            engine_seconds = run.wall_seconds
            cps = [tuple(r.change_points.tolist()) for r in pipeline_results]
            if baseline_cps is None:
                baseline_cps = cps
                engine_serial_seconds = engine_seconds
            assert cps == baseline_cps, "sharded engine diverged from sequential"

            rows.append(
                {
                    "workers": n_workers,
                    "grid s": grid_seconds,
                    "grid pts/s": total_points / grid_seconds,
                    "grid speedup": grid_serial_seconds / grid_seconds,
                    "engine s": engine_seconds,
                    "engine pts/s": total_points / engine_seconds,
                    "engine speedup": engine_serial_seconds / engine_seconds,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Parallel scaling: grid executor and sharded engine"))

    largest = rows[-1]
    benchmark.extra_info["workers"] = largest["workers"]
    benchmark.extra_info["grid_speedup"] = largest["grid speedup"]
    benchmark.extra_info["engine_speedup"] = largest["engine speedup"]
    cores = os.cpu_count() or 1
    if cores >= largest["workers"] >= 4:
        # the acceptance bar: >= 2x grid throughput at 4 workers on >= 4 cores
        assert largest["grid speedup"] >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x speedup at {largest['workers']} workers, "
            f"got {largest['grid speedup']:.2f}x"
        )
    # results must be identical for every worker count (asserted in sweep)
    assert all(np.isfinite(row["grid pts/s"]) for row in rows)
