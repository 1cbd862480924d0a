"""Chunked vs per-point ingestion throughput across chunk sizes.

The chunked ingestion engine promises (a) bit-identical results to the
per-point path for any chunk size and (b) a substantial throughput win once
chunks are large enough to amortise the per-point Python overhead.  This
benchmark sweeps the chunk size for both the raw streaming k-NN substrate
and a full ClaSS segmenter, printing the obs/s ladder and asserting the
headline claim: chunk sizes >= 256 must beat the per-point loop by a wide
margin.  Run with ``--benchmark-json`` to emit the machine-readable result
like the other bench scripts (the per-chunk-size rates travel in
``extra_info``).

A second row times the saturated k-NN step at the paper's window (d=10k)
three ways: one ``next()`` per observation, and ``send(10)``/``send(32)``
between pauses.  Blocks of whole-block numpy operations would cost 1.5-2.7x
a point-wise step at this window, where the array work dominates, so a
window wider than ``BLOCK_MAX_SUBSEQUENCES`` steps point by point under
``send`` too.  At full size each ``send`` row must be no slower per step
than stepping point by point, within the 25% by which the fastest of three
interleaved rounds still spreads on a shared 2-vCPU host.
"""

from __future__ import annotations

import collections
import os
import time

import numpy as np

from repro.core.class_segmenter import ClaSS
from repro.core.streaming_knn import StreamingKNN
from repro.datasets import load_collection
from repro.evaluation import format_table, measure_batch_throughput, measure_throughput

CHUNK_SIZES = (16, 64, 256, 1024, 4096)
SCORING_INTERVAL = 15
#: Overridable so CI can smoke-run the benchmark with tiny parameters.
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 30_000))
WINDOW = int(os.environ.get("REPRO_BENCH_WINDOW", 3_000))
SUBSEQUENCE_WIDTH = max(10, WINDOW // 30)
SMOKE_RUN = N_POINTS < 30_000


def _knn_rate(values: np.ndarray, chunk_size: int | None) -> float:
    """obs/s of the raw k-NN for one chunk size (None = per-point update)."""
    knn = StreamingKNN(window_size=WINDOW, subsequence_width=SUBSEQUENCE_WIDTH)
    start = time.perf_counter()
    if chunk_size is None:
        for value in values:
            knn.update(float(value))
    else:
        for position in range(0, values.shape[0], chunk_size):
            collections.deque(
                knn.update_many(values[position : position + chunk_size]), maxlen=0
            )
    return values.shape[0] / (time.perf_counter() - start)


def test_chunked_ingestion_throughput(benchmark):
    rng = np.random.default_rng(31)
    raw = rng.normal(size=N_POINTS)
    dataset = load_collection("TSSB", n_series=1, length_scale=0.4, seed=404)[0]
    class_window = min(WINDOW, dataset.n_timepoints // 2)

    def sweep():
        knn_rates = {"pointwise": _knn_rate(raw, None)}
        for chunk_size in CHUNK_SIZES:
            knn_rates[str(chunk_size)] = _knn_rate(raw, chunk_size)
        class_rates = {
            "pointwise": measure_throughput(
                ClaSS(window_size=class_window, scoring_interval=SCORING_INTERVAL),
                dataset.values,
            ).mean_points_per_second
        }
        for chunk_size in CHUNK_SIZES:
            class_rates[str(chunk_size)] = measure_batch_throughput(
                ClaSS(window_size=class_window, scoring_interval=SCORING_INTERVAL),
                dataset.values,
                chunk_size=chunk_size,
            ).mean_points_per_second
        return knn_rates, class_rates

    knn_rates, class_rates = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        {
            "chunk size": name,
            "knn obs/s": knn_rates[name],
            "class obs/s": class_rates[name],
            "knn speedup": knn_rates[name] / knn_rates["pointwise"],
            "class speedup": class_rates[name] / class_rates["pointwise"],
        }
        for name in knn_rates
    ]
    print()
    print(
        format_table(
            rows,
            title=f"Chunked ingestion throughput (d={WINDOW}, w={SUBSEQUENCE_WIDTH})",
            float_format="{:.1f}",
        )
    )

    # results must be identical for every chunking (spot-check the extremes)
    reference = ClaSS(window_size=class_window, scoring_interval=SCORING_INTERVAL)
    reference.process(dataset.values, chunk_size=1)
    chunked = ClaSS(window_size=class_window, scoring_interval=SCORING_INTERVAL)
    chunked.process(dataset.values, chunk_size=4096)
    assert np.array_equal(reference.change_points, chunked.change_points)

    # large chunks amortise the per-point Python overhead: the k-NN substrate
    # must clear a wide margin, the full segmenter (which also pays the
    # chunking-independent scoring cost) a smaller but real one.  Timing
    # thresholds are skipped on CI smoke runs (tiny parameters, noisy boxes).
    if not SMOKE_RUN:
        assert knn_rates["1024"] > 1.5 * knn_rates["pointwise"]
        assert class_rates["1024"] > 1.2 * class_rates["pointwise"]

    benchmark.extra_info["knn_rates"] = {k: round(v, 1) for k, v in knn_rates.items()}
    benchmark.extra_info["class_rates"] = {k: round(v, 1) for k, v in class_rates.items()}
    benchmark.extra_info["knn_speedup_1024"] = round(
        knn_rates["1024"] / knn_rates["pointwise"], 2
    )


#: The paper's default window, and the width its block-path row uses.
PAPER_WINDOW = 10_000
PAPER_ROW_WIDTH = 25
#: Steps timed per advance and round; the smoke run times a few only.
BLOCK_ROW_STEPS = 160 if SMOKE_RUN else 1_600
BLOCK_ROW_ADVANCES = (1, 10, 32)
#: Timing noise allowed between the block and point-wise rows.
BLOCK_ROW_TOLERANCE = 1.25


def _step_us(state: dict, values: np.ndarray, advance: int) -> float:
    """Microseconds per saturated k-NN step when advancing ``advance`` per call."""
    knn = StreamingKNN(
        window_size=PAPER_WINDOW, subsequence_width=PAPER_ROW_WIDTH, kernel_backend="numpy"
    )
    knn.load_state_dict(state)
    steps = knn.update_many(values)
    next(steps)
    calls = BLOCK_ROW_STEPS // advance
    start = time.perf_counter()
    for _ in range(calls):
        if advance == 1:
            next(steps)
        else:
            steps.send(advance)
    elapsed = time.perf_counter() - start
    steps.close()
    return elapsed / (calls * advance) * 1e6


def test_block_path_no_slower_than_pointwise_at_paper_window(benchmark):
    rng = np.random.default_rng(37)
    n = PAPER_WINDOW + BLOCK_ROW_STEPS + 1
    values = np.cumsum(rng.normal(size=n)) * 0.1 + np.sin(np.arange(n) / 7.0)
    warm = StreamingKNN(
        window_size=PAPER_WINDOW, subsequence_width=PAPER_ROW_WIDTH, kernel_backend="numpy"
    )
    collections.deque(warm.update_many(values[:PAPER_WINDOW]), maxlen=0)
    state = warm.state_dict()

    def rounds():
        # interleaved rounds; each advance keeps its fastest (least disturbed)
        timings = {advance: [] for advance in BLOCK_ROW_ADVANCES}
        for _ in range(3):
            for advance in BLOCK_ROW_ADVANCES:
                timings[advance].append(_step_us(state, values[PAPER_WINDOW:], advance))
        return {advance: min(times) for advance, times in timings.items()}

    per_step = benchmark.pedantic(rounds, rounds=1, iterations=1)
    rows = [
        {"advance": "next()" if advance == 1 else f"send({advance})", "us per step": us}
        for advance, us in per_step.items()
    ]
    print()
    print(
        format_table(
            rows,
            title=f"Saturated k-NN step (d={PAPER_WINDOW}, w={PAPER_ROW_WIDTH}, numpy)",
            float_format="{:.1f}",
        )
    )
    benchmark.extra_info["us_per_step"] = {
        str(advance): round(us, 1) for advance, us in per_step.items()
    }
    if not SMOKE_RUN:
        assert per_step[10] <= BLOCK_ROW_TOLERANCE * per_step[1]
        assert per_step[32] <= BLOCK_ROW_TOLERANCE * per_step[1]
