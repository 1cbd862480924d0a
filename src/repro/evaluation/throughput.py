"""Throughput and update-latency measurement helpers (paper §4.4).

The paper reports two runtime views: the total wall-clock time spent per
method across all series versus segmentation quality (Figure 6 top left), and
the standalone data throughput in observations per second (Figure 6 bottom
left), plus the throughput/accuracy trade-off across sliding window sizes
(Figure 6 right).  The helpers here measure per-update latencies and
aggregate throughput for any object implementing the streaming ``update``
protocol, independent of the evaluation runner.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class ThroughputReport:
    """Throughput statistics of one streaming run."""

    method: str
    n_points: int
    total_seconds: float
    mean_points_per_second: float
    peak_points_per_second: float
    mean_update_latency: float
    p95_update_latency: float

    def as_row(self) -> dict:
        """Flat dictionary for the report writers."""
        return {
            "method": self.method,
            "n_points": self.n_points,
            "total_s": round(self.total_seconds, 3),
            "points_per_s": round(self.mean_points_per_second, 1),
            "peak_points_per_s": round(self.peak_points_per_second, 1),
            "mean_latency_ms": round(self.mean_update_latency * 1e3, 4),
            "p95_latency_ms": round(self.p95_update_latency * 1e3, 4),
        }


def measure_throughput(
    segmenter,
    values: np.ndarray,
    method_name: str | None = None,
    chunk_size: int = 500,
) -> ThroughputReport:
    """Stream ``values`` through ``segmenter`` and measure throughput.

    Peak throughput is the best rate observed over any single chunk of
    ``chunk_size`` consecutive observations (the paper reports ClaSS's peak
    rate separately because its scoring cost drops right after a change point
    is emitted).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    chunk_rates: list[float] = []
    latencies = np.empty(n, dtype=np.float64)

    total_start = time.perf_counter()
    position = 0
    while position < n:
        chunk = values[position : position + chunk_size]
        chunk_start = time.perf_counter()
        for offset, value in enumerate(chunk):
            update_start = time.perf_counter()
            segmenter.update(float(value))
            latencies[position + offset] = time.perf_counter() - update_start
        chunk_elapsed = time.perf_counter() - chunk_start
        if chunk_elapsed > 0:
            chunk_rates.append(chunk.shape[0] / chunk_elapsed)
        position += chunk.shape[0]
    total_elapsed = time.perf_counter() - total_start

    return ThroughputReport(
        method=method_name or type(segmenter).__name__,
        n_points=n,
        total_seconds=total_elapsed,
        mean_points_per_second=n / total_elapsed if total_elapsed > 0 else float("inf"),
        peak_points_per_second=float(max(chunk_rates)) if chunk_rates else float("inf"),
        mean_update_latency=float(latencies.mean()) if n else 0.0,
        p95_update_latency=float(np.percentile(latencies, 95)) if n else 0.0,
    )


def measure_batch_throughput(
    segmenter,
    values: np.ndarray,
    chunk_size: int = 1_024,
    method_name: str | None = None,
) -> ThroughputReport:
    """Stream ``values`` through ``segmenter.process`` in chunks and measure throughput.

    The chunked counterpart of :func:`measure_throughput`: one ``process``
    call per ``chunk_size`` observations, so the measured rate includes the
    amortisation the batch ingestion path provides.  Latency statistics are
    per-chunk latencies divided by the chunk length (the per-point cost a
    downstream consumer observes once the chunk has arrived).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    chunk_rates: list[float] = []
    per_point_latencies: list[float] = []

    total_start = time.perf_counter()
    position = 0
    while position < n:
        chunk = values[position : position + chunk_size]
        chunk_start = time.perf_counter()
        segmenter.process(chunk, chunk_size=chunk_size)
        chunk_elapsed = time.perf_counter() - chunk_start
        if chunk_elapsed > 0:
            chunk_rates.append(chunk.shape[0] / chunk_elapsed)
        per_point_latencies.extend([chunk_elapsed / chunk.shape[0]] * chunk.shape[0])
        position += chunk.shape[0]
    total_elapsed = time.perf_counter() - total_start

    latencies = np.asarray(per_point_latencies, dtype=np.float64)
    return ThroughputReport(
        method=method_name or f"{type(segmenter).__name__} (chunk={chunk_size})",
        n_points=n,
        total_seconds=total_elapsed,
        mean_points_per_second=n / total_elapsed if total_elapsed > 0 else float("inf"),
        peak_points_per_second=float(max(chunk_rates)) if chunk_rates else float("inf"),
        mean_update_latency=float(latencies.mean()) if n else 0.0,
        p95_update_latency=float(np.percentile(latencies, 95)) if n else 0.0,
    )


def measure_scoring_latency(
    segmenter,
    values: np.ndarray,
    n_passes: int = 30,
    chunk_size: int = 1_024,
) -> float:
    """Mean seconds per forced ClaSP scoring pass after streaming ``values`` in.

    Streams ``values`` through ``segmenter.process`` (filling the sliding
    window and the k-NN tables), then times ``n_passes`` calls of
    ``segmenter.score_now()`` — the pure per-pass scoring cost a
    ``scoring_interval=1`` deployment pays on every observation, isolated
    from the k-NN update.  Used by ``benchmarks/bench_scoring_path.py`` to
    compare ClaSS's scoring pass with the reference cross-validations of
    :mod:`repro.core.cross_val` on identical streaming state.

    The timed passes mutate the segmenter: a pass that reports a change
    point shrinks the scored region, so later passes would measure a smaller
    problem (and the segmenter keeps the forced detections).  Pass
    change-free data — e.g. stationary noise — to measure a fixed region
    size; a warning is emitted if a change point fires mid-measurement.
    """
    values = np.asarray(values, dtype=np.float64)
    segmenter.process(values, chunk_size=chunk_size)
    reports_before = len(segmenter.reports)
    segmenter.score_now()  # warm the pass (lazy allocations, caches)
    start = time.perf_counter()
    for _ in range(n_passes):
        segmenter.score_now()
    elapsed = time.perf_counter() - start
    if len(segmenter.reports) != reports_before:
        warnings.warn(
            "a change point fired during the timed scoring passes; the scored "
            "region shrank mid-measurement, so the mean latency does not "
            "reflect a fixed region size (use change-free data)",
            RuntimeWarning,
            stacklevel=2,
        )
    return elapsed / n_passes


def measure_update_scaling(
    factory,
    window_sizes: list[int],
    values: np.ndarray,
    warmup: int = 200,
    measured_updates: int = 300,
) -> dict[int, float]:
    """Mean per-update latency of a method for several sliding window sizes.

    ``factory`` receives a window size and returns a fresh segmenter.  Used by
    the Table 2 complexity benchmark to show how per-point update cost grows
    with ``d`` for each method.
    """
    values = np.asarray(values, dtype=np.float64)
    results: dict[int, float] = {}
    for window_size in window_sizes:
        segmenter = factory(window_size)
        n_warm = min(warmup + window_size, values.shape[0] - measured_updates)
        for value in values[:n_warm]:
            segmenter.update(float(value))
        start = time.perf_counter()
        for value in values[n_warm : n_warm + measured_updates]:
            segmenter.update(float(value))
        elapsed = time.perf_counter() - start
        results[window_size] = elapsed / measured_updates
    return results
