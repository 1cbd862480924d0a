"""§4.4 runtime discussion — impact of the bespoke k-NN and cross-validation.

The paper attributes ClaSS's speed to two optimisations: the O(d) incremental
dot-product k-NN (vs recomputing dot products, vs naive distance
computations) and the O(d) cross-validation (vs the original O(d^2)
relabelling).  This benchmark measures all variants on identical inputs and
checks the expected ordering.

The product's k-NN has one dot-product path, the streaming update of
Eqns. 3 and 5.  The recompute and FFT alternatives are built here as
subclasses of :class:`StreamingKNN` that override that one method, so every
variant runs the same similarity and table updates.  At d=2000 and w=50 the
window holds more subsequences than the k-NN's block path takes, so every
``update`` of every variant steps point by point: like is timed against like.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cross_val import (
    cross_val_scores_incremental,
    cross_val_scores_naive,
    cross_val_scores_vectorised,
)
from repro.core.streaming_knn import StreamingKNN
from repro.evaluation import format_table
from repro.evaluation.throughput import measure_update_scaling

WINDOW = 2_000
WIDTH = 50


def _keep_partial_products(knn: StreamingKNN, window: np.ndarray, full: np.ndarray) -> None:
    """Store the Eqn. 5 shrink of ``full``, as the streaming update leaves it."""
    m = full.shape[0]
    knn._q_store[:m] = full - window[:m] * window[window.shape[0] - knn.subsequence_width]
    knn._q_valid = m


class RecomputeKNN(StreamingKNN):
    """Recomputes every dot product with the newest subsequence, O(d * w) per update."""

    def _incremental_dot_products(self, window, m, evicted):
        w = self.subsequence_width
        full = np.lib.stride_tricks.sliding_window_view(window, w) @ window[-w:]
        _keep_partial_products(self, window, full)
        return full


class FFTKNN(StreamingKNN):
    """Computes the dot products by FFT correlation, O(d log d) per update (as FLOSS does)."""

    def _incremental_dot_products(self, window, m, evicted):
        w = self.subsequence_width
        size = 1 << int(np.ceil(np.log2(window.shape[0] + w)))
        spectrum = np.fft.rfft(window, size) * np.fft.rfft(window[-w:][::-1], size)
        full = np.fft.irfft(spectrum, size)[w - 1 : w - 1 + m]
        _keep_partial_products(self, window, full)
        return full


VARIANTS = {"streaming": StreamingKNN, "recompute": RecomputeKNN, "fft": FFTKNN}


def test_knn_update_modes(benchmark):
    rng = np.random.default_rng(17)
    values = np.sin(2 * np.pi * np.arange(6_000) / 50) + rng.normal(0, 0.1, 6_000)

    def measure():
        latencies, built = {}, {}
        for name, variant in VARIANTS.items():

            def factory(d, name=name, variant=variant):
                built[name] = variant(window_size=d, subsequence_width=WIDTH)
                return built[name]

            latencies[name] = measure_update_scaling(
                factory,
                window_sizes=[WINDOW],
                values=values,
                warmup=200,
                measured_updates=200,
            )[WINDOW]
        return latencies, built

    latencies, built = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        {"k-NN mode": mode, "per-update latency ms": lat * 1e3} for mode, lat in latencies.items()
    ]
    print()
    print(format_table(rows, title="streaming k-NN dot-product strategies (d=2000, w=50)",
                       float_format="{:.4f}"))

    # the three strategies compute the same dot products
    reference = built["streaming"]
    for name in ("recompute", "fft"):
        np.testing.assert_allclose(
            built[name].last_similarity_profile, reference.last_similarity_profile, atol=1e-8
        )
        np.testing.assert_allclose(
            built[name].knn_similarities, reference.knn_similarities, atol=1e-8
        )
    # the incremental streaming update must not be slower than recomputing the
    # dot products from scratch (the paper reports 36h vs 212h vs 2513h)
    assert latencies["streaming"] <= latencies["recompute"] * 1.2


def test_cross_validation_implementations(benchmark):
    rng = np.random.default_rng(23)
    knn = rng.integers(-20, WINDOW - WIDTH, size=(WINDOW - WIDTH + 1, 3))

    def measure():
        timings = {}
        for name, implementation in (
            ("vectorised O(d)", cross_val_scores_vectorised),
            ("incremental O(d)", cross_val_scores_incremental),
            ("naive O(d^2)", cross_val_scores_naive),
        ):
            start = time.perf_counter()
            implementation(knn, exclusion=WIDTH)
            timings[name] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        {"implementation": name, "runtime ms": seconds * 1e3} for name, seconds in timings.items()
    ]
    print()
    print(
        format_table(
            rows, title="cross-validation of all splits (m=1951, k=3)", float_format="{:.2f}"
        )
    )

    # the vectorised O(d) path must clearly beat the naive O(d^2) recomputation
    assert timings["vectorised O(d)"] < timings["naive O(d^2)"]
    benchmark.extra_info["speedup_vs_naive"] = timings["naive O(d^2)"] / max(
        timings["vectorised O(d)"], 1e-9
    )
