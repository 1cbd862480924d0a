"""Per-pass ClaSP scoring latency: ClaSS's scoring pass vs the reference cross-validations.

ClaSS keeps the prediction thresholds cached inside the streaming k-NN and
consumes them zero-copy through the fused score kernel, so a scoring pass
never materialises the ``(m, k)`` table or pays the O(m k log k) sort that
the reference implementations of :mod:`repro.core.cross_val` do.  This
benchmark measures two views of that claim:

* the isolated per-pass latency of ``ClaSS.score_now()`` against each
  reference cross-validation run on the same ``StreamingKNN`` table (the
  cost a ``scoring_interval=1`` deployment pays per observation on top of
  the k-NN update); every reference must also reproduce the pass's scores,
* the end-to-end fig6-configuration ClaSS throughput at ``scoring_interval=1``.

Sizes are env-tunable so CI can smoke-run it (``REPRO_BENCH_REGION``,
``REPRO_BENCH_POINTS``); the headline >= 1.5x speedup over the vectorised
reference only applies at full size (region >= 2000 subsequences), matching
the paper-scale claim.  Run with ``--benchmark-json`` for the
machine-readable artifact; the latencies and the end-to-end rate travel in
``extra_info``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.class_segmenter import ClaSS
from repro.core.cross_val import (
    cross_val_scores_incremental,
    cross_val_scores_naive,
    cross_val_scores_vectorised,
)
from repro.evaluation import (
    format_table,
    measure_batch_throughput,
    measure_scoring_latency,
)

#: Scored-region size in subsequences; the acceptance claim is pinned at 2000+.
REGION = int(os.environ.get("REPRO_BENCH_REGION", 2_500))
#: Stream length for the end-to-end scoring_interval=1 run.
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 12_000))
#: Width shrinks with the region on smoke runs so the split-exclusion border
#: (excl_factor * w per side) still leaves admissible splits to score.
SUBSEQUENCE_WIDTH = max(10, min(50, REGION // 12))
WINDOW = REGION + SUBSEQUENCE_WIDTH - 1  # region fills the whole window
SMOKE_RUN = REGION < 2_000

#: The reference the scoring pass replaced as the default, used as the "old" baseline.
BASELINE = "vectorised"
#: Reference cross-validations with the passes each is timed for; naive is
#: O(m^2), so a few passes are plenty to place it on the ladder.
ORACLES = {
    "vectorised": (cross_val_scores_vectorised, 30),
    "incremental": (cross_val_scores_incremental, 30),
    "naive": (cross_val_scores_naive, 3),
}


def _segmenter(scoring_interval: int = 1) -> ClaSS:
    return ClaSS(
        window_size=WINDOW,
        subsequence_width=SUBSEQUENCE_WIDTH,
        scoring_interval=scoring_interval,
    )


def _oracle_pass_latency(segmenter: ClaSS, oracle, n_passes: int) -> float:
    """Mean seconds per reference pass over the segmenter's scored-region table.

    Each pass materialises the region-relative k-NN table, as a reference
    needs it, and the result must equal the segmenter's last profile.
    """
    profile = segmenter.last_profile
    start = profile.region_start
    exclusion = segmenter.excl_factor * segmenter.subsequence_width_
    began = time.perf_counter()
    for _ in range(n_passes):
        result = oracle(segmenter._knn.knn_indices[start:] - start, exclusion, segmenter.score)
    elapsed = time.perf_counter() - began
    assert np.array_equal(result.scores, profile.scores), oracle.__name__
    return elapsed / n_passes


def test_scoring_pass_latency(benchmark):
    """Isolated per-pass scoring latency of ClaSS and each reference, one table."""
    rng = np.random.default_rng(91)
    # stationary noise: no change point fires, so the scored region stays the
    # full window and every reference scores the state score_now() scored
    values = rng.normal(size=WINDOW + 4 * SUBSEQUENCE_WIDTH)
    oracles = ORACLES if not SMOKE_RUN else {BASELINE: ORACLES[BASELINE]}

    def sweep():
        segmenter = _segmenter()
        latencies = {"score_now": measure_scoring_latency(segmenter, values, n_passes=30)}
        for name, (oracle, passes) in oracles.items():
            latencies[name] = _oracle_pass_latency(segmenter, oracle, passes)
        return latencies

    latencies = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        {
            "pass": name,
            "per-pass ms": latency * 1e3,
            "speedup vs vectorised": latencies[BASELINE] / latency,
        }
        for name, latency in latencies.items()
    ]
    print()
    print(
        format_table(
            rows,
            title=f"Per-pass ClaSP scoring latency (region={REGION} subsequences)",
            float_format="{:.3f}",
        )
    )

    speedup = latencies[BASELINE] / latencies["score_now"]
    benchmark.extra_info["per_pass_latency_ms"] = {
        name: round(latency * 1e3, 4) for name, latency in latencies.items()
    }
    benchmark.extra_info["score_now_speedup_vs_vectorised"] = round(speedup, 2)
    # the acceptance claim: >= 1.5x per-pass speedup at region >= 2000
    if not SMOKE_RUN:
        assert speedup >= 1.5, f"scoring pass only {speedup:.2f}x vs {BASELINE}"


def test_end_to_end_interval_one(benchmark):
    """fig6-style end-to-end ClaSS throughput at scoring_interval=1."""
    rng = np.random.default_rng(92)
    t = np.arange(N_POINTS // 2)
    values = np.concatenate(
        [np.sin(2 * np.pi * t / 40), 2.0 * np.sign(np.sin(2 * np.pi * t / 90))]
    ) + rng.normal(0.0, 0.1, 2 * (N_POINTS // 2))

    def run():
        return measure_batch_throughput(_segmenter(), values).mean_points_per_second

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"end-to-end @ scoring_interval=1: {rate:.0f} obs/s")
    benchmark.extra_info["end_to_end_obs_per_s"] = round(rate, 1)
