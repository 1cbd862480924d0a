"""Sanitizer overhead: dirty-data pre-pass cost on clean and dirty streams.

The :class:`repro.core.quality.Sanitizer` runs as a vectorised pre-pass in
front of chunked ingestion.  Its hot path — a clean chunk with no pending
dirty run — is a single finiteness scan plus one scalar copy, so wrapping a
detector in a repairing :class:`~repro.api.DataPolicy` must be nearly free
when the data is in fact clean.  This benchmark pins that:

* **clean overhead** — identical clean stream through the bare detector and
  through the policy-wrapped detector (``hold-last``), back to back in each
  round and in alternating order; the median of the per-round
  wrapped/plain ratios is asserted **< 5%** over plain at full size (every
  run must also report bit-identical change points — the pass-through
  contract),
* **dirty throughput** — the same stream with ~1% injected NaN runs under
  ``hold-last``, right after each round's clean pair; the median
  dirty/plain ratio must stay under 2.

The host's speed swings by more than the 5% bound between two runs of about
0.3 s each (per-round ratios ranged from -31% to +35% over 40 rounds on a
2-vCPU VM, quartiles -8% and +3%), so a best-of-N time reads the host, not
the sanitizer.  A median over 25 rounds moved by about 3.5 percentage points
either way in resamples of those rounds.  On that VM ten runs of the
sanitizer read -0.8% to +3.1% and passed, and ten of a copy that scans each
clean chunk 45 more times read +7.6% to +10.2% and failed.

Sizes are env-tunable so CI can smoke-run it (``REPRO_BENCH_DIRTY_POINTS``,
``REPRO_BENCH_DIRTY_CHUNK``, ``REPRO_BENCH_DIRTY_ROUNDS``); the assertions
only apply at full size.  Set ``REPRO_BENCH_WRITE_RESULTS=1`` to (re)write
the committed baseline ``benchmarks/results/bench_dirty_ingest.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import api

#: Overridable so CI can smoke-run the benchmark with tiny parameters.
N_POINTS = int(os.environ.get("REPRO_BENCH_DIRTY_POINTS", 1_000_000))
CHUNK = int(os.environ.get("REPRO_BENCH_DIRTY_CHUNK", 8_192))
ROUNDS = int(os.environ.get("REPRO_BENCH_DIRTY_ROUNDS", 25))
SMOKE_RUN = N_POINTS < 500_000

#: page-hinkley keeps detector cost low, so the sanitizer's relative share
#: is as large as it gets — the strictest setting for the 5% bound.
DETECTOR = "page-hinkley"
POLICY = {"nan_policy": "hold-last", "max_gap": 1_000}

RESULTS_PATH = Path(__file__).parent / "results" / "bench_dirty_ingest.json"


def _machine_name() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _clean_stream(n: int) -> np.ndarray:
    """Noise whose mean shifts every n/8 rows (so change points exist)."""
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 1.0, n)
    for block in range(1, 8):
        values[block * (n // 8) :] += 4.0
    return values


def _inject_nan_runs(values: np.ndarray, fraction: float = 0.01) -> np.ndarray:
    """Copy with ~``fraction`` of rows replaced by short seeded NaN runs."""
    dirty = values.copy()
    rng = np.random.default_rng(7)
    n_runs = max(1, int(len(values) * fraction) // 20)
    starts = rng.integers(1, len(values) - 25, size=n_runs)
    for start in starts:
        dirty[start : start + 20] = np.nan
    return dirty


def _ingest_seconds(values: np.ndarray, data_policy: dict | None) -> tuple[float, list]:
    """Wall time feeding ``values`` chunk-wise once, and the change points."""
    segmenter = api.create(DETECTOR, data_policy=data_policy)
    started = time.perf_counter()
    for _ in api.stream(segmenter, values, chunk_size=CHUNK):
        pass
    return time.perf_counter() - started, [int(cp) for cp in segmenter.change_points]


def _scenario() -> dict:
    clean = _clean_stream(N_POINTS)
    dirty = _inject_nan_runs(clean)
    plain, wrapped, repaired = [], [], []
    for round_index in range(ROUNDS):
        # the two clean sides run back to back, alternating which goes first,
        # so a drift of host speed within the round cannot favour either side
        sides = [(plain, None), (wrapped, POLICY)]
        if round_index % 2:
            sides.reverse()
        for runs, policy in sides:
            runs.append(_ingest_seconds(clean, data_policy=policy))
        repaired.append(_ingest_seconds(dirty, data_policy=POLICY))
    plain_cps = plain[0][1]
    # the sanitizer must be a pure pass-through on clean data
    assert all(cps == plain_cps for _, cps in plain + wrapped)

    plain_s, wrapped_s, dirty_s = (
        np.array([seconds for seconds, _ in runs]) for runs in (plain, wrapped, repaired)
    )
    return {
        "n_points": N_POINTS,
        "chunk_size": CHUNK,
        "rounds": ROUNDS,
        "plain_seconds": round(float(np.median(plain_s)), 4),
        "plain_rows_per_second": round(N_POINTS / float(np.median(plain_s)), 1),
        "sanitized_clean_seconds": round(float(np.median(wrapped_s)), 4),
        "sanitized_clean_rows_per_second": round(N_POINTS / float(np.median(wrapped_s)), 1),
        "clean_overhead_fraction": round(float(np.median(wrapped_s / plain_s)) - 1.0, 4),
        "dirty_seconds": round(float(np.median(dirty_s)), 4),
        "dirty_rows_per_second": round(N_POINTS / float(np.median(dirty_s)), 1),
        "dirty_over_plain": round(float(np.median(dirty_s / plain_s)), 4),
        "n_change_points": len(plain_cps),
    }


def test_dirty_ingest_overhead(benchmark):
    """Clean-data sanitizer overhead < 5%; dirty repair within 2x the plain time."""
    summary = benchmark.pedantic(_scenario, rounds=1, iterations=1)
    print()
    print(
        f"{summary['n_points']} rows: plain {summary['plain_rows_per_second']:.0f} rows/s, "
        f"sanitized clean {summary['sanitized_clean_rows_per_second']:.0f} rows/s "
        f"(median of {summary['rounds']} paired rounds "
        f"{summary['clean_overhead_fraction'] * 100:+.2f}%), "
        f"dirty+hold-last {summary['dirty_rows_per_second']:.0f} rows/s "
        f"({summary['dirty_over_plain']:.2f}x plain)"
    )
    benchmark.extra_info.update(summary)

    assert summary["n_change_points"] >= 1
    if not SMOKE_RUN:
        # the vectorised pre-pass must be nearly free when data is clean —
        # that is the whole argument for defaulting policies on in prod
        assert summary["clean_overhead_fraction"] < 0.05
        # repairing ~1% dirty rows must not collapse throughput either
        assert summary["dirty_over_plain"] < 2.0

    if os.environ.get("REPRO_BENCH_WRITE_RESULTS"):
        payload = {
            "benchmark": "bench_dirty_ingest",
            "config": {
                "n_points": N_POINTS,
                "chunk_size": CHUNK,
                "rounds": ROUNDS,
                "detector": DETECTOR,
                "policy": POLICY,
            },
            "machine": _machine_name(),
            "summary": summary,
        }
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote dirty-ingest baseline to {RESULTS_PATH}")
