"""Kernel backend throughput sweep: backend x chunk size x window size.

The pluggable kernel backends promise bit-identical results with very
different cost profiles: the numba backend JIT-compiles the per-point k-NN
kernels and targets >= 5x the numpy reference's raw update throughput on the
bench_knn_modes workload (d=2000, w=50).  This benchmark
sweeps ``backend x chunk size x window size`` on the raw streaming k-NN, each
cell draining ``update_many`` chunk by chunk, and prints the obs/s ladder.
Every cell runs the k-NN's one dot-product path and steps point by point
(``next()`` never forms a block), so the chunk size changes only the
per-call work a chunk shares: validation and the subsequence statistics.

At full size (12,000 points, window 2,000) it pins two claims:

* chunked ingestion must not lose to the per-point loop on any backend;
* the numba backend must reach >= 5x the numpy throughput (skipped when
  numba is not installed — never weakened).

Sizes are env-tunable so CI can smoke-run it: ``REPRO_BENCH_POINTS``,
``REPRO_BENCH_WINDOW`` (largest window; the sweep also runs window/2) and
``REPRO_BENCH_CHUNKS``; below full size both assertions are skipped.  The
pure-Python ``"loops"`` backend is excluded from the sweep by default — it
exists for bit-identity testing and is orders of magnitude slower; opt in via
``REPRO_BENCH_BACKENDS=numpy,loops`` with tiny sizes.  Run with
``--benchmark-json`` for the pytest-benchmark artifact; set
``REPRO_BENCH_WRITE_RESULTS=1`` to (re)write the committed per-backend
baseline ``benchmarks/results/bench_kernels.json``.
"""

from __future__ import annotations

import collections
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import available_backends
from repro.core.streaming_knn import StreamingKNN
from repro.evaluation import format_table

#: Overridable so CI can smoke-run the benchmark with tiny parameters.
N_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", 12_000))
WINDOW = int(os.environ.get("REPRO_BENCH_WINDOW", 2_000))
CHUNK_SIZES = tuple(
    int(chunk) for chunk in os.environ.get("REPRO_BENCH_CHUNKS", "1,64,1024").split(",")
)
#: bench_knn_modes uses w=50 at d=2000; shrink proportionally on smoke runs.
SUBSEQUENCE_WIDTH = max(10, WINDOW // 40)
SMOKE_RUN = N_POINTS < 12_000 or WINDOW < 2_000

#: Backends swept; "loops" is deliberately absent (bit-identity aid, not a
#: performance backend) unless explicitly requested.
BACKENDS = tuple(
    backend
    for backend in os.environ.get(
        "REPRO_BENCH_BACKENDS", ",".join(b for b in available_backends() if b != "loops")
    ).split(",")
    if backend
)

RESULTS_PATH = Path(__file__).parent / "results" / "bench_kernels.json"


def _machine_name() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _warm_backend(backend: str) -> None:
    """Trigger one-time costs (JIT compilation) outside the timed region."""
    knn = StreamingKNN(window_size=64, subsequence_width=10, kernel_backend=backend)
    collections.deque(knn.update_many(np.sin(np.arange(160) / 3.0)), maxlen=0)


def _throughput(backend: str, window: int, chunk_size: int, values: np.ndarray) -> float:
    """Steady-state obs/s of the raw k-NN for one sweep cell (chunk size 1 is per-point)."""
    knn = StreamingKNN(
        window_size=window, subsequence_width=SUBSEQUENCE_WIDTH, kernel_backend=backend
    )
    warmup = window + chunk_size
    collections.deque(knn.update_many(values[:warmup]), maxlen=0)
    measured = values[warmup:]
    start = time.perf_counter()
    for position in range(0, measured.shape[0], chunk_size):
        collections.deque(
            knn.update_many(measured[position : position + chunk_size]), maxlen=0
        )
    return measured.shape[0] / (time.perf_counter() - start)


def _workload(n_points: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    return np.sin(2 * np.pi * np.arange(n_points) / 50) + rng.normal(0, 0.1, n_points)


def test_kernel_backend_sweep(benchmark):
    """backend x chunk x window ladder of raw k-NN ingestion throughput."""
    windows = sorted({max(200, WINDOW // 2), WINDOW})
    values = _workload(N_POINTS + max(windows) + max(CHUNK_SIZES))
    for backend in BACKENDS:
        _warm_backend(backend)

    def sweep():
        entries = []
        for backend in BACKENDS:
            for window in windows:
                for chunk_size in CHUNK_SIZES:
                    rate = _throughput(backend, window, chunk_size, values)
                    entries.append(
                        {
                            "backend": backend,
                            "window": window,
                            "chunk": chunk_size,
                            "points_per_second": round(rate, 1),
                            "seconds_per_point": rate and 1.0 / rate,
                        }
                    )
        return entries

    entries = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "backend": entry["backend"],
            "window": entry["window"],
            "chunk": entry["chunk"],
            "obs/s": entry["points_per_second"],
        }
        for entry in entries
    ]
    print()
    print(
        format_table(
            rows,
            title=f"raw k-NN ingestion throughput (w={SUBSEQUENCE_WIDTH}, n={N_POINTS})",
            float_format="{:.1f}",
        )
    )
    print(f"swept backends: {', '.join(BACKENDS)} (loops excluded by default: testing aid)")
    benchmark.extra_info["entries"] = entries

    if os.environ.get("REPRO_BENCH_WRITE_RESULTS"):
        payload = {
            "benchmark": "bench_kernels",
            "config": {
                "n_points": N_POINTS,
                "subsequence_width": SUBSEQUENCE_WIDTH,
                "windows": windows,
                "chunk_sizes": list(CHUNK_SIZES),
            },
            "machine": _machine_name(),
            "entries": entries,
        }
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote per-backend baseline to {RESULTS_PATH}")

    # chunked ingestion must not lose to the per-point loop on any backend
    if not SMOKE_RUN:
        by_cell = {(e["backend"], e["window"], e["chunk"]): e for e in entries}
        for backend in BACKENDS:
            best_chunked = max(
                by_cell[(backend, WINDOW, chunk)]["points_per_second"]
                for chunk in CHUNK_SIZES
                if chunk > 1
            )
            pointwise = by_cell[(backend, WINDOW, min(CHUNK_SIZES))]["points_per_second"]
            assert best_chunked >= pointwise, f"{backend}: chunked path lost to per-point"


def test_numba_speedup_at_least_5x(benchmark):
    """Headline claim: numba >= 5x numpy raw k-NN throughput (d=2000, w=50)."""
    pytest.importorskip("numba")
    values = _workload(N_POINTS + WINDOW + 1)
    _warm_backend("numpy")
    _warm_backend("numba")

    def measure():
        return {
            backend: _throughput(backend, WINDOW, 1, values)
            for backend in ("numpy", "numba")
        }

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = rates["numba"] / rates["numpy"]
    print()
    print(
        f"numpy {rates['numpy']:.0f} obs/s vs numba {rates['numba']:.0f} obs/s "
        f"-> {speedup:.2f}x"
    )
    benchmark.extra_info["points_per_second"] = {
        name: round(rate, 1) for name, rate in rates.items()
    }
    benchmark.extra_info["numba_speedup"] = round(speedup, 2)
    # the acceptance claim applies at full size only (JIT constant costs
    # dominate tiny smoke runs)
    if not SMOKE_RUN:
        assert speedup >= 5.0, f"numba backend only {speedup:.2f}x vs numpy"
