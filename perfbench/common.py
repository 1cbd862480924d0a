"""Shared plumbing: checkout paths, statistics, memory, records, host speed, chunk timing, set-up probes.

Every number the benchmark produces becomes one record
``{layer, workload, metric, value, unit, machine, commit}``; ``machine``
stamps the CPU count, interpreter, numpy/scipy versions and the resolved
kernel backend, ``commit`` is a digest of the program's sources (the
benchmark runs in plain checkouts that are not git repositories).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, spools and sockets; emptied per run.
WORK = ROOT / ".perfbench-work"
#: Records and span files of past runs.
OUT = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent


class BenchmarkError(RuntimeError):
    """A correctness check failed: the program gave a wrong answer."""


def require_program() -> None:
    """Put the program's sources on the path, or stop if they are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}; nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    """An empty directory under the work area."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def smoothed_failed_ratio(failed: int, attempted: int) -> float:
    """Add-one share of failed operations: 1/(attempted+1) on a clean run.

    Never 0, so a relative bound applies; any failure at least doubles it.
    """
    return (failed + 1) / (attempted + 1)


def peak_rss_mb_self() -> float:
    """High-water resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """High-water resident set (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_stamp() -> dict:
    import numpy
    import scipy

    from repro.core.kernels import get_backend

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": get_backend("auto").name,
    }


def source_commit() -> str:
    """Digest of every program source file: names a version without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


class Recorder:
    """Collects one run's records; the contract line is derived from them."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.machine = machine_stamp()
        self.commit = source_commit()
        self.records: list[dict] = []

    def add(self, layer: str, metric: str, value: float, unit: str) -> None:
        self.records.append(
            {
                "layer": layer,
                "workload": self.workload,
                "metric": metric,
                "value": float(value),
                "unit": unit,
                "machine": self.machine,
                "commit": self.commit,
            }
        )

    def metrics(self) -> dict:
        return {r["metric"]: {"value": r["value"], "unit": r["unit"]} for r in self.records}

    def write(self, seed: int, trace: bool) -> Path:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"{self.workload}-seed{seed}-trace{int(trace)}.records.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        return path


#: Reference seconds are wall seconds at the host speed at which one speed
#: sample (the fastest of three :func:`spin` calls) takes this long: about
#: the median on a 2-vCPU Xeon VM.
REFERENCE_SPIN_S = 0.0014
SPIN_VALUES = [3.0 * math.sin(0.1 * i) for i in range(4_000)]
#: Seconds between samples of the host's speed (each takes about 4 ms).
SAMPLE_EVERY_S = 0.1


class _Drift:
    """A per-point detector in miniature (a running mean and a drift sum)."""

    __slots__ = ("n", "mean", "drift", "low")

    def __init__(self) -> None:
        self.n, self.mean, self.drift, self.low = 0, 0.0, 0.0, 0.0

    def update(self, value: float) -> bool:
        self.n += 1
        self.mean += (value - self.mean) / self.n
        self.drift += value - self.mean - 0.005
        if self.drift < self.low:
            self.low = self.drift
        return self.drift - self.low > 50.0


def spin() -> float:
    """Seconds taken by a fixed piece of per-point Python work.

    Method calls, float attributes and branches, the kind of work the
    detectors do: a loop of plain integer arithmetic slows about half as
    much as the program does when the host slows, this one about as much.
    """
    drift = _Drift()
    started = time.perf_counter()
    for value in SPIN_VALUES:
        drift.update(value)
    return time.perf_counter() - started


class HostSpeed:
    """The host's speed, sampled during the work, and timings rescaled by it.

    The shared VMs this benchmark runs on change speed by up to 1.8x every
    few seconds and drift by 15-25% over minutes, about the same for the
    program and for :func:`spin`.  Inside ``with speed:`` a timer signal
    samples the speed every ``every_s`` seconds (the fastest of three
    :func:`spin` calls; the handler runs between two bytecodes of whatever
    the program is doing, so each sample lies wholly inside or outside any
    timed span).  :meth:`reference_s` turns spans of wall time into
    *reference seconds*: the wall time, samples inside it left out, scaled
    by ``REFERENCE_SPIN_S`` over the mean sample around it.  A program
    change shows in reference seconds as it does in wall time; the host's
    swings mostly cancel.  With ``every_s=None`` (the traced runs, whose
    spans should hold only the program) the speed is sampled only on entry
    and exit.
    """

    def __init__(self, every_s: float | None = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        self.samples: list[tuple[float, float, float]] = []  # (start, end, fastest spin)
        self._previous = None

    def sample(self) -> None:
        started = time.perf_counter()
        fastest = min(spin() for _ in range(3))
        self.samples.append((started, time.perf_counter(), fastest))

    def __enter__(self) -> "HostSpeed":
        self.sample()
        if self.every_s is not None:
            self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.every_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_s(self, spans) -> np.ndarray:
        """Each ``(start, end)`` span of wall time in reference seconds.

        The speed is the mean of the last sample that ended by ``start``,
        every sample inside the span (whose time is left out) and the first
        sample that began at or after ``end``.
        """
        spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        begun, ended, fastest = (np.array(column) for column in zip(*self.samples))
        took = np.concatenate([[0.0], np.cumsum(ended - begun)])
        summed = np.concatenate([[0.0], np.cumsum(fastest)])
        start, end = spans[:, 0], spans[:, 1]
        first = np.maximum(np.searchsorted(ended, start, "right") - 1, 0)
        last = np.minimum(np.searchsorted(begun, end, "left"), len(begun) - 1)
        inside = took[np.searchsorted(ended, end, "right")] - took[np.searchsorted(begun, start, "left")]
        mean = (summed[last + 1] - summed[first]) / (last + 1 - first)
        return (end - start - np.maximum(inside, 0.0)) * REFERENCE_SPIN_S / mean

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.samples), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "HostSpeed":
        """Samples another process took (``perf_counter`` is system-wide on Linux)."""
        try:
            samples = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise BenchmarkError(f"no host-speed samples in {path}: {error}") from None
        speed = cls(every_s=None)
        speed.samples = [tuple(sample) for sample in samples]
        return speed

    def median_sample_ms(self) -> float:
        return statistics.median(fastest for _, _, fastest in self.samples) * 1e3


class TimedChunks:
    """A chunk source for ``api.stream`` that records every chunk's span.

    Wraps an array or a stored stream (other attributes pass through).
    ``spans`` gets, per chunk, the time it was asked for and the time the
    stream asked past it: reading, processing and event delivery.
    """

    def __init__(self, source, spans: list[tuple[float, float]] | None = None) -> None:
        self.source = source
        self.spans = [] if spans is None else spans

    def iter_chunks(self, chunk_size: int, *args, **kwargs):
        if hasattr(self.source, "iter_chunks"):
            chunks = self.source.iter_chunks(chunk_size, *args, **kwargs)
        else:
            from repro.api.protocol import iter_chunks

            chunks = iter_chunks(self.source, chunk_size)
        asked = time.perf_counter()
        for chunk in chunks:
            yield chunk
            now = time.perf_counter()
            self.spans.append((asked, now))
            asked = now

    def __getattr__(self, name):
        return getattr(self.source, name)


def spawn_until_ready(argv: list[str], timeout: float = 60.0) -> float:
    """Start ``argv``; seconds until it prints ``ready`` on stdout, then reap it."""
    started = time.perf_counter()
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        if line.strip() != "ready":
            _, err = child.communicate(timeout=timeout)
            raise BenchmarkError(f"set-up probe failed: {line!r} {err[-2000:]}")
        child.communicate(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise BenchmarkError(f"set-up probe exited with {child.returncode}")
    return elapsed


def median_setup_s(workload: str, repeats: int = 5) -> float:
    """Median wall time from interpreter start to a ready-to-ingest detector.

    Wall seconds, not reference seconds: the probe runs in a child process,
    and a spin in this one right after it exits reads up to 2x fast.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload]
    return statistics.median(spawn_until_ready(argv) for _ in range(repeats))


def check(condition: bool, message: str) -> None:
    """Raise :class:`BenchmarkError` unless ``condition`` holds."""
    if not condition:
        raise BenchmarkError(message)
