"""Streaming experiment runner (paper §4.1, §4.3).

The runner simulates the streaming setting exactly as the paper does: every
series is replayed one observation at a time into a freshly constructed
segmenter, the reported change points are collected, and the segmentation is
scored with Covering against the annotations.  Wall-clock time and throughput
are recorded alongside so the same run feeds the accuracy tables (Table 3,
Figure 5) and the runtime/throughput figures (Figures 6-7).

Because methods need per-dataset configuration (ClaSS caps its window at the
series length, FLOSS takes the annotated subsequence width, Window uses ten
times that width), methods are supplied as *factories*: callables receiving
the dataset and returning a ready-to-stream segmenter.
:func:`default_method_factories` builds the paper-configured factories for
ClaSS and all eight competitors.

Every method x dataset cell is an independent job, so
:func:`run_experiment` can fan the grid out over worker processes
(``n_workers``) through :func:`repro.utils.parallel.run_ordered`.  All
built-in factories are plain picklable objects (not closures), so they cross
the process boundary unchanged; records come back in the sequential order
and are identical to a sequential run.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.api import ClaSSConfig, FLOSSConfig, Segmenter, WindowConfig, create
from repro.core.class_segmenter import ClaSS, capped_window_size
from repro.datasets.dataset import TimeSeriesDataset
from repro.evaluation.covering import covering_score
from repro.evaluation.metrics import change_point_f1
from repro.utils.exceptions import ConfigurationError
from repro.utils.parallel import run_ordered

#: A method factory builds a fresh segmenter configured for one dataset.
MethodFactory = Callable[[TimeSeriesDataset], Segmenter]


@dataclass
class EvaluationRecord:
    """Outcome of streaming one method over one dataset."""

    method: str
    dataset: str
    collection: str
    n_timepoints: int
    n_true_change_points: int
    n_predicted_change_points: int
    covering: float
    f1: float
    runtime_seconds: float
    throughput: float
    predicted_change_points: np.ndarray
    detection_times: np.ndarray

    def as_row(self) -> dict:
        """Flat dictionary representation used by the report writers."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "collection": self.collection,
            "n_timepoints": self.n_timepoints,
            "n_true_cps": self.n_true_change_points,
            "n_pred_cps": self.n_predicted_change_points,
            "covering": round(self.covering, 4),
            "f1": round(self.f1, 4),
            "runtime_s": round(self.runtime_seconds, 4),
            "throughput": round(self.throughput, 1),
        }


@dataclass
class WorkerStats:
    """Wall-clock and throughput accounting of one worker process."""

    worker: int
    n_tasks: int = 0
    busy_seconds: float = 0.0
    n_timepoints: int = 0

    @property
    def throughput(self) -> float:
        """Observations streamed per busy second by this worker."""
        if self.busy_seconds <= 0:
            return float("inf")
        return self.n_timepoints / self.busy_seconds


@dataclass
class GridExecutionStats:
    """Aggregated accounting of one parallel grid execution."""

    n_workers: int
    n_tasks: int
    wall_seconds: float
    workers: list[WorkerStats] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        """Total time spent streaming across all workers."""
        return sum(worker.busy_seconds for worker in self.workers)

    @property
    def speedup(self) -> float:
        """Aggregate busy time over wall time — the achieved parallel speedup."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.busy_seconds / self.wall_seconds

    def as_rows(self) -> list[dict]:
        """Per-worker rows for the report writers."""
        return [
            {
                "worker": stats.worker,
                "tasks": stats.n_tasks,
                "busy_s": round(stats.busy_seconds, 3),
                "points_per_s": round(stats.throughput, 1),
            }
            for stats in self.workers
        ]


@dataclass
class ExperimentResult:
    """All records of one experiment, with aggregation helpers."""

    records: list[EvaluationRecord] = field(default_factory=list)
    #: Per-worker accounting of a parallel grid run (None for sequential runs).
    grid_stats: GridExecutionStats | None = None

    @property
    def methods(self) -> list[str]:
        """Method names in first-appearance order."""
        seen: list[str] = []
        for record in self.records:
            if record.method not in seen:
                seen.append(record.method)
        return seen

    @property
    def datasets(self) -> list[str]:
        """Dataset names in first-appearance order."""
        seen: list[str] = []
        for record in self.records:
            if record.dataset not in seen:
                seen.append(record.dataset)
        return seen

    def filter(
        self, collection: str | None = None, method: str | None = None
    ) -> "ExperimentResult":
        """Sub-result restricted to one collection and/or one method."""
        records = [
            r
            for r in self.records
            if (collection is None or r.collection == collection)
            and (method is None or r.method == method)
        ]
        return ExperimentResult(records)

    def score_matrix(self, metric: str = "covering") -> tuple[np.ndarray, list[str], list[str]]:
        """Datasets x methods matrix of a metric, plus the row/column labels."""
        methods = self.methods
        datasets = self.datasets
        matrix = np.full((len(datasets), len(methods)), np.nan)
        for record in self.records:
            row = datasets.index(record.dataset)
            col = methods.index(record.method)
            matrix[row, col] = getattr(record, metric)
        return matrix, datasets, methods

    def summary_by_method(self, metric: str = "covering") -> dict[str, dict[str, float]]:
        """Mean / median / std of a metric per method (Table 3 style)."""
        summary: dict[str, dict[str, float]] = {}
        for method in self.methods:
            values = np.array([getattr(r, metric) for r in self.records if r.method == method])
            summary[method] = {
                "mean": float(np.mean(values)),
                "median": float(np.median(values)),
                "std": float(np.std(values)),
                "n": int(values.shape[0]),
            }
        return summary

    def total_runtime_by_method(self) -> dict[str, float]:
        """Total wall-clock seconds spent per method (Figure 6 top-left)."""
        totals: dict[str, float] = {}
        for record in self.records:
            totals[record.method] = totals.get(record.method, 0.0) + record.runtime_seconds
        return totals

    def mean_throughput_by_method(self) -> dict[str, float]:
        """Average points/second per method (Figure 6 bottom-left)."""
        result: dict[str, float] = {}
        for method in self.methods:
            values = [r.throughput for r in self.records if r.method == method]
            result[method] = float(np.mean(values)) if values else 0.0
        return result


def stream_dataset(
    segmenter: Segmenter,
    dataset: TimeSeriesDataset,
    chunk_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Replay ``dataset`` through ``segmenter`` via the chunked ingestion path.

    The series goes through ``process`` in chunks (behaviour-identical to
    point-wise streaming, substantially faster), then ``finalize`` flushes
    end-of-stream state.  Returns the predicted change points and their
    detection times, both read from the segmenter's ``change_point``
    events, and the elapsed wall-clock seconds.
    """
    start = time.perf_counter()
    segmenter.process(dataset.values, chunk_size=chunk_size)
    segmenter.finalize()
    elapsed = time.perf_counter() - start
    detections = [event for event in segmenter.events() if event.kind == "change_point"]
    change_points = np.asarray([event.change_point for event in detections], dtype=np.int64)
    detection_times = np.asarray([event.at for event in detections], dtype=np.int64)
    return change_points, detection_times, elapsed


def run_method_on_dataset(
    method_name: str,
    factory: MethodFactory,
    dataset: TimeSeriesDataset,
) -> EvaluationRecord:
    """Build, stream and score one method on one dataset."""
    segmenter = factory(dataset)
    predicted, detection_times, elapsed = stream_dataset(segmenter, dataset)
    covering = covering_score(dataset.change_points, predicted, dataset.n_timepoints)
    f1 = change_point_f1(
        dataset.change_points, predicted, dataset.n_timepoints, margin_fraction=0.02
    )
    throughput = dataset.n_timepoints / elapsed if elapsed > 0 else float("inf")
    return EvaluationRecord(
        method=method_name,
        dataset=dataset.name,
        collection=dataset.collection,
        n_timepoints=dataset.n_timepoints,
        n_true_change_points=int(dataset.change_points.shape[0]),
        n_predicted_change_points=int(predicted.shape[0]),
        covering=covering,
        f1=f1,
        runtime_seconds=elapsed,
        throughput=throughput,
        predicted_change_points=predicted,
        detection_times=detection_times,
    )


def _run_cell(
    cell: tuple[str, MethodFactory, TimeSeriesDataset], verbose: bool = False
) -> tuple[int, float, EvaluationRecord]:
    """Stream one grid cell; return ``(worker pid, busy seconds, record)``, timed in the worker."""
    method_name, factory, dataset = cell
    start = time.perf_counter()
    record = run_method_on_dataset(method_name, factory, dataset)
    busy_seconds = time.perf_counter() - start
    if verbose:  # pragma: no cover - console output
        print(
            f"  {method_name:14s} {dataset.name:24s} covering={record.covering:.3f} "
            f"({record.runtime_seconds:.2f}s)"
        )
    return os.getpid(), busy_seconds, record


def run_experiment(
    methods: dict[str, MethodFactory],
    datasets: Sequence[TimeSeriesDataset],
    verbose: bool = False,
    n_workers: int | None = None,
) -> ExperimentResult:
    """Stream every dataset through every method and collect all records.

    The method x dataset cells run dataset-major through
    :func:`repro.utils.parallel.run_ordered`: in this process for
    ``n_workers`` of ``None`` or ``1``, else on that many worker processes
    (every factory must then be picklable).  The records are identical for
    every worker count and arrive in the same order; parallel runs also set
    :attr:`ExperimentResult.grid_stats`.
    """
    if not methods:
        raise ConfigurationError("at least one method factory is required")
    cells = [(name, factory, dataset) for dataset in datasets for name, factory in methods.items()]
    wall_start = time.perf_counter()
    outcomes = run_ordered(
        functools.partial(_run_cell, verbose=verbose),
        cells,
        n_workers,
        names=[f"method {name!r} on dataset {dataset.name!r}" for name, _, dataset in cells],
    )
    wall_seconds = time.perf_counter() - wall_start
    result = ExperimentResult([record for _, _, record in outcomes])
    if n_workers is not None and n_workers > 1:
        workers: dict[int, WorkerStats] = {}
        for pid, busy_seconds, record in outcomes:
            stats = workers.setdefault(pid, WorkerStats(worker=pid))
            stats.n_tasks += 1
            stats.busy_seconds += busy_seconds
            stats.n_timepoints += record.n_timepoints
        result.grid_stats = GridExecutionStats(
            n_workers=n_workers,
            n_tasks=len(cells),
            wall_seconds=wall_seconds,
            workers=[workers[pid] for pid in sorted(workers)],
        )
    return result


# --------------------------------------------------------------------------- #
# paper-configured method factories
# --------------------------------------------------------------------------- #


def _dataset_width(dataset: TimeSeriesDataset, fallback: int = 50) -> int:
    """Annotated subsequence width of a dataset, with a sensible fallback."""
    width = dataset.subsequence_width_hint
    if width is None:
        width = fallback
    return max(10, min(int(width), dataset.n_timepoints // 8))


@dataclass(frozen=True)
class ClaSSFactory:
    """Picklable factory producing paper-configured ClaSS instances per dataset.

    The per-dataset policy (``window_size`` capped at half of the series
    length so the subsequence width can always be learned before the stream
    ends, optionally the annotated width) is resolved into a
    :class:`repro.api.ClaSSConfig`, and construction goes through the
    registry — the single construction path of the unified API.
    """

    window_size: int = 10_000
    scoring_interval: int = 1
    use_annotated_width: bool = False
    kernel_backend: str = "auto"
    class_kwargs: dict = field(default_factory=dict)

    def config_for(self, dataset: TimeSeriesDataset) -> ClaSSConfig:
        """The effective, dataset-specific config this factory builds from."""
        capped_window = capped_window_size(self.window_size, dataset.n_timepoints)
        width = _dataset_width(dataset) if self.use_annotated_width else None
        if width is not None:
            width = min(width, capped_window // 4)
        return ClaSSConfig(
            window_size=capped_window,
            subsequence_width=width,
            scoring_interval=self.scoring_interval,
            kernel_backend=self.kernel_backend,
            **self.class_kwargs,
        )

    def __call__(self, dataset: TimeSeriesDataset) -> ClaSS:
        return create("class", self.config_for(dataset))


@dataclass(frozen=True)
class FLOSSFactory:
    """Picklable factory producing paper-configured FLOSS instances per dataset."""

    window_size: int = 10_000
    stride: int = 1

    def config_for(self, dataset: TimeSeriesDataset) -> FLOSSConfig:
        """The effective, dataset-specific config this factory builds from."""
        width = _dataset_width(dataset)
        return FLOSSConfig(
            window_size=int(min(self.window_size, max(dataset.n_timepoints // 2, 4 * width + 10))),
            subsequence_width=width,
            stride=self.stride,
        )

    def __call__(self, dataset: TimeSeriesDataset):
        return create("floss", self.config_for(dataset))


@dataclass(frozen=True)
class WindowFactory:
    """Picklable factory producing Window segmenters sized from the annotation."""

    def config_for(self, dataset: TimeSeriesDataset) -> WindowConfig:
        """The effective, dataset-specific config this factory builds from."""
        width = _dataset_width(dataset)
        return WindowConfig(window_size=min(10 * width, max(dataset.n_timepoints // 4, 40)))

    def __call__(self, dataset: TimeSeriesDataset):
        return create("window", self.config_for(dataset))


@dataclass(frozen=True)
class CompetitorFactory:
    """Picklable factory building one registered detector with fixed kwargs.

    ``competitor`` is a :mod:`repro.api` registry key; the paper spellings
    (``"BOCD"``, ``"ChangeFinder"``, ...) are accepted aliases.
    """

    competitor: str
    kwargs: dict = field(default_factory=dict)

    def __call__(self, dataset: TimeSeriesDataset):
        return create(self.competitor, **self.kwargs)


def default_method_factories(
    window_size: int = 10_000,
    scoring_interval: int = 1,
    floss_stride: int = 1,
    include: Sequence[str] | None = None,
    class_kwargs: dict | None = None,
    kernel_backend: str = "auto",
) -> dict[str, MethodFactory]:
    """Paper-configured factories for ClaSS and the eight competitors.

    Every returned factory is picklable, so the dictionary can be handed to
    a parallel :func:`run_experiment` as-is.

    Parameters
    ----------
    window_size:
        Sliding window size for ClaSS and FLOSS (paper: 10k).
    scoring_interval, floss_stride:
        Optional strides for the two expensive profile-based methods so the
        pure-Python evaluation stays tractable on large suites.
    include:
        Optional subset of method names.
    class_kwargs:
        Extra keyword arguments forwarded to ClaSS.
    kernel_backend:
        Kernel backend for the ClaSS k-NN hot paths (scores are identical
        for every backend; ``"auto"`` picks the fastest available).
    """
    class_kwargs = dict(class_kwargs or {})

    factories: dict[str, MethodFactory] = {
        "ClaSS": ClaSSFactory(
            window_size=window_size,
            scoring_interval=scoring_interval,
            kernel_backend=kernel_backend,
            class_kwargs=class_kwargs,
        ),
        "FLOSS": FLOSSFactory(window_size=window_size, stride=floss_stride),
        "Window": WindowFactory(),
        "BOCD": CompetitorFactory("BOCD"),
        "ChangeFinder": CompetitorFactory("ChangeFinder"),
        "NEWMA": CompetitorFactory("NEWMA"),
        "ADWIN": CompetitorFactory("ADWIN"),
        "DDM": CompetitorFactory("DDM"),
        "HDDM": CompetitorFactory("HDDM"),
    }
    if include is not None:
        factories = {name: factories[name] for name in include}
    return factories
