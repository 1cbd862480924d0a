"""ClaSS as a window operator for the stream engine (paper §1, §4.4).

The paper ships ClaSS as an Apache Flink window operator with an average
throughput of ~1k points per second.  :class:`ClaSSWindowOperator` plays the
same role for this library's engine: it owns a ClaSS instance, consumes value
records (individually or as micro-batches routed to ClaSS's chunked
ingestion path) and emits change point events, and
:func:`run_class_pipeline` wires a dataset source, the operator and a change
point sink into a complete job — the configuration used by the Flink-operator
throughput benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.api import ClaSSConfig, create
from repro.core.class_segmenter import capped_window_size
from repro.datasets.dataset import TimeSeriesDataset
from repro.streamengine.operators import SegmentationOperator
from repro.streamengine.pipeline import PipelineMetrics
from repro.streamengine.sharded import ShardedPipeline, ShardedRunResult
from repro.streamengine.sinks import ChangePointSink
from repro.streamengine.sources import DatasetSource
from repro.utils.exceptions import ConfigurationError


class ClaSSWindowOperator(SegmentationOperator):
    """Segmentation operator backed by a ClaSS instance.

    The wrapped segmenter is constructed through the :mod:`repro.api`
    registry from a typed config — pass a ready
    :class:`~repro.api.ClaSSConfig` (e.g. parsed from a JSON job spec) or
    plain keyword arguments, which build one.
    """

    name = "class_window_operator"

    def __init__(self, config: ClaSSConfig | None = None, **class_kwargs) -> None:
        if config is None:
            config = ClaSSConfig(**class_kwargs)
        elif class_kwargs:
            config = config.replace(**class_kwargs)
        self.config = config
        super().__init__(create("class", config))

    @property
    def change_points(self) -> np.ndarray:
        """Change points reported so far by the wrapped ClaSS instance."""
        return self.segmenter.change_points


@dataclass
class ClaSSPipelineResult:
    """Outcome of running one dataset through the ClaSS operator pipeline."""

    dataset: str
    change_points: np.ndarray
    detection_delays: np.ndarray
    metrics: PipelineMetrics

    @property
    def throughput(self) -> float:
        """Source records per second achieved by the pipeline."""
        return self.metrics.throughput


def run_class_pipeline(
    dataset: TimeSeriesDataset,
    window_size: int = 10_000,
    scoring_interval: int = 1,
    batch_size: int | None = None,
    kernel_backend: str = "auto",
    **class_kwargs,
) -> ClaSSPipelineResult:
    """Run one dataset through a ``source -> ClaSS operator -> sink`` pipeline.

    With ``batch_size`` set, the source emits record micro-batches and the
    operator feeds them to ClaSS's chunked ingestion path — same change
    points, higher throughput.  ``kernel_backend`` selects the k-NN kernel
    backend of :mod:`repro.core.kernels` (``"auto"`` picks the fastest
    available; change points are identical for every backend).  This is the
    one-stream case of :func:`run_class_pipelines`.
    """
    results, _ = run_class_pipelines(
        [dataset],
        window_size=window_size,
        scoring_interval=scoring_interval,
        batch_size=batch_size,
        kernel_backend=kernel_backend,
        **class_kwargs,
    )
    return results[0]


@dataclass(frozen=True)
class ClaSSChainFactory:
    """Picklable per-stream operator factory for the sharded multi-stream job.

    Holds the per-dataset window cap (ClaSS caps its window at half the
    series length) keyed by stream name, so the factory can be shipped to
    worker processes and still build the exact operator the single-pipeline
    path builds.
    """

    window_by_stream: dict
    scoring_interval: int = 1
    class_kwargs: dict = field(default_factory=dict)

    def __call__(self, key: str) -> ClaSSWindowOperator:
        return ClaSSWindowOperator(
            window_size=self.window_by_stream[key],
            scoring_interval=self.scoring_interval,
            **self.class_kwargs,
        )


def _change_point_sink_factory(key: str) -> ChangePointSink:
    """Fresh :class:`ChangePointSink` per stream (module-level: picklable)."""
    return ChangePointSink()


def run_class_pipelines(
    datasets: Sequence[TimeSeriesDataset],
    n_shards: int = 1,
    n_workers: int | None = None,
    window_size: int = 10_000,
    scoring_interval: int = 1,
    batch_size: int | None = None,
    kernel_backend: str = "auto",
    **class_kwargs,
) -> tuple[list[ClaSSPipelineResult], ShardedRunResult]:
    """Run many datasets as independent ClaSS streams on a sharded engine.

    The multi-stream counterpart of :func:`run_class_pipeline` and the
    engine-side version of the paper's Flink experiment: every dataset is an
    independent keyed stream with its own ClaSS operator chain, streams are
    hash-partitioned across ``n_shards`` replicas, and shards optionally run
    on ``n_workers`` worker processes.  Per-dataset results are bit-identical
    to running :func:`run_class_pipeline` on each dataset (the chains share
    nothing), and are returned in dataset order together with the sharded run
    result (aggregated metrics, per-shard timings, ordered merge).

    Dataset names are the stream keys, so they must be unique — duplicates
    would silently chain two series through one sliding window.
    ``kernel_backend`` is forwarded to every per-stream ClaSS operator (it
    must resolve on the worker processes too; ``"auto"`` degrades safely).
    """
    names = [dataset.name for dataset in datasets]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ConfigurationError(
            f"dataset names must be unique per run (stream keys); duplicated: {duplicates}"
        )
    window_by_stream = {
        dataset.name: capped_window_size(window_size, dataset.n_timepoints)
        for dataset in datasets
    }
    sharded = ShardedPipeline(
        n_shards,
        operator_factory=ClaSSChainFactory(
            window_by_stream=window_by_stream,
            scoring_interval=scoring_interval,
            class_kwargs=dict(class_kwargs, kernel_backend=kernel_backend),
        ),
        sink_factory=_change_point_sink_factory,
        name="class_multi_stream",
    )
    for dataset in datasets:
        sharded.add_source(DatasetSource(dataset, batch_size=batch_size))
    run_result = sharded.run(n_workers=n_workers)
    results = [
        ClaSSPipelineResult(
            dataset=dataset.name,
            change_points=run_result.results[dataset.name].sink.change_points,
            detection_delays=run_result.results[dataset.name].sink.detection_delays,
            metrics=run_result.results[dataset.name].metrics,
        )
        for dataset in datasets
    ]
    return results, run_result
