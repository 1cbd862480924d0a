"""Minimal push-based stream-processing engine (the Apache Flink substitute)."""

from repro.streamengine.class_operator import (
    ClaSSChainFactory,
    ClaSSPipelineResult,
    ClaSSWindowOperator,
    run_class_pipeline,
    run_class_pipelines,
)
from repro.streamengine.operators import (
    FilterOperator,
    MapOperator,
    Operator,
    SegmentationOperator,
    SlidingWindowOperator,
)
from repro.streamengine.pipeline import Pipeline, PipelineMetrics
from repro.streamengine.records import Record, RecordBatch
from repro.streamengine.sharded import KeyedStreamResult, ShardedPipeline, ShardedRunResult
from repro.streamengine.sinks import CallbackSink, ChangePointSink, CollectSink
from repro.streamengine.sources import ArraySource, BatchingSource, DatasetSource, PacedSource

__all__ = [
    "Record",
    "RecordBatch",
    "ArraySource",
    "BatchingSource",
    "DatasetSource",
    "PacedSource",
    "Operator",
    "MapOperator",
    "FilterOperator",
    "SlidingWindowOperator",
    "SegmentationOperator",
    "Pipeline",
    "PipelineMetrics",
    "CollectSink",
    "ChangePointSink",
    "CallbackSink",
    "ClaSSWindowOperator",
    "ClaSSPipelineResult",
    "ClaSSChainFactory",
    "run_class_pipeline",
    "run_class_pipelines",
    "ShardedPipeline",
    "ShardedRunResult",
    "KeyedStreamResult",
]
