"""Deploying ClaSS inside the stream-processing engine (the Flink-style setup).

The paper ships ClaSS as an Apache Flink window operator; this example builds
the equivalent job with the library's own engine: a dataset source emitting
record micro-batches, a denoising map operator, the ClaSS window operator
(which hands each batch to ClaSS's chunked ingestion path in one call), and a
change point sink — plus a callback sink playing the role of an alerting
service.  Batching changes nothing about the detected change points, only
the rate: the example runs the same job record-at-a-time afterwards to show
both the identical events and the throughput difference.  The pipeline
metrics printed at the end correspond to the throughput numbers of §4.4.

Run with:  python examples/stream_pipeline.py
"""

from __future__ import annotations

from repro.datasets import make_wesad_like
from repro.streamengine import (
    CallbackSink,
    ChangePointSink,
    ClaSSWindowOperator,
    DatasetSource,
    MapOperator,
    Pipeline,
)

#: Records per source micro-batch; one ClaSS ingestion call per batch.
BATCH_SIZE = 512


def build_pipeline(dataset, batch_size, alert):
    """Wire source -> map -> ClaSS operator -> sinks for one run."""
    operator = ClaSSWindowOperator(
        window_size=min(4_000, dataset.n_timepoints // 2),
        scoring_interval=20,
    )
    change_points = ChangePointSink()
    pipeline = (
        Pipeline(DatasetSource(dataset, batch_size=batch_size), name="wesad-monitoring")
        .add_operator(MapOperator(lambda value: float(value)))   # unit conversion hook
        .add_operator(operator)
        .add_sink(change_points)
        .add_sink(CallbackSink(alert))
    )
    return pipeline, change_points


def main() -> None:
    # a WESAD-like physiological recording cycling through affect states
    dataset = make_wesad_like(n_series=1, length_scale=0.15, seed=7)[0]
    print(f"stream: {dataset.name}, {dataset.n_timepoints} samples, "
          f"states: {dataset.segment_labels}")
    print(f"annotated transitions: {dataset.change_points.tolist()}")
    print()

    def alert(record) -> None:
        event = record.value
        print(f"  [alert] state change at t={event.change_point} "
              f"(reported at t={event.at}, delay {event.detection_delay})")

    print(f"running batched pipeline (micro-batches of {BATCH_SIZE}) ...")
    pipeline, change_points = build_pipeline(dataset, BATCH_SIZE, alert)
    metrics = pipeline.run()

    print()
    print(f"records processed : {metrics.n_source_records} "
          f"(in {metrics.n_source_batches} batches, "
          f"mean size {metrics.mean_batch_size:.0f})")
    print(f"events emitted    : {change_points.change_points.shape[0]}")
    print(f"runtime           : {metrics.runtime_seconds:.2f} s")
    print(f"throughput        : {metrics.throughput:,.0f} observations/s")
    print(f"detected changes  : {change_points.change_points.tolist()}")
    print(f"detection delays  : {change_points.detection_delays.tolist()}")

    print()
    print("running the same job record-at-a-time for comparison ...")
    pointwise, pointwise_sink = build_pipeline(dataset, None, lambda record: None)
    pointwise_metrics = pointwise.run()
    print(f"throughput        : {pointwise_metrics.throughput:,.0f} observations/s "
          f"({metrics.throughput / pointwise_metrics.throughput:.1f}x slower than batched)")
    same = pointwise_sink.change_points.tolist() == change_points.change_points.tolist()
    print(f"identical events  : {same}")


if __name__ == "__main__":
    main()
