"""Command-line interface for quick, scriptable use of the library.

Five sub-commands cover the common workflows without writing Python:

* ``segment``   — stream a CSV/NPZ/NPY file (or a generated demo stream)
  through ClaSS and print the detected change points, as human-readable text
  or as one JSON event per line; ``--checkpoint`` / ``--resume`` persist and
  restore the full segmenter state between invocations.  ``.npy`` inputs are
  memory-mapped, so files far larger than RAM work.
* ``serve``     — run the asyncio segmentation service: named streams over
  HTTP/WebSocket, hash-sharded workers, live rebalancing (``docs/service.rst``).
* ``store``     — the durable stream store (``docs/storage.rst``):
  ``ingest`` a dataset into memory-mapped chunk segments, ``segment`` it with
  full event logging + periodic detector snapshots, ``log`` replays the
  recorded events, and ``resegment`` replays the input from a mid-stream T
  (or through a different detector/config) and prints the old-vs-new audit.
* ``evaluate``  — run ClaSS and selected competitors over a simulated
  collection and print the Covering summary and ranking.
* ``datasets``  — list the available dataset collections (Table 1).

Detectors are constructed exclusively through the :mod:`repro.api` registry:
the ``segment`` flags populate a :class:`~repro.api.ClaSSConfig`, and a
resumed checkpoint rebuilds whatever detector it was written from.

Examples
--------
::

    python -m repro.cli datasets
    python -m repro.cli serve --port 8765 --shards 4
    python -m repro.cli segment --demo --window-size 2000
    python -m repro.cli segment recording.csv --scoring-interval 5 --output json
    python -m repro.cli segment part1.csv --checkpoint state.ckpt
    python -m repro.cli segment part2.csv --resume state.ckpt
    python -m repro.cli store ingest sensor-7 recording.npy --root ./streams
    python -m repro.cli store segment sensor-7 --root ./streams --detector class
    python -m repro.cli store log sensor-7 --root ./streams --since 0
    python -m repro.cli store resegment sensor-7 --root ./streams --from-t 50000
    python -m repro.cli evaluate --collection TSSB --n-series 4 --methods ClaSS,Window,DDM
    python -m repro.cli evaluate --collection TSSB --n-series 8 --workers 4
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.api import (
    ChangePointEvent,
    ClaSSConfig,
    create,
    load_checkpoint,
    save_checkpoint,
    stream,
)
from repro.core.class_segmenter import capped_window_size
from repro.core.kernels import KERNEL_BACKENDS
from repro.core.quality import NAN_POLICIES
from repro.datasets import COLLECTIONS, SegmentSpec, compose_stream, load_collection
from repro.datasets.loaders import load_dataset_csv, load_dataset_npz
from repro.evaluation import (
    covering_score,
    critical_difference_analysis,
    default_method_factories,
    format_ranking,
    format_summary,
    run_experiment,
)


def _demo_dataset():
    """Small built-in demo stream with two change points."""
    specs = [
        SegmentSpec("sine", 1_200, {"period": 40, "noise": 0.05}, label="slow"),
        SegmentSpec("square", 1_200, {"period": 80, "noise": 0.05}, label="cycling"),
        SegmentSpec("sine", 1_200, {"period": 15, "noise": 0.05}, label="fast"),
    ]
    return compose_stream(specs, name="demo", seed=0)


def _load_values(path: str):
    """Load a dataset from CSV/NPZ/NPY, returning (values, change_points or None).

    ``.npy`` files are opened with ``np.load(..., mmap_mode="r")``, so inputs
    far larger than RAM segment fine — the detector reads the array
    chunk-wise and only the touched pages ever become resident.
    """
    file_path = Path(path)
    if file_path.suffix == ".npz":
        dataset = load_dataset_npz(file_path)
        return dataset.values, dataset.change_points
    if file_path.suffix == ".csv":
        dataset = load_dataset_csv(file_path)
        return dataset.values, dataset.change_points
    if file_path.suffix == ".npy":
        return np.load(file_path, mmap_mode="r"), None
    values = np.loadtxt(file_path, dtype=np.float64)
    return np.atleast_1d(values), None


def cmd_datasets(_: argparse.Namespace) -> int:
    """List the dataset collections and their paper specifications."""
    print(f"{'collection':10s} {'kind':10s} {'paper #TS':>9s}  description")
    for name, spec in COLLECTIONS.items():
        print(f"{name:10s} {spec.kind:10s} {spec.paper_n_series:9d}  {spec.description}")
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    """Stream one series through a registry-built detector; print its events."""
    if args.chunk_size < 1:
        print("error: --chunk-size must be a positive integer", file=sys.stderr)
        return 2
    emit_json = args.output == "json"
    # in JSON mode stdout carries events only; progress goes to stderr
    info = sys.stderr if emit_json else sys.stdout
    if args.demo or args.input is None:
        dataset = _demo_dataset()
        values, annotation = dataset.values, dataset.change_points
        print(f"using built-in demo stream ({values.shape[0]} observations)", file=info)
    else:
        values, annotation = _load_values(args.input)
        print(f"loaded {values.shape[0]} observations from {args.input}", file=info)

    if args.resume:
        try:
            segmenter = load_checkpoint(args.resume)
        except Exception as error:  # surface any load failure as a CLI error
            print(f"error: cannot resume from {args.resume}: {error}", file=sys.stderr)
            return 2
        print(
            f"resumed from {args.resume} ({segmenter.n_seen} observations already seen)",
            file=info,
        )
    else:
        data_policy = None
        if args.nan_policy != "reject" or args.max_gap is not None:
            data_policy = {"nan_policy": args.nan_policy}
            if args.max_gap is not None:
                data_policy["max_gap"] = args.max_gap
        try:
            config = ClaSSConfig(
                window_size=capped_window_size(args.window_size, values.shape[0]),
                subsequence_width=args.subsequence_width,
                scoring_interval=args.scoring_interval,
                significance_level=args.significance_level,
                kernel_backend=args.backend,
                data_policy=data_policy,
            )
        except Exception as error:  # e.g. --max-gap with the default reject policy
            print(f"error: {error}", file=sys.stderr)
            return 2
        segmenter = create("class", config)

    # chunked ingestion (behaviour-identical to point-wise, much faster);
    # events are emitted as soon as the chunk containing them is done.  With
    # --checkpoint the stream is left un-finalised so it can be resumed.
    finalize = args.checkpoint is None
    for event in stream(segmenter, values, chunk_size=args.chunk_size, finalize=finalize):
        if emit_json:
            print(json.dumps(event.to_dict()))
        elif isinstance(event, ChangePointEvent):
            print(f"change point at t={event.change_point} (reported at t={event.at})")
        elif event.kind == "gap":
            reset = " (warm-up reset)" if event.reset else ""
            print(f"data gap of {event.gap} observations ending at t={event.at}{reset}")
        elif event.kind == "data_quality":
            repaired = event.imputed or event.skipped
            print(f"repaired {repaired} dirty observation(s) ending at t={event.at}")

    if args.checkpoint:
        save_checkpoint(segmenter, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}", file=info)

    width = getattr(segmenter, "subsequence_width_", None)
    change_points = segmenter.change_points
    score = None
    # on a resumed run the change points are absolute positions over the whole
    # (multi-invocation) stream while the annotation covers only this file, so
    # a covering score would be silently wrong — skip it
    if annotation is not None and annotation.size and not args.resume:
        score = covering_score(annotation, change_points, values.shape[0])
    if emit_json:
        summary = {
            "kind": "summary",
            "n_seen": int(segmenter.n_seen),
            "subsequence_width": width,
            "change_points": change_points.tolist(),
        }
        if score is not None:
            summary["covering"] = round(score, 6)
        print(json.dumps(summary))
    else:
        print(f"learned subsequence width: {width}")
        print(f"change points: {change_points.tolist()}")
        if score is not None:
            print(f"covering vs annotation: {score:.3f}")
    return 0


def _open_store(args: argparse.Namespace):
    """The :class:`~repro.storage.StreamStore` rooted at ``--root``."""
    from repro.storage import StreamStore

    return StreamStore(args.root)


def _parse_config(raw: str | None) -> dict | None:
    """Parse a ``--config`` JSON object (None passes through)."""
    if raw is None:
        return None
    config = json.loads(raw)
    if not isinstance(config, dict):
        raise ValueError("--config must be a JSON object")
    return config


def cmd_store_ingest(args: argparse.Namespace) -> int:
    """Ingest a dataset file into the chunk store (constant memory)."""
    try:
        values, _ = _load_values(args.input)
        stored = _open_store(args).ingest(args.name, values, append=args.append)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    info = stored.info()
    print(
        f"ingested {info['n_rows']} rows into {args.name!r} "
        f"({info['n_segments']} segment file(s), {info['bytes']} bytes)"
    )
    return 0


def cmd_store_list(args: argparse.Namespace) -> int:
    """List the store's streams with their sizes and recorded runs."""
    store = _open_store(args)
    names = store.list_streams()
    if not names:
        print("(no streams)")
        return 0
    for name in names:
        info = store.stream_info(name)
        run = info.get("run")
        suffix = (
            f"  run: {run['detector']}, {run['n_change_points']} change point(s)"
            if run
            else "  (never segmented)"
        )
        print(f"{name:30s} {info['n_rows']:>12d} rows  {info['n_segments']:>4d} seg{suffix}")
    return 0


def cmd_store_segment(args: argparse.Namespace) -> int:
    """Segment a stored stream, recording events + periodic snapshots."""
    try:
        config = _parse_config(args.config)
        run = _open_store(args).segment(
            args.name,
            args.detector,
            config,
            chunk_size=args.chunk_size,
            checkpoint_every=args.checkpoint_every,
            include_scores=args.include_scores,
            finalize=args.finalize,
        )
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output == "json":
        print(json.dumps(run.to_dict()))
    else:
        print(
            f"segmented {run.n_seen} observations with {run.detector}: "
            f"{run.n_events} event(s), {run.n_checkpoints} snapshot(s)"
        )
        for entry in run.change_points:
            print(f"change point at t={entry['change_point']} (reported at t={entry['at']})")
    return 0


def cmd_store_log(args: argparse.Namespace) -> int:
    """Replay a stored stream's recorded events (cursor or time range)."""
    store = _open_store(args)
    try:
        log = store.event_log(args.name)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.from_t is not None or args.to_t is not None:
            records = log.read_range(args.from_t or 0, args.to_t)
        else:
            records = list(log.iter_records(args.since))
        for record in records:
            print(json.dumps(record))
    finally:
        log.close()
    return 0


def cmd_store_resegment(args: argparse.Namespace) -> int:
    """Replay from T (same or new config) and print the audit diff."""
    try:
        config = _parse_config(args.config)
        audit = _open_store(args).resegment(
            args.name,
            args.from_t,
            detector=args.detector,
            config=config,
            chunk_size=args.chunk_size,
            tolerance=args.tolerance,
        )
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output == "json":
        print(json.dumps(audit.to_dict()))
    else:
        print(audit.summary())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio segmentation service until interrupted.

    SIGINT/SIGTERM trigger a graceful shutdown: intake stops, queued
    batches drain, every durable stream is checkpointed, and the process
    exits 0.
    """
    import asyncio

    from repro.service import DurabilityConfig, SegmentationService, SupervisorConfig
    from repro.utils.exceptions import ConfigurationError

    try:
        durability = None
        if args.spool_dir:
            durability = DurabilityConfig(
                spool_dir=args.spool_dir,
                checkpoint_every_n=args.checkpoint_every,
                checkpoint_every_seconds=args.checkpoint_interval,
            )
        supervision = SupervisorConfig(
            max_queue_depth=args.max_queue, job_deadline=args.job_deadline
        )
        service = SegmentationService(
            n_shards=args.shards,
            max_batch=args.max_batch,
            durability=durability,
            supervision=supervision,
            history_window=args.history_window if args.history_window > 0 else None,
            history_dir=args.history_dir,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spool_note = f", spool at {args.spool_dir}" if args.spool_dir else ""
    print(
        f"serving segmentation on http://{args.host}:{args.port} "
        f"({args.shards} shard worker(s){spool_note}; ctrl-c to stop)",
        file=sys.stderr,
    )
    try:
        asyncio.run(service.serve_forever(host=args.host, port=args.port))
        print("drained and checkpointed; bye", file=sys.stderr)
    except KeyboardInterrupt:  # event loops without signal-handler support
        print("shutting down", file=sys.stderr)
    except OSError as error:  # e.g. port already bound
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Run a miniature version of the paper's comparison on one collection."""
    if args.workers < 1:
        print("error: --workers must be a positive integer", file=sys.stderr)
        return 2
    datasets = load_collection(
        args.collection, n_series=args.n_series, length_scale=args.length_scale
    )
    include = [m.strip() for m in args.methods.split(",")] if args.methods else None
    methods = default_method_factories(
        window_size=args.window_size,
        scoring_interval=args.scoring_interval,
        floss_stride=args.scoring_interval,
        include=include,
    )
    result = run_experiment(
        methods, datasets, verbose=not args.quiet and args.workers == 1, n_workers=args.workers
    )
    if result.grid_stats is not None and not args.quiet:
        stats = result.grid_stats
        print(
            f"parallel grid: {stats.n_tasks} cells on {stats.n_workers} workers, "
            f"{stats.wall_seconds:.2f}s wall, speedup {stats.speedup:.2f}x"
        )
    print()
    print(format_summary(result.summary_by_method()))
    matrix, _, names = result.score_matrix()
    if len(names) >= 3:
        analysis = critical_difference_analysis(matrix, names)
        print()
        print(format_ranking(analysis.ordering(), analysis.critical_difference))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro.cli``."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list dataset collections")
    datasets_parser.set_defaults(handler=cmd_datasets)

    segment_parser = subparsers.add_parser("segment", help="segment a stream with ClaSS")
    segment_parser.add_argument(
        "input", nargs="?", help="CSV/NPZ/plain-text file with one value per row"
    )
    segment_parser.add_argument("--demo", action="store_true", help="use the built-in demo stream")
    segment_parser.add_argument("--window-size", type=int, default=10_000)
    segment_parser.add_argument("--subsequence-width", type=int, default=None)
    segment_parser.add_argument(
        "--scoring-interval",
        type=int,
        default=10,
        help="run the ClaSP scoring pass every N observations (default 10, where "
        "ClaSSConfig and the paper use 1: scoring a tenth as often keeps interactive "
        "runs quick; pass 1 for the paper's setting)",
    )
    segment_parser.add_argument("--significance-level", type=float, default=1e-50)
    segment_parser.add_argument(
        "--chunk-size",
        type=int,
        default=1_024,
        help="observations per ingestion chunk (results are identical for any value)",
    )
    segment_parser.add_argument(
        "--backend",
        default="auto",
        choices=KERNEL_BACKENDS,
        help="kernel backend for the k-NN hot paths (results are identical for all; "
        "'auto' uses the numba JIT kernels when numba is installed)",
    )
    segment_parser.add_argument(
        "--nan-policy",
        default="reject",
        choices=NAN_POLICIES,
        help="dirty-data handling: 'reject' (default) raises on NaN/inf; 'skip' drops "
        "them; 'hold-last' repeats the last finite value; 'linear-interp' bridges "
        "runs between finite neighbours (results are chunk-size invariant)",
    )
    segment_parser.add_argument(
        "--max-gap",
        type=int,
        default=None,
        metavar="N",
        help="with a repairing --nan-policy: dirty runs longer than N are skipped "
        "and reported as a typed gap event instead of being imputed",
    )
    segment_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write the full segmenter state to PATH after streaming (the stream is "
        "left un-finalised so a later --resume continues bit-identically)",
    )
    segment_parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="restore the segmenter from a --checkpoint file instead of constructing "
        "a new one (detector construction flags are ignored)",
    )
    segment_parser.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text, or one JSON event object per line "
        "(warmup / change_point events plus a final summary)",
    )
    segment_parser.set_defaults(handler=cmd_segment)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the asyncio segmentation service (HTTP + WebSocket)",
        description="Run the asyncio segmentation service.  Per-stream dirty-data "
        "policies pass straight through: clients set a 'data_policy' field in the "
        "stream spec (docs/data-quality.rst) and the service relaxes its finite-"
        "observations rejection for repairing policies.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765)
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard workers; streams are CRC-32 hash-routed across them",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=100_000,
        help="maximum observations accepted per batch (larger requests get a 413)",
    )
    serve_parser.add_argument(
        "--spool-dir",
        metavar="PATH",
        default=None,
        help="enable durable checkpoints + write-ahead tails under PATH; crashed "
        "workers then recover their streams bit-identically (docs/fault-tolerance.rst)",
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=2_048,
        help="observations between periodic checkpoints of each durable stream",
    )
    serve_parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="seconds between periodic checkpoints (whichever trigger fires first)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="per-shard job queue bound; a full queue sheds load with 503 + Retry-After",
    )
    serve_parser.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        help="seconds a single batch may take before the worker is declared hung "
        "and restarted (default: no deadline)",
    )
    serve_parser.add_argument(
        "--history-window",
        type=int,
        default=4_096,
        help="newest events kept in memory per stream (0 = unbounded); older "
        "events spill to the history directory, or are dropped without one "
        "(stale ?since= cursors then get a 410)",
    )
    serve_parser.add_argument(
        "--history-dir",
        metavar="PATH",
        default=None,
        help="directory for per-stream event-history spill logs (defaults to "
        "<spool-dir>/history when --spool-dir is set)",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    store_parser = subparsers.add_parser(
        "store", help="durable stream store: ingest / segment / log / resegment"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    def _store_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("name", help="stream name inside the store")
        sub.add_argument(
            "--root",
            default="./streams",
            help="store root directory (one sub-directory per stream)",
        )

    ingest_parser = store_sub.add_parser(
        "ingest", help="write a CSV/NPZ/NPY/plain-text dataset into the chunk store"
    )
    _store_common(ingest_parser)
    ingest_parser.add_argument("input", help="dataset file (.npy inputs are memory-mapped)")
    ingest_parser.add_argument(
        "--append", action="store_true", help="extend an existing stream instead of failing"
    )
    ingest_parser.set_defaults(handler=cmd_store_ingest)

    list_parser = store_sub.add_parser("list", help="list the store's streams")
    list_parser.add_argument("--root", default="./streams")
    list_parser.set_defaults(handler=cmd_store_list)

    ssegment_parser = store_sub.add_parser(
        "segment", help="segment a stored stream, recording events + snapshots"
    )
    _store_common(ssegment_parser)
    ssegment_parser.add_argument("--detector", default="class", help="registry key")
    ssegment_parser.add_argument(
        "--config", default=None, help="detector config as a JSON object"
    )
    ssegment_parser.add_argument("--chunk-size", type=int, default=None)
    ssegment_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=4_096,
        help="observations between detector snapshots (the resegment anchors)",
    )
    ssegment_parser.add_argument(
        "--include-scores", action="store_true", help="also log per-chunk score events"
    )
    ssegment_parser.add_argument(
        "--finalize", action="store_true", help="finalize the detector after the last chunk"
    )
    ssegment_parser.add_argument("--output", choices=("text", "json"), default="text")
    ssegment_parser.set_defaults(handler=cmd_store_segment)

    log_parser = store_sub.add_parser(
        "log", help="replay a stream's recorded events as JSON lines"
    )
    _store_common(log_parser)
    log_parser.add_argument(
        "--since", type=int, default=0, help="record cursor to replay from"
    )
    log_parser.add_argument(
        "--from-t", type=int, default=None, help="stream time range start (inclusive)"
    )
    log_parser.add_argument(
        "--to-t", type=int, default=None, help="stream time range end (exclusive)"
    )
    log_parser.set_defaults(handler=cmd_store_log)

    resegment_parser = store_sub.add_parser(
        "resegment", help="replay from T (same or new config) and print the audit"
    )
    _store_common(resegment_parser)
    resegment_parser.add_argument(
        "--from-t", type=int, default=0, help="replay anchor: newest snapshot <= T"
    )
    resegment_parser.add_argument(
        "--detector", default=None, help="replay through a different detector"
    )
    resegment_parser.add_argument(
        "--config", default=None, help="replay with a different config (JSON object)"
    )
    resegment_parser.add_argument("--chunk-size", type=int, default=None)
    resegment_parser.add_argument(
        "--tolerance",
        type=int,
        default=0,
        help="pair old/new change points within this distance as 'moved'",
    )
    resegment_parser.add_argument("--output", choices=("text", "json"), default="text")
    resegment_parser.set_defaults(handler=cmd_store_resegment)

    evaluate_parser = subparsers.add_parser("evaluate", help="run a miniature comparison")
    evaluate_parser.add_argument("--collection", default="TSSB", choices=sorted(COLLECTIONS))
    evaluate_parser.add_argument("--n-series", type=int, default=4)
    evaluate_parser.add_argument("--length-scale", type=float, default=0.3)
    evaluate_parser.add_argument("--window-size", type=int, default=3_000)
    evaluate_parser.add_argument("--scoring-interval", type=int, default=25)
    evaluate_parser.add_argument("--methods", default="ClaSS,Window,DDM,HDDM")
    evaluate_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the method x dataset grid (results are identical)",
    )
    evaluate_parser.add_argument("--quiet", action="store_true")
    evaluate_parser.set_defaults(handler=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
