"""The repository's benchmark: one command per workload, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper-default``  - one in-process ClaSS stream at the paper's defaults
  (``paper_default.py``);
* ``service-fleet``  - the segmentation service as a separate process,
  driven open-loop by 64 streams over two keep-alive connections
  (``service_fleet.py``);
* ``archive-replay`` - a dirty stored stream ingested, segmented and
  re-segmented from its midpoint by ``StreamStore`` (``archive_replay.py``).

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric, measured from spans
that benchmark-owned wrappers record around the program's public entry
points (``tracing.py``).  Each number is also printed, and written under
``.perfbench-out/``, as a record ``{layer, workload, metric, value, unit,
machine, commit}``.  A wrong answer prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import common

WORKLOADS = ("paper-default", "service-fleet", "archive-replay")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the server it started is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    common.require_program()
    if args.workload == "paper-default":
        import paper_default as workload
    elif args.workload == "service-fleet":
        import service_fleet as workload
    else:
        import archive_replay as workload

    recorder = common.Recorder(args.workload)
    correct = True
    try:
        attempted, failed = workload.run(args.seed, args.seconds, bool(args.trace), recorder)
    except common.BenchmarkError as error:
        print(f"perfbench: WRONG ANSWER on {args.workload} seed {args.seed}: {error}", file=sys.stderr)
        correct, attempted, failed = False, 1, 1
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    recorder.write(args.seed, bool(args.trace))
    for record in recorder.records:
        print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": recorder.metrics(),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
