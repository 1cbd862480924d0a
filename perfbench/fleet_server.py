"""Launch ``repro.cli serve`` for service-fleet, optionally traced.

Usage::

    python3 perfbench/fleet_server.py --port P --spool-dir D [--trace-out F] [--speed-out S]

Without options this is exactly ``python -m repro.cli serve --port P
--shards 2 --spool-dir D``.  With ``--trace-out``, the tracing wrappers are
installed in this process before the service is built, recording stays off
until the first SIGUSR1 (so the benchmark can measure an untraced stretch
first), and the span file is written after the graceful SIGTERM shutdown.
With ``--speed-out``, SIGUSR2 starts sampling the host's speed in this
process, the one whose speed sets the service's (``common.HostSpeed``), and
the samples are written after the shutdown.
"""

from __future__ import annotations

import argparse
import ctypes
import signal
import sys
from pathlib import Path

import common

SHARDS = 2
PR_SET_PDEATHSIG = 1


def stop_with_parent() -> None:
    """Have Linux send SIGTERM here if the benchmark process dies first."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass  # not Linux: the benchmark's own SIGTERM handler still stops us


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--spool-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--speed-out", default=None)
    args = parser.parse_args()
    stop_with_parent()
    common.require_program()
    from repro import cli

    serve = ["serve", "--port", str(args.port), "--shards", str(SHARDS), "--spool-dir", args.spool_dir]
    if args.speed_out is not None:
        speed = common.HostSpeed()
        signal.signal(signal.SIGUSR2, lambda signum, frame: speed.__enter__())
        try:
            return cli.main(serve)
        finally:
            if speed.samples:
                speed.__exit__()
            speed.dump(Path(args.speed_out))
    if args.trace_out is None:
        return cli.main(serve)

    import tracing

    tracer = tracing.Tracer(enabled=False)
    services: list = []
    tracing.install_core(tracer)
    tracing.install_service(tracer, services)
    signal.signal(signal.SIGUSR1, lambda signum, frame: setattr(tracer, "enabled", True))
    status = cli.main(serve)
    tracer.counters["service.rejected"] = sum(
        sum(service.error_counts.values()) for service in services
    )
    tracer.dump(Path(args.trace_out))
    return status


if __name__ == "__main__":
    sys.exit(main())
