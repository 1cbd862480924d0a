"""Set-up probe: start cold, build what a workload needs, print ``ready``.

Run as ``python3 perfbench/setup_probe.py <workload>``; the parent times
the span from spawning this interpreter to the ``ready`` line, which covers
interpreter start, the program's imports and detector/store creation.
"""

from __future__ import annotations

import sys

import common
import configs


def main(workload: str) -> None:
    common.require_program()
    from repro import api

    if workload == "paper-default":
        api.create("class", configs.PAPER_CONFIG)
    elif workload == "archive-replay":
        from repro.storage import StreamStore

        StreamStore(common.WORK / "setup-probe")
        api.create(configs.ARCHIVE_DETECTOR, configs.ARCHIVE_CONFIG)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
