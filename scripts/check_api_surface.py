#!/usr/bin/env python
"""Public-API surface gate: fail CI on silent breakage of ``repro.api``.

The committed ``api_surface.txt`` pins the public surface of the unified
detector API — every name in ``repro.api.__all__``, every registry key with
its config class, and every field of that config (``config:<key>.<field>``,
so an option added or removed shows in review).  This script rebuilds the
surface from a live import and diffs it against the committed file:

* an entry missing from the live surface is a silent breaking change — the
  gate fails,
* a new live entry not in the file means the surface grew without the
  change being committed deliberately — the gate fails too.

Run ``python scripts/check_api_surface.py --update`` after an intentional
surface change to rewrite the pin, and commit the diff alongside the code.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SURFACE_FILE = REPO_ROOT / "api_surface.txt"

HEADER = (
    "# Pinned public surface of repro.api (see scripts/check_api_surface.py).\n"
    "# Regenerate deliberately with: python scripts/check_api_surface.py --update\n"
)


def current_surface() -> list[str]:
    """The live API surface: exported names, registry key -> config pairs, config fields."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro import api

    lines = [f"api:{name}" for name in sorted(api.__all__)]
    for key in api.available():
        config_cls = api.spec(key).config_cls
        lines.append(f"registry:{key}={config_cls.__name__}")
        lines.extend(f"config:{key}.{field.name}" for field in dataclasses.fields(config_cls))
    return lines


def committed_surface(path: Path) -> list[str]:
    """The pinned surface entries (comments and blank lines ignored)."""
    lines = path.read_text().splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


def check(path: Path = DEFAULT_SURFACE_FILE) -> tuple[list[str], list[str]]:
    """Return (removed, added) entries relative to the committed surface."""
    live = set(current_surface())
    pinned = set(committed_surface(path))
    return sorted(pinned - live), sorted(live - pinned)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--surface-file",
        type=Path,
        default=DEFAULT_SURFACE_FILE,
        help="pinned surface file (default: api_surface.txt at the repo root)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the pinned surface from the live import instead of checking",
    )
    args = parser.parse_args(argv)

    if args.update:
        lines = current_surface()
        args.surface_file.write_text(HEADER + "\n".join(lines) + "\n")
        print(f"wrote {len(lines)} surface entries to {args.surface_file}")
        return 0

    if not args.surface_file.exists():
        print(f"error: pinned surface file {args.surface_file} is missing", file=sys.stderr)
        return 1
    removed, added = check(args.surface_file)
    if removed:
        print("REMOVED from the public API surface (breaking change?):", file=sys.stderr)
        for line in removed:
            print(f"  - {line}", file=sys.stderr)
    if added:
        print("ADDED to the public API surface (commit the updated pin):", file=sys.stderr)
        for line in added:
            print(f"  + {line}", file=sys.stderr)
    if removed or added:
        print(
            "api surface drifted; run `python scripts/check_api_surface.py --update` "
            "and commit api_surface.txt if the change is intentional",
            file=sys.stderr,
        )
        return 1
    print(f"api surface ok ({len(committed_surface(args.surface_file))} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
