"""The benchmark's tracer finds every program attribute it patches.

``perfbench/tracing.py`` times each layer by replacing module and class
attributes of the program by name (kernels, k-NN, scoring, sanitizer,
storage, service).  A renamed or removed patch point would otherwise fail
only when the benchmark runs with ``--trace 1``.  The installers run in a
fresh interpreter, on a disabled tracer, so their patches never reach this
test process (and it writes no bytecode into ``perfbench/``).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_EVERY_LAYER = """
import sys
sys.path.insert(0, {perfbench!r})
import common
common.require_program()
import tracing
tracer = tracing.Tracer(enabled=False)
tracing.install_core(tracer)
tracing.install_sanitizer(tracer)
tracing.install_storage(tracer)
tracing.install_service(tracer, [])
print("installed")
"""


def test_every_layer_installs_on_a_disabled_tracer():
    script = INSTALL_EVERY_LAYER.format(perfbench=str(ROOT / "perfbench"))
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["installed"]
