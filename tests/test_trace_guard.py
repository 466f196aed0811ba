"""The per-layer tracer in perfbench/ must be able to wrap every traced
function: a refactor that hides one in a dict, a partial or a default
argument breaks `perfbench/run.py --trace 1`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    code = (
        "import zdense.cli, spans\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"  # raises RuntimeError when a traced function escapes
        "print(tracer.missing)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
