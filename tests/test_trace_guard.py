"""The per-layer tracer in perfbench/ must be able to wrap every traced
function: a refactor that hides one in a dict, a partial or a default
argument breaks `perfbench/run.py --trace 1`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(lines):
    """Run `lines` after installing the tracer on the package; stdout."""
    code = "import zdense.cli, spans\ntracer = spans.Tracer()\ntracer.install()\n" + lines
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr  # install() raises when a traced function escapes
    return done.stdout


def test_tracer_installs_on_the_package():
    assert _run_traced("print(tracer.missing)\n").strip() == "[]"


def test_tracer_sees_the_product():
    # The product's work and its result must stay inside the traced
    # `matrices.multiply`: the span counts the call and reads `result.rows`.
    out = _run_traced(
        "from zdense.matrices import Matrix\n"
        "Matrix([[0, 3], [1, 0]]) * Matrix([[5, 0], [0, -7]])\n"
        "row = tracer.rows()['matrices.multiply']\n"
        "print(row['calls'], row['out_bits_max'])\n"
    )
    assert out.split() == ["1", "5"]  # |-21| has 5 bits
