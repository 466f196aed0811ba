"""The benchmark's build path: `python setup.py -q build --build-base DIR`
must give an importable pure-Python package, whose _kernel_py.py the
benchmark also loads alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_setup_build_gives_an_importable_pure_python_package(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp_path / "build")],
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )
    (lib,) = [p.parent for p in (tmp_path / "build").glob("lib*/zdense")]
    package = lib / "zdense"
    assert (package / "_kernel_py.py").is_file() and (package / "kernels.py").is_file()
    assert not [p for ext in ("*.so", "*.c", "*.pyx") for p in lib.rglob(ext)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", "import zdense; print(zdense.__file__, zdense.KERNEL_BACKEND)"],
        cwd=tmp_path, env=dict(env, PYTHONPATH=str(lib)), capture_output=True, text=True,
        check=True, timeout=60,
    )
    where, backend = done.stdout.split()
    assert Path(where).parent == package
    assert backend == "python"


def test_every_exported_name_is_an_attribute():
    import zdense

    assert [name for name in zdense.__all__ if not hasattr(zdense, name)] == []


def test_kernel_module_has_no_relative_import():
    # perfbench loads _kernel_py.py alone, by file path, to re-check the
    # reports' ddf witnesses: a relative import there would fail to load.
    tree = ast.parse((ROOT / "src" / "zdense" / "_kernel_py.py").read_text())
    relative = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []
