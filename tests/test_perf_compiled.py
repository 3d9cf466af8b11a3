"""Compiled-module status reporting and the bare packaging entry point."""

import os
import subprocess
import sys

from repro.perf import compiled

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_status_covers_every_core_module():
    status = compiled.module_status()
    assert set(status) == set(compiled.COMPILED_MODULES)
    # The package ships pure Python: nothing loads as an extension.
    assert not any(status.values())


def test_setup_py_runs():
    """The offline ``python setup.py develop`` fallback needs a working
    ``setup.py``; ``--version`` exercises it without building anything."""
    result = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "1.0.0"
