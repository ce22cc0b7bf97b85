"""The package's public surface: every exported name exists, and the CLI
loads without the sparse-matrix module."""

import importlib
import os
import subprocess
import sys

import pytest

import curveflow

MODULES = ("app", "femcore", "geometry", "linalg", "metrics", "schemes")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"curveflow.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_cli_import_leaves_scipy_sparse_unloaded():
    # a fresh interpreter, since this test process has loaded scipy.sparse
    src = os.path.dirname(os.path.dirname(os.path.abspath(curveflow.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, curveflow.app; print('scipy.sparse' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
