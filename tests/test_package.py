"""The package's public surface: every exported name exists, every
imported name is used, no module reads the environment, the test oracles
take from the package only an allow-list, and the CLI loads without the
sparse-matrix module."""

import ast
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


def _module_tree(module) -> ast.Module:
    with open(module.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # a name counts as used when the module reads it or lists it in __all__
    module = importlib.import_module(f"curveflow.{name}")
    tree = _module_tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(module.__all__)) == []


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_the_environment(name):
    # a run is set by its config file and arguments alone: no environment knobs
    reads = []
    for node in ast.walk(_module_tree(importlib.import_module(f"curveflow.{name}"))):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READS:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend((node.lineno, a.name) for a in node.names if a.name in ENV_READS)
    assert reads == []


# what the test oracles may take from the package: the blocks container, and
# the stencil with the edge lengths it is built from (see stiffness_matrix)
ORACLE_IMPORTS = {
    "curveflow.femcore.NewtonBlocks",
    "curveflow.femcore.stiffness_stencil",
    "curveflow.geometry.edge_lengths",
}


def test_oracles_import_from_the_package_only_an_allow_list():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    from_package = {name for name in imported if name.split(".")[0] == "curveflow"}
    assert sorted(from_package - ORACLE_IMPORTS) == []


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
