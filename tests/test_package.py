"""The package's public surface: every exported name exists, every
imported name is used, no module reads the environment, the test oracles
take from the package only an allow-list, and a CLI run imports neither
scipy nor numpy.f2py."""

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


# what a CLI run has no use for: curveflow.linalg loads LAPACK's band LU from
# scipy's _flapack extension on its own, since scipy.linalg's package init
# imports numpy.f2py and more
CLI_UNUSED = ("scipy", "scipy.sparse", "scipy.linalg", "numpy.f2py")

CLI_RUN = """\
import contextlib, io, os, sys
import curveflow.app
out = sys.argv[1]
cfg = os.path.join(out, "tiny.cfg")
with open(cfg, "w", encoding="ascii") as fh:
    fh.write(f"scheme = sp-bdf2\\nN = 16\\ntau = 1/100\\nT = 0.03\\nsnapshots = 0 0.03\\nout = {out}\\n")
snapshots = [os.path.join(out, f"snapshot_0{i}.txt") for i in (0, 1)]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [curveflow.app.main(["simulate", "--config", cfg]), curveflow.app.main(["distance", *snapshots])]
print(codes, [name for name in sys.argv[2:] if name in sys.modules])
"""


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    # a fresh interpreter, since this test process has loaded scipy; it
    # imports the CLI, runs a tiny simulate and a distance on its snapshots
    src = os.path.dirname(os.path.dirname(os.path.abspath(curveflow.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUN, str(tmp_path), *CLI_UNUSED],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"
