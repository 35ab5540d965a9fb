"""Module boundaries of the package: each module reaches another only through
its public names, so a private helper can change without its callers."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "harmonmf"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reach_ins(source):
    """(line, name) of each private name that source takes from another
    harmonmf module: ``from .m import _x`` or ``from harmonmf.m import _x``,
    or ``m._x`` on a module it took by ``from . import m``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "harmonmf"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "harmonmf"):  # a module: from . import nmf
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_reach_ins(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from .enhance import EnhanceConfig, _run\n",
    "from harmonmf.enhance import _run\n",
    "from . import _private_module\n",
    "from . import enhance\nenhance._run(1)\n",
    "from harmonmf import enhance as e\ne._spectrum(1)\n",
])
def test_private_reach_in_is_found(source):
    """Each form of reach-in the check knows is found, once."""
    assert len(private_reach_ins(source)) == 1


@pytest.mark.parametrize("source", [
    "from .enhance import enhance, EnhanceConfig\n",
    "from . import nmf\nnmf.solve(1)\n",
    "from . import __version__\n",
    "import numpy as np\nnp._NoValue\n",
    "def _local():\n    pass\n_local()\n",
])
def test_public_use_is_not_flagged(source):
    assert private_reach_ins(source) == []


def test_cli_import_loads_no_process_pool():
    """The sweep imports its process pool only when it starts one: a fresh
    interpreter that imports harmonmf.cli loads neither concurrent.futures
    nor multiprocessing, which take milliseconds of every command's start."""
    code = ("import sys, harmonmf.cli; print(*sorted(m for m in sys.modules if "
            "m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == []
