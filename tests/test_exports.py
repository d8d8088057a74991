"""Every name in a sandwalk module's ``__all__`` resolves, so a deletion that
leaves a stale export fails here; and each module keeps to its own concern."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sandwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(sandwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sandwalk.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_modules_found():
    assert {"cli", "gait", "sim"} <= set(MODULES)


SRC = Path(sandwalk.__file__).resolve().parent


def _imported_modules(tree) -> set[str]:
    """The top-level names of the modules that ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _forks(tree) -> bool:
    """Whether ``tree`` reads ``os.fork``."""
    return any(isinstance(node, ast.Attribute) and node.attr == "fork"
               and isinstance(node.value, ast.Name) and node.value.id == "os"
               for node in ast.walk(tree))


def test_sim_holds_only_the_step():
    # the file format lives in trajectory.py and the process primitive in
    # child.py: the simulator imports neither's machinery, and one module forks
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    process_and_io = {"os", "pickle", "signal", "tempfile", "json", "warnings", "traceback"}
    assert _imported_modules(trees["sim.py"]) & process_and_io == set()
    assert sorted(name for name, tree in trees.items() if _forks(tree)) == ["child.py"]
