"""Every name in a sandwalk module's ``__all__`` resolves, so a deletion that
leaves a stale export fails here."""

import importlib
import pkgutil

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
