"""Every public name a localtemp module exports resolves and has a consumer."""
from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil

import pytest

import localtemp

MODULES = ["localtemp"] + [
    f"localtemp.{info.name}" for info in pkgutil.iter_modules(localtemp.__path__)
]


def test_modules_found():
    assert {"localtemp.ising", "localtemp.oracle", "localtemp.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [symbol for symbol in module.__all__ if not hasattr(module, symbol)]
    assert missing == []


_ROOT = pathlib.Path(__file__).resolve().parents[1]
_CONSUMERS = [
    *sorted((_ROOT / "src" / "localtemp").glob("*.py")),
    *sorted((_ROOT / "demos").glob("*.py")),
    *sorted((_ROOT / "benchmarks").glob("*.py")),
    _ROOT / "tests" / "test_acceptance.py",
]


def _names_read(path):
    """Every name a file reads, bare or as an attribute. Definitions, imports
    and the strings of __all__ are not reads, so a re-export is not one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_consumer(name):
    # a public name that only tests reach gets a real consumer or is deleted
    used = set().union(*(_names_read(path) for path in _CONSUMERS))
    module = importlib.import_module(name)
    unused = [
        symbol for symbol in module.__all__
        if not symbol.startswith("__") and symbol not in used
    ]
    assert unused == []
