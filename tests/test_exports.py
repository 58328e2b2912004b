"""Every public name a localtemp module exports resolves."""
from __future__ import annotations

import importlib
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
