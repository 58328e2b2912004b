"""The package metadata declares everything the test suite imports."""
from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared_requirements() -> set[str]:
    """Names in pyproject.toml's dependencies and its test extra."""
    text = (ROOT / "pyproject.toml").read_text()
    names = set()
    for key in ("dependencies", "test"):
        block = re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S)
        assert block, f"pyproject.toml has no {key} list"
        names.update(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))
    return {name.lower().replace("-", "_") for name in names}


def _third_party_imports() -> dict[str, str]:
    """Top-level name of every absolute import under tests/ that is neither
    the standard library, localtemp nor a test module -> a file importing it."""
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"localtemp"}
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.name)
    return found


def test_every_test_import_is_declared():
    # each import name here is also its distribution's name
    imports = _third_party_imports()
    assert {"numpy", "pytest", "mpmath"} <= imports.keys()
    missing = {name: where for name, where in imports.items()
               if name.lower() not in _declared_requirements()}
    assert not missing, f"imported under tests/ but not declared in pyproject.toml: {missing}"
