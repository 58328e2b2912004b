"""The output gate of tools/compare_outputs.py: which differences between two
trees' CLI output it lets through."""
from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _report(value, key="value", label="rho"):
    return json.dumps([{"quantity": label, key: value}], indent=2) + "\n"


@pytest.mark.parametrize("x", [0.0, 1e-3, 1.0, -2.5e4])
def test_json_close_passes_roundoff_and_fails_beyond_it(x):
    allowed = tool.ORACLE_RTOL * abs(x) + tool.ORACLE_ATOL
    assert tool.json_close(_report(x), _report(x))
    assert tool.json_close(_report(x), _report(x + 0.5 * allowed))
    assert tool.json_close(_report(x), _report(x - 0.5 * allowed))
    assert not tool.json_close(_report(x), _report(x + 2.0 * allowed))
    assert not tool.json_close(_report(x), _report(x - 2.0 * allowed))


def test_json_close_fails_a_reordered_key_a_changed_string_and_non_json():
    old = '{"a": 1.0, "b": 2.0}'
    assert tool.json_close(old, '{"a": 1.0, "b": 2.0}')
    assert not tool.json_close(old, '{"b": 2.0, "a": 1.0}')
    assert not tool.json_close(_report(1.0), _report(1.0, label="moments"))
    assert not tool.json_close(_report(1.0), _report(1.0, key="values"))
    assert not tool.json_close(_report(1.0), _report([1.0]))
    assert not tool.json_close(old, "not json")


def test_json_layout_ok_accepts_indent_2_only():
    command = ("oracle", "rho", "--sites", "4", "--format", "json")
    payload = [{"quantity": "rho", "value": 0.5}]
    assert tool.json_layout_ok(command, json.dumps(payload, indent=2) + "\n")
    assert not tool.json_layout_ok(command, json.dumps(payload, indent=2))
    assert not tool.json_layout_ok(command, json.dumps(payload) + "\n")
    assert not tool.json_layout_ok(command, json.dumps(payload, indent=4) + "\n")
    assert not tool.json_layout_ok(command, "rho 0.5\n")


def test_json_layout_ok_passes_other_formats_and_empty_stdout():
    assert tool.json_layout_ok(("figure", "fig3", "--format", "csv"), "t,n\n1,2\n")
    assert tool.json_layout_ok(("nmin", "harmonic", "--t-over-theta", "1"), "n_min = 3\n")
    assert tool.json_layout_ok(("oracle", "rho", "--format", "json"), "")


def test_new_warnings_ignores_the_parents_warning_lines():
    warning = "numpy: RuntimeWarning: overflow encountered in exp"
    other = "numpy: RuntimeWarning: invalid value encountered in divide"
    assert tool.new_warnings(f"{warning}\n", f"{warning}\n") == []
    assert tool.new_warnings("", "localtemp: error: bad input\n") == []
    assert tool.new_warnings(f"{warning}\n", f"{warning}\n{other}\n") == [other]
    assert tool.new_warnings("", f"{warning}\n") == [warning]


def test_expected_patterns_drops_comments_and_blank_lines(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text(
        "# a comment line\n"
        "\n"
        "   \n"
        "localtemp figure fig4 --format csv\n"
        "localtemp sweep ising * --format *   # why this one changes\n"
    )
    assert tool.expected_patterns(path) == [
        "localtemp figure fig4 --format csv",
        "localtemp sweep ising * --format *",
    ]
    assert tool.expected_patterns(tmp_path / "missing.txt") == []
