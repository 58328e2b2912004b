"""Command line behaviour: exit codes, formats, and golden outputs."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from localtemp import cli
from localtemp.cli import _json_pieces, main


def run_cli(*args):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_console_entry_subprocess():
    # one real process round trip through the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "localtemp.cli", "nmin", "harmonic", "--t-over-theta", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1951" in proc.stdout
    assert "Linearity" in proc.stdout


def test_main_after_usage_errors_matches_fresh_process():
    # main() builds the parser once per process; a parse that fails part way
    # through a subcommand must leave nothing behind for the next call
    for bad in (
        ["oracle", "spectrum", "--boundary", "periodic", "--sites", "four"],
        ["oracle", "rho", "--sites", "4", "--groups", "2", "--bogus"],
        ["sweep", "ising", "--tmin", "1"],
        ["figure", "fig9"],
    ):
        code, out, err = run_cli(*bad)
        assert (code, out) == (1, "")
        assert err.startswith("localtemp: error:")
    argv = ["oracle", "spectrum", "--sites", "4", "--K", "0.5", "--format", "json"]
    fresh = subprocess.run(
        [sys.executable, "-m", "localtemp.cli", *argv], capture_output=True, text=True
    )
    assert run_cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert '"open"' in fresh.stdout


def test_nmin_harmonic_json():
    code, out, _ = run_cli(
        "nmin", "harmonic", "--t-over-theta", "0.1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_min"] == 1541
    assert payload["n_cond_const"] == 1541
    assert payload["n_linearity"] == 329
    assert payload["binding"] == "ConditionConst"


def test_nmin_ising_trivial_group():
    code, out, _ = run_cli(
        "nmin", "ising", "--K", "0.1", "--L", "0.1", "--t-over-b", "100",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["n_min"] == 1


def test_unsupported_coupling_exit_code():
    code, _, err = run_cli("nmin", "ising", "--K", "2", "--L", "3", "--t-over-b", "1")
    assert code == 3
    assert "unsupported coupling" in err


def test_usage_errors_exit_one():
    code, _, err = run_cli("nmin", "harmonic")
    assert code == 1 and "required" in err
    code, _, err = run_cli("nmin", "harmonic", "--t-over-theta", "-2")
    assert code == 1
    code, _, _ = run_cli("nmin", "ising", "--t-over-b", "1", "--K", "1", "--jx", "1")
    assert code == 1


def test_numerical_failure_exit_two():
    # bound overflows the integer range far below any representable t
    code, _, err = run_cli("nmin", "harmonic", "--t-over-theta", "1e-120")
    assert code == 2
    assert "numerical failure" in err


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = (
        "sweep", "harmonic", "--tmin", "0.1", "--tmax", "10", "--points", "7", "--log",
    )
    assert run_cli(*args, "--out", str(a))[0] == 0
    assert run_cli(*args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[2].split(",")
    assert header == ["t_ratio", "n_cond_const", "n_linearity", "n_min", "binding"]
    assert len(lines) == 3 + 7


def test_sweep_with_material_length(tmp_path):
    out = tmp_path / "iron.csv"
    code, _, _ = run_cli(
        "sweep", "harmonic", "--tmin", "10", "--tmax", "10", "--points", "2",
        "--name", "iron", "--out", str(out),
    )
    assert code == 1  # tmin must be strictly below tmax
    code, _, _ = run_cli(
        "sweep", "harmonic", "--tmin", "9", "--tmax", "10", "--points", "2",
        "--name", "iron", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2].endswith("l_min_m")
    assert lines[-1].split(",")[-1] == "4.8775e-07"


def test_sweep_ising_csv():
    code, out, _ = run_cli(
        "sweep", "ising", "--tmin", "0.5", "--tmax", "50", "--points", "3", "--log",
        "--K", "10", "--L", "10",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0].split(",")[0] == "t_ratio"
    n_mins = [int(r.split(",")[3]) for r in rows[1:]]
    assert n_mins[0] > n_mins[-1] == 1


def test_figure_shapes():
    for fig, n_curves in (("fig3", 2), ("fig4", 2), ("fig5", 4), ("fig6", 4)):
        code, out, _ = run_cli("figure", fig)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 201  # header plus 200 samples
        assert all(len(r.split(",")) == 1 + n_curves for r in rows)


def test_figure_high_t_plateau():
    code, out, _ = run_cli("figure", "fig3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 200
    tail = payload[-1]
    assert tail["t_over_theta"] == 100.0
    assert 1990.0 < tail["linearity"] < 2000.0


def test_materials_listing_and_pipeline():
    code, out, _ = run_cli("materials")
    assert code == 0
    for name in ("iron", "carbon", "silicon"):
        assert name in out

    code, out, _ = run_cli(
        "materials", "--name", "silicon", "--temp-kelvin", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_min"] == 407823297
    assert payload["l_min_m"] == pytest.approx(0.09787759128, rel=1e-9)

    code, _, err = run_cli("materials", "--name", "unobtainium", "--temp-kelvin", "1")
    assert code == 1 and "unknown material" in err
    code, _, _ = run_cli("materials", "--name", "iron")
    assert code == 1  # --temp-kelvin required with --name


@pytest.mark.parametrize(
    "name,kelvin",
    [("iron", "940"), ("carbon", "111.5"), ("silicon", "12.9")],  # t = 2, 0.05, 0.02
)
def test_every_command_prints_one_l_min(name, kelvin):
    # nmin, materials and sweep at the same t all print n_min * a0 in metres,
    # rounded the same way
    code, out, _ = run_cli(
        "materials", "--name", name, "--temp-kelvin", kelvin, "--format", "json"
    )
    assert code == 0
    material = json.loads(out)
    t = repr(material["t_over_theta"])
    code, out, _ = run_cli(
        "nmin", "harmonic", "--t-over-theta", t, "--name", name, "--format", "json"
    )
    assert code == 0
    single = json.loads(out)
    code, out, _ = run_cli(
        "sweep", "harmonic", "--tmin", t, "--tmax", repr(2 * float(t)), "--points", "2",
        "--name", name, "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert single["n_min"] == row["n_min"] == material["n_min"]
    a0_m = material["a0_angstrom"] * 1e-10
    assert single["l_min_m"] == row["l_min_m"] == material["l_min_m"]
    assert material["l_min_m"] == material["n_min"] * a0_m


def test_materials_file_round_trip(tmp_path):
    exported = tmp_path / "db.json"
    assert run_cli("materials", "--format", "json", "--out", str(exported))[0] == 0
    code, out, _ = run_cli(
        "materials", "--file", str(exported), "--name", "carbon",
        "--temp-kelvin", "270", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_min"] == 875
    assert payload["l_min_m"] == pytest.approx(1.3125e-07, rel=1e-9)


def test_materials_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("materials", "--file", str(bad))[0] == 1
    bad.write_text('{"name": "x"}')
    assert run_cli("materials", "--file", str(bad))[0] == 1
    bad.write_text('[{"name": "x", "theta_kelvin": -4, "a0_angstrom": 1}]')
    assert run_cli("materials", "--file", str(bad))[0] == 1


def test_materials_file_rejects_a_name_that_is_not_a_string(tmp_path):
    db = tmp_path / "db.json"
    db.write_text('[{"name": ["x", 1], "theta_kelvin": 100, "a0_angstrom": 1}]')
    code, out, err = run_cli("materials", "--file", str(db), "--format", "json")
    assert (code, out) == (1, "")
    assert err == "localtemp: error: material name must be a string, got ['x', 1]\n"


@pytest.mark.parametrize("field", ["theta_kelvin", "a0_angstrom"])
@pytest.mark.parametrize(
    "text, shown",
    [("true", "True"), ("1e400", "inf"), ("1" + "0" * 400, "1" + "0" * 400), ('"300"', "'300'")],
)
def test_materials_file_rejects_a_value_that_is_not_a_finite_positive_number(
    tmp_path, field, text, shown
):
    # json reads 1e400 as inf, and 10^400 as an int no float holds; a bool or
    # an inf used to pass "> 0" and print
    values = {"theta_kelvin": "100", "a0_angstrom": "1", field: text}
    db = tmp_path / "db.json"
    db.write_text('[{"name": "x", ' + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}]")
    message = f"localtemp: error: material 'x': {field} must be a finite positive number, got {shown}\n"
    for query in ((), ("--name", "x", "--temp-kelvin", "3")):
        assert run_cli("materials", "--file", str(db), *query) == (1, "", message)


# the text a json record must keep: quotes, backslashes, a newline, non-ASCII
# text, and the seam "},\n    {" that _json_pieces looks for between records
_AWKWARD = 'a "b" \\c\nd \u00e9\u4e2d\U0001f600 },\n    {"e": 1}'

_JSON_PAYLOADS = {
    "record": {"t_over_b": 0.5, "n_min": 7, "binding": "Linearity", "intensive": True},
    "records": [{"t_ratio": 1e-3, "n_min": 2, "l_min_m": None},
                {"t_ratio": 2.5, "n_min": 10**20, "l_min_m": 4.885e-07}],
    "empty list": [],
    "one record in a list": [{"name": _AWKWARD}],
    "awkward strings": [{_AWKWARD: _AWKWARD, "k": "},\n    {"}, {"k": "\n  }\n]"}],
    "non-finite and big": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                           "true": True, "false": False, "none": None,
                           "big": 2**53 + 1, "huge": -(10**30), "tiny": 5e-324},
}


@pytest.mark.parametrize("payload", list(_JSON_PAYLOADS.values()), ids=list(_JSON_PAYLOADS))
def test_json_text_is_indent_2_byte_for_byte(payload, monkeypatch):
    expected = json.dumps(payload, indent=2) + "\n"
    assert "".join(_json_pieces(payload)) == expected
    monkeypatch.setattr(cli, "_JSON_BATCH", 1)  # two records are two pieces
    assert "".join(_json_pieces(payload)) == expected


def test_json_emit_holds_no_whole_copy_of_its_text(tmp_path):
    # the text goes out in pieces of _JSON_BATCH records, so the traced peak
    # of _emit stays a fraction of the output: no whole copy of it is held
    import tracemalloc
    from types import SimpleNamespace

    rows = [{"t_ratio": 1e-3 * (1 + i / 7), "n_cond_const": 3 + i, "n_linearity": 1,
             "n_min": 3 + i, "binding": "ConstCondition", "l_min_m": None}
            for i in range(20_000)]
    out = tmp_path / "rows.json"
    tracemalloc.start()
    try:
        cli._emit(SimpleNamespace(format="json", out=str(out)), rows, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(rows, indent=2) + "\n"
    assert peak < 0.25 * len(text)


def test_materials_file_with_an_awkward_name_prints_indent_2_json(tmp_path):
    db = tmp_path / "db.json"
    records = [{"name": _AWKWARD, "theta_kelvin": 100.0, "a0_angstrom": 1.5},
               {"name": "iron", "theta_kelvin": 470.0, "a0_angstrom": 2.5}]
    db.write_text(json.dumps(records), encoding="utf-8")
    code, out, err = run_cli("materials", "--file", str(db), "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(records, indent=2) + "\n"
    code, out, err = run_cli("materials", "--file", str(db), "--name", _AWKWARD,
                             "--temp-kelvin", "50", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["name"] == _AWKWARD
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_materials_file_is_read_on_every_query(tmp_path):
    # the packaged records are parsed once per process; a --file is not
    assert run_cli("materials")[0] == 0
    db = tmp_path / "db.json"
    db.write_text('[{"name": "x", "theta_kelvin": 100, "a0_angstrom": 1}]')
    code, out, _ = run_cli("materials", "--file", str(db), "--format", "json")
    assert code == 0 and json.loads(out)[0]["name"] == "x"
    db.write_text("{not json")
    assert run_cli("materials", "--file", str(db))[0] == 1
    assert run_cli("materials", "--name", "iron", "--temp-kelvin", "300")[0] == 0


def test_oracle_spectrum_driver():
    code, out, _ = run_cli(
        "oracle", "spectrum", "--sites", "4", "--K", "0.5", "--L", "0",
        "--format", "json",
    )
    assert code == 0
    payload = {row["quantity"]: row["value"] for row in json.loads(out)}
    assert payload["max_spectrum_deviation"] < 1e-10


def test_oracle_moments_driver():
    code, out, _ = run_cli(
        "oracle", "moments", "--sites", "6", "--groups", "3",
        "--K", "0.4", "--L", "0.2", "--format", "json",
    )
    assert code == 0
    payload = {row["quantity"]: row["value"] for row in json.loads(out)}
    assert payload["max_mean_identity_dev"] < 1e-10
    assert payload["max_var_identity_dev"] < 1e-10
    code, _, _ = run_cli("oracle", "moments", "--sites", "6", "--groups", "4")
    assert code == 1  # groups must divide sites


def test_oracle_rho_driver():
    code, out, _ = run_cli(
        "oracle", "rho", "--sites", "4", "--groups", "2", "--K", "0.3", "--L", "0",
        "--beta-b", "1", "--format", "json",
    )
    assert code == 0
    payload = {row["quantity"]: row["value"] for row in json.loads(out)}
    assert payload["max_abs_log_deviation"] == pytest.approx(0.005127, rel=1e-3)


def test_oracle_gaussian_output_does_not_depend_on_beta():
    # w_a is the energy distribution of a product state: no temperature
    base = ("oracle", "gaussian", "--sites", "9", "--groups", "3", "--K", "0.3", "--L", "0")
    cool, hot = run_cli(*base, "--beta-b", "0.7"), run_cli(*base, "--beta-b", "5")
    assert cool[0] == 0 and cool == hot
    code, out, err = run_cli(*base, "--beta-b", "0")
    assert (code, out) == (1, "")
    assert "--beta-b must be positive and finite" in err


@pytest.mark.parametrize("command", ["rho", "gaussian"])
@pytest.mark.parametrize("beta_b", ["nan", "inf", "0"])
def test_oracle_rejects_non_finite_or_nonpositive_beta(command, beta_b):
    code, out, err = run_cli(
        "oracle", command, "--sites", "4", "--groups", "2", "--K", "0.3", "--L", "0",
        "--beta-b", beta_b,
    )
    assert code == 1
    assert out == ""
    assert "--beta-b" in err


@pytest.mark.parametrize("command", ["moments", "gaussian", "rho"])
def test_oracle_groups_must_divide_sites(command):
    code, out, err = run_cli("oracle", command, "--sites", "8", "--groups", "3")
    assert code == 1
    assert out == ""
    assert "cannot split 8 sites into 3 equal groups" in err


def test_oracle_rho_needs_two_groups():
    code, out, err = run_cli("oracle", "rho", "--sites", "4", "--groups", "1")
    assert code == 1
    assert out == ""
    assert "two groups" in err


def test_oracle_row_layout_per_format():
    # keys, row order and plain float formatting of every oracle subcommand
    cases = [
        (("spectrum", "--sites", "4"), ["sites", "boundary", "max_spectrum_deviation"]),
        (
            ("spectrum", "--sites", "4", "--boundary", "periodic"),
            ["sites", "boundary", "ground_per_site_dense", "ground_per_site_integral",
             "deviation"],
        ),
        (
            ("moments", "--sites", "4", "--groups", "2"),
            ["sites", "groups", "max_abs_eps", "max_mean_identity_dev",
             "max_var_identity_dev", "max_delta_sq_formula_dev"],
        ),
        (
            ("moments", "--sites", "4", "--groups", "2", "--L", "0.2"),
            ["sites", "groups", "max_abs_eps", "max_mean_identity_dev",
             "max_var_identity_dev"],
        ),
        (
            ("rho", "--sites", "4", "--groups", "2"),
            ["sites", "groups", "max_abs_log_deviation", "per_junction"],
        ),
    ]
    for argv, keys in cases:
        argv = ("oracle",) + argv + ("--K", "0.3")
        code, out, _ = run_cli(*argv, "--format", "json")
        assert code == 0
        assert [row["quantity"] for row in json.loads(out)] == keys
        code, out, _ = run_cli(*argv)
        assert code == 0
        lines = [line.split("  ") for line in out.splitlines()]
        assert [line[0] for line in lines] == keys
        for line in lines[2:]:
            float(line[1])  # plain repr, not a numpy scalar repr
        code, out, _ = run_cli(*argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "quantity,value"
        assert [line.split(",")[0] for line in out.splitlines()[2:]] == keys

    code, out, _ = run_cli(
        "oracle", "gaussian", "--sites", "6", "--groups", "3", "--K", "0.3",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    columns = ["n_groups", "sites", "max_abs_skewness"]
    assert [list(row) for row in rows] == [columns, columns]
    assert [(row["n_groups"], row["sites"]) for row in rows] == [(2, 4), (3, 6)]


def test_harmonic_e_bar_underflow_exit_two():
    # t^2 underflows to 0 here, so e_bar is 0 and the bound has no value
    code, out, err = run_cli("nmin", "harmonic", "--t-over-theta", "1e-200")
    assert code == 2
    assert out == ""
    assert "numerical failure" in err


def test_ladder_node_slope_overflow_exit_two():
    # K = 1e300 overflows the node slope; the ladder used to loop forever
    # while its cell list grew. A subprocess with capped memory and time
    # keeps a regression from taking the test run down with it.
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    proc = subprocess.run(
        [sys.executable, "-m", "localtemp.cli", "nmin", "ising", "--t-over-b", "1",
         "--B", "1e-300", "--jx", "1", "--jy", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 2
    assert "numerical failure" in proc.stderr


def test_oracle_gaussian_needs_two_groups():
    code, out, err = run_cli("oracle", "gaussian", "--sites", "4", "--groups", "1")
    assert code == 1
    assert out == ""
    assert "two groups" in err


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, localtemp.cli; localtemp.cli.build_parser(); "
         "print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("nmin", "ising", "--t-over-b", "1", "--K", "nan", "--L", "nan"), "must be finite"),
        (("nmin", "ising", "--t-over-b", "1", "--K", "inf"), "must be finite"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "inf", "--K", "0.5"), "must be finite"),
        (("nmin", "ising", "--t-over-b", "1", "--jx", "nan", "--jy", "1"), "must be finite"),
        (("sweep", "ising", "--tmin", "1", "--tmax", "2", "--points", "2", "--L=-inf"),
         "must be finite"),
        (("oracle", "spectrum", "--sites", "4", "--K", "nan"), "must be finite"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "0", "--jx", "1"), "must be positive"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "nan", "--K", "0.5"), "must be finite"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "0", "--K", "0.5"), "must be positive"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "-1", "--K", "0.5"), "must be positive"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "-1", "--jx", "1"), "must be positive"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "inf", "--jx", "1"), "must be finite"),
        (("nmin", "ising", "--t-over-b", "1", "--B", "nan", "--jx", "1"), "must be positive"),
        (("nmin", "ising", "--t-over-b", "1", "--jx", "inf", "--jy", "1"),
         "jx must be finite, got inf"),
    ],
)
def test_ising_rejects_invalid_field_and_couplings(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_oracle_rho_diagonal_underflow_exit_two():
    # at beta B = 200 the exact <a|rho|a> of excited product states is below
    # the smallest double, so its logarithm cannot be compared
    code, out, err = run_cli(
        "oracle", "rho", "--sites", "4", "--groups", "2", "--K", "0.3",
        "--beta-b", "200",
    )
    assert code == 2
    assert out == ""
    assert "numerical failure" in err
    assert "<a|rho|a> underflows to 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("materials", "--name", "nope", "--temp-kelvin", "3"),
        ("materials", "--name", "iron"),
        ("materials", "--name", "iron", "--temp-kelvin", "-1"),
    ],
)
def test_failed_command_leaves_out_file_alone(tmp_path, argv):
    out = tmp_path / "kept.txt"
    out.write_text("earlier result\n")
    code, stdout, _ = run_cli(*argv, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert out.read_text() == "earlier result\n"


def test_negative_values_in_scientific_notation_are_values():
    exponent = run_cli("nmin", "ising", "--t-over-b", "1", "--K", "-1e-1", "--L", "0")
    plain = run_cli("nmin", "ising", "--t-over-b", "1", "--K", "-0.1", "--L", "0")
    assert exponent == plain
    assert exponent[0] == 0

    code, out, err = run_cli(
        "sweep", "harmonic", "--tmin", "-1e-3", "--tmax", "1", "--points", "2", "--log"
    )
    assert (code, out) == (1, "")
    assert "--tmin must be positive" in err

    code, out, err = run_cli("nmin", "ising", "--t-over-b", "1", "--K", "0.5", "--L", "-inf")
    assert (code, out) == (1, "")
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        # t (1 - |K|) underflows in the isotropic weak-coupling bound
        ("--t-over-b=5e-324", "--K=0.5", "--L=0"),
        # the window edge is 0 at K = L = 0, and e_bar / alpha underflows
        ("--t-over-b=1e-3", "--K=0", "--L=0", "--alpha=1e300"),
    ],
)
def test_ising_bound_underflow_exit_two(argv):
    code, out, err = run_cli("nmin", "ising", *argv)
    assert code == 2
    assert out == ""
    assert "numerical failure" in err
    assert "underflows to 0" in err


def test_gapless_chain_far_above_the_band():
    # beta times the node slope leaves the float range at t = 1e308: each
    # ladder is one cell, and the group needs one site, as a gapped chain does
    code, out, err = run_cli(
        "nmin", "ising", "--t-over-b", "1e308", "--K", "1.01", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["n_min"] == 1

    code, out, err = run_cli(
        "sweep", "ising", "--tmin", "1", "--tmax", "1e308", "--points", "3", "--log",
        "--K", "1.01", "--format", "json",
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert rows[-1]["t_ratio"] == 1e308
    assert rows[-1]["n_min"] == 1


@pytest.mark.parametrize("argv", [
    ("nmin", "ising", "--t-over-b", "1e-320", "--K", "2"),
    ("nmin", "ising", "--t-over-b", "1e-320", "--K", "1"),
    ("sweep", "ising", "--tmin", "1e-320", "--tmax", "1e-300", "--points", "3", "--log",
     "--K", "2"),
])
def test_gapless_chain_where_one_over_t_overflows(argv):
    # 1/t is inf: e_bar is its T -> 0 limit 0, and the failure is the bound's,
    # as on a gapped chain, not an empty ladder's
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err == ("localtemp: numerical failure: cond_const_bound divides by a quantity"
                   " that underflows to 0 at t_over_b=1e-320; the bound is not finite\n")


@pytest.mark.parametrize(
    "argv,field",
    [
        (("gaussian", "--sites", "2", "--K", "1e200", "--L", "1e200"),
         "SkewnessRow.max_abs_skewness is nan"),
        (("moments", "--sites", "2", "--K", "1e200", "--L", "1e200"),
         "MomentsReport.max_var_identity_dev is nan"),
        (("rho", "--sites", "2", "--K", "1e200", "--L", "1e200"),
         "RhoDiagReport.max_abs_log_deviation is nan"),
        (("rho", "--sites", "4", "--K", "1e100", "--L", "1e100"),
         "RhoDiagReport.max_abs_log_deviation is inf"),
        (("rho", "--sites", "4", "--K", "1e200", "--L", "1e200"),
         "eigendecomposition residual is inf"),
    ],
)
def test_oracle_non_finite_report_exit_two(argv, field):
    # a numpy warning, turned into an error here, would escape main(): the
    # oracle must run under np.errstate and leave the report to its checks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("oracle", *argv, "--groups", "2")
    assert code == 2
    assert out == ""
    assert "numerical failure" in err
    assert field in err


def test_oracle_non_converging_eigensolver_exit_two():
    # H overflows to inf and nan here, so eigh raises LinAlgError, which is
    # a ValueError but a numerical failure
    code, out, err = run_cli("oracle", "rho", "--sites", "6", "--groups", "3",
                             "--K", "1.7e308", "--L", "0")
    assert code == 2
    assert out == ""
    assert err == "localtemp: numerical failure: Eigenvalues did not converge\n"


_RHO_6_3 = ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
            "--format", "json")


def _rho_deviation(*extra):
    code, out, err = run_cli(*_RHO_6_3, *extra)
    assert (code, err) == (0, "")
    return {row["quantity"]: row["value"] for row in json.loads(out)}["max_abs_log_deviation"]


@pytest.mark.parametrize("b_field", ["1e-150", "1e-300", "5e-324", "1e200"])
def test_oracle_rho_does_not_depend_on_the_field(b_field):
    # rho depends on beta_B H(1, K, L) alone; a tiny B once put every width
    # below an absolute floor (0.0 over zero states), a huge one overflowed H
    unit = _rho_deviation()
    assert unit == pytest.approx(0.85107633456976, rel=1e-12)
    assert _rho_deviation("--B", b_field) == unit


@pytest.mark.parametrize(
    "model", [("--jx", "0", "--jy", "0"), ("--K", "1e-300"), ("--K", "0", "--L", "0")]
)
def test_oracle_rho_without_any_width_exit_one(model):
    # no product state has a width to compare the Gaussian weight with
    code, out, err = run_cli("oracle", "rho", "--sites", "6", "--groups", "3", *model)
    assert (code, out) == (1, "")
    assert "no product state has a nonzero interaction width" in err


def test_oracle_moments_degenerate_group_exit_one():
    # L = 0 groups of 4 sites have degenerate formula energies; the benchmark
    # counts this message as a known failure
    code, out, err = run_cli(
        "oracle", "moments", "--sites", "8", "--groups", "2", "--K", "0.3"
    )
    assert code == 1
    assert out == ""
    assert "degenerate group spectrum" in err


@pytest.mark.parametrize("flag", ["--tmin", "--tmax"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_sweep_rejects_non_finite_bound(flag, value):
    bounds = {"--tmin": "1", "--tmax": "2", flag: value}
    argv = [f"{name}={bound}" for name, bound in bounds.items()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("sweep", "harmonic", *argv, "--points", "2")
    assert code == 1
    assert out == ""
    assert f"{flag} must be finite" in err


@pytest.mark.parametrize("t", ["1e155", "1e300", "8.9e304"])
def test_nmin_harmonic_plateau_where_t_squared_overflows(t):
    # t**2 overflows above t ~ 1.3e154, yet e_bar = t * (t * I) ~ t stays
    # finite, and so does (2 alpha / delta) * e_bar up to t ~ 9e304; the
    # linearity bound 2000 (1 - 1/(4t)) rounds to 2000.0, hence 2001 (the
    # exact integer is 2000)
    code, out, err = run_cli("nmin", "harmonic", "--t-over-theta", t, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["n_cond_const"], payload["n_min"]) == (1, 2001)


def test_harmonic_sweep_across_the_t_squared_overflow():
    code, out, err = run_cli("sweep", "harmonic", "--tmin", "1e150", "--tmax", "1e200",
                             "--points", "5", "--log", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert len(rows) == 5
    # the linearity bound 2000 (1 - 1/(4t)) is within rounding of 2000 here
    assert all(row["n_min"] in (2000, 2001) for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ("ising", "--tmin", "0", "--tmax", "1", "--points", "3", "--K", "2"),
        ("harmonic", "--tmin", "-1", "--tmax", "1", "--points", "3"),
        ("harmonic", "--tmin", "0", "--tmax", "1", "--points", "3", "--log"),
    ],
)
def test_sweep_grid_points_are_positive_temperatures(argv):
    code, out, err = run_cli("sweep", *argv)
    assert (code, out) == (1, "")
    assert err == "localtemp: error: --tmin must be positive\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        # (2 alpha / delta) * e_bar overflows at the grid's middle point, 5e307
        (("harmonic", "--tmin", "1", "--tmax", "1e308", "--points", "3"),
         "bound is not finite; no integer exceeds it"),
        (("harmonic", "--tmin", "1e-200", "--tmax", "1e-150", "--points", "5", "--log"),
         "e_bar underflows to 0 at t_over_theta=1e-200;"
         " the constant-condition bound is not finite"),
        (("ising", "--tmin", "1e-300", "--tmax", "1e-290", "--points", "3", "--log",
          "--K", "2"),
         "bound is not finite; no integer exceeds it"),
    ],
)
def test_sweep_failure_names_first_failing_point(argv, message):
    # the grid's e_bar comes from one quadrature pass, and the criteria then
    # run point by point, so the first failing point in grid order names the
    # error; no numpy warning (turned into an error here) reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("sweep", *argv)
    assert (code, out) == (2, "")
    assert err == f"localtemp: numerical failure: {message}\n"


@pytest.mark.parametrize(
    "argv,square",
    [
        (("nmin", "ising", "--t-over-b", "1", "--K", "0", "--L", "1e200"),
         "L^2 at L=1e+200"),
        (("nmin", "ising", "--t-over-b", "1", "--K", "1e155", "--L", "1e155"),
         "K^2 at K=1e+155"),
        (("oracle", "moments", "--sites", "4", "--groups", "2", "--K", "1e160"),
         "K^2 at K=1e+160"),
        # omega_k itself overflows on the trapezoid grid: the grid, the
        # ground energy and the window edge are formed without a warning
        (("nmin", "ising", "--t-over-b", "1", "--K", "0", "--L", "1e308"),
         "L^2 at L=1e+308"),
        (("sweep", "ising", "--tmin", "1", "--tmax", "2", "--points", "3", "--K", "0",
          "--L", "-1.7e308"), "L^2 at L=-1.7e+308"),
        (("nmin", "ising", "--t-over-b", "1", "--K", "5e307", "--L", "5e307"),
         "K^2 at K=5e+307"),
    ],
)
def test_junction_width_overflow_names_coupling(argv, square):
    # the window edge stays finite, or is inf where omega_k overflows: no
    # numpy warning (an error here) comes before the named failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert f"numerical failure: junction width overflows: {square}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("nmin", "ising", "--t-over-b", "1", "--jx", "1e308", "--jy", "1e308"),
         "K = (jx + jy)/2B overflows at jx=1e+308, jy=1e+308, B=1.0"),
        (("sweep", "ising", "--tmin", "1", "--tmax", "2", "--points", "2",
          "--jx", "1e308", "--jy", "1e308"),
         "K = (jx + jy)/2B overflows at jx=1e+308, jy=1e+308, B=1.0"),
        (("oracle", "spectrum", "--sites", "3", "--boundary", "periodic", "--jx", "1",
          "--jy", "1", "--B", "1e-320"),
         "K = (jx + jy)/2B overflows at jx=1.0, jy=1.0, B=1e-320"),
        # K and L are finite, their sum is not
        (("nmin", "ising", "--t-over-b", "1", "--jx", "1.5e308", "--jy", "0", "--B", "0.5"),
         "jx/B = K + L overflows at jx=1.5e+308, jy=0.0, B=0.5"),
    ],
)
def test_finite_couplings_whose_ratio_to_b_overflows_exit_two(argv, message):
    # the derived coupling overflows, not a value the user typed (a typed inf
    # stays invalid input: test_ising_rejects_invalid_field_and_couplings)
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", f"localtemp: numerical failure: {message}\n")


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


_FAULTS = """
import os, resource, sys
from localtemp.cli import main
out, sys.stdout = sys.stdout, open(os.devnull, "w")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(sys.argv[1:])
out.write(f"{code} {resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before}")
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _glibc()),
                    reason="glibc's allocator on Linux")
@pytest.mark.parametrize("malloc_env", [{}, {"MALLOC_MMAP_THRESHOLD_": "131072"}])
def test_main_keeps_freed_arrays_in_the_process(malloc_env):
    # glibc's default thresholds hand most of a sweep's freed arrays back to
    # the kernel, and each new array faults its pages in again: 47,800 minor
    # faults for this sweep on a 2-vCPU Xeon VM, 3,100 with main()'s pinned
    # thresholds. A MALLOC_*_ variable overrides the policy: with mmap from
    # 128 KiB every array faults in, 173,000 faults.
    env = {k: v for k, v in os.environ.items()
           if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    env.update(malloc_env)
    argv = ["sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3", "--points", "5000",
            "--log", "--K", "2"]
    proc = subprocess.run([sys.executable, "-c", _FAULTS, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, faults = map(int, proc.stdout.split())
    assert (code, proc.stderr) == (0, "")
    if malloc_env:
        assert faults > 60_000
    else:
        assert faults < 12_000


def test_window_edge_of_a_large_coupling_stays_finite():
    # at K = 0 the window edge tends to 2 |L| / pi; forming (L sin k)^2 for it
    # overflowed from |L| ~ 6.7e153, below the junction width's own overflow
    # at 1.34e154, and the constant condition divided by an edge of inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("nmin", "ising", "--t-over-b", "1e10", "--K", "0",
                                 "--L", "1e154", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["n_cond_const"] == pytest.approx(1e144 * math.pi / 2, rel=1e-6)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("nmin", "harmonic", "--t-over-theta", "inf"),
                     "t_over_theta must be finite, got inf", id="argv0"),
        pytest.param(("materials", "--name", "iron", "--temp-kelvin", "inf"),
                     "--temp-kelvin must be positive and finite", id="argv1"),
    ],
)
def test_harmonic_infinite_temperature_is_named(argv, message):
    # t^2 is inf without raising, and inf * 0 used to give a nan bound; the
    # message names the flag the user gave
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("kelvin", ["nan", "-inf", "0", "-1"])
def test_materials_rejects_bad_temperature_by_flag_name(kelvin):
    # nan used to fail as "t_over_theta must be positive", a name never typed
    code, out, err = run_cli("materials", "--name", "iron", "--temp-kelvin", kelvin)
    assert (code, out) == (1, "")
    assert err == "localtemp: error: --temp-kelvin must be positive and finite\n"


@pytest.mark.parametrize("points", ["100001", "1000000000000"])
def test_sweep_points_are_capped_before_any_grid(monkeypatch, points):
    # 1e12 points used to end in a numpy memory-error traceback
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr("localtemp.cli.np.geomspace", no_grid)
    monkeypatch.setattr("localtemp.cli.np.linspace", no_grid)
    for extra in ((), ("--log",)):
        code, out, err = run_cli(
            "sweep", "harmonic", "--tmin", "0.1", "--tmax", "10", "--points", points, *extra
        )
        assert (code, out) == (1, "")
        assert err == "localtemp: error: --points must be at most 100000\n"


@pytest.mark.parametrize("kl", [("1", "1"), ("0", "0.5")])
def test_ising_infinite_temperature_is_named(kl):
    # the message names t_over_b, whether or not the constant condition
    # reads e_bar; it used to name beta_b, an argument the user never gave
    code, out, err = run_cli("nmin", "ising", "--t-over-b", "inf", "--K", kl[0], "--L", kl[1])
    assert (code, out) == (1, "")
    assert "t_over_b must be finite, got inf" in err


_NOTE = (
    "note: commonly quoted length estimates for some materials (hot iron, carbon"
    " near room temperature) run about two orders of magnitude above these"
    " formula-derived values; see the README for discussion.\n"
)


_ROUNDOFF_ROWS = {"max_abs_eps", "max_mean_identity_dev", "max_var_identity_dev",
                  "max_delta_sq_formula_dev", "deviation"}

# the gaussian row "2  4": the skewness of 2 groups of 2 sites is 2 sqrt 2
_EXACT_VALUES = {"2  4": 2.0 * math.sqrt(2.0)}


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


@pytest.mark.parametrize(
    "argv,text",
    [
        (
            ("nmin", "harmonic", "--t-over-theta", "0.1"),
            "harmonic chain at t_over_theta = 0.1\n"
            "  n_cond_const = 1541\n"
            "  n_linearity  = 329\n"
            "  n_min        = 1541  (binding: ConditionConst)\n"
            "  c1_estimate  = 3.244646e-03  (intensive: yes)\n",
        ),
        (
            ("nmin", "harmonic", "--t-over-theta", "0.1", "--name", "iron"),
            "harmonic chain at t_over_theta = 0.1\n"
            "  n_cond_const = 1541\n"
            "  n_linearity  = 329\n"
            "  n_min        = 1541  (binding: ConditionConst)\n"
            "  c1_estimate  = 3.244646e-03  (intensive: yes)\n"
            "  l_min        = 3.8525000000000004e-07 m\n",
        ),
        (
            ("nmin", "ising", "--t-over-b", "1", "--K", "0", "--L", "0.5"),
            "ising chain at t_over_b = 1.0\n"
            "  n_cond_const = 5\n"
            "  n_linearity  = 7\n"
            "  n_min        = 7  (binding: Linearity)\n"
            "  c1_estimate  = 8.928571e-03  (intensive: yes)\n",
        ),
        (
            ("materials",),
            "iron: Theta = 470.0 K, a0 = 2.5 A\n"
            "carbon: Theta = 2230.0 K, a0 = 1.5 A\n"
            "silicon: Theta = 645.0 K, a0 = 2.4 A\n",
        ),
        (
            ("materials", "--name", "silicon", "--temp-kelvin", "1"),
            "silicon: Theta = 645.0 K, a0 = 2.4 A\n"
            "  T = 1.0 K  (T/Theta = 0.0015503875968992248)\n"
            "  n_min = 407823297  (binding: ConditionConst)\n"
            "  l_min = 0.09787759128 m\n" + _NOTE,
        ),
        (
            ("oracle", "spectrum", "--sites", "4", "--boundary", "periodic", "--K", "0.3"),
            "sites  4\nboundary  periodic\nground_per_site_dense  -1.0\n"
            "ground_per_site_integral  -1.0\ndeviation  0.0\n",
        ),
        (
            ("oracle", "moments", "--sites", "2", "--groups", "2", "--K", "0.5"),
            "sites  2\ngroups  2\nmax_abs_eps  0.0\nmax_mean_identity_dev  0.0\n"
            "max_var_identity_dev  5.551115123125783e-17\nmax_delta_sq_formula_dev  0.0\n",
        ),
        (
            ("oracle", "gaussian", "--sites", "4", "--groups", "2", "--K", "0.3"),
            "2  4  2.828427124746189\n",
        ),
        (
            ("oracle", "rho", "--sites", "2", "--groups", "2", "--K", "0.5"),
            "sites  2\ngroups  2\nmax_abs_log_deviation  0.0046494384308646275\n"
            "per_junction  0.0046494384308646275\n",
        ),
    ],
)
def test_human_format_text(argv, text):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    if argv[0] != "oracle":
        assert out == text
        return
    # oracle values come from BLAS, so they match to roundoff, not to the
    # last digit: labels, integers and words exactly, the identity deviations
    # (zero in exact arithmetic) to 1e-12 absolute, other floats to 1e-12
    # relative
    got = [line.rsplit("  ", 1) for line in out.splitlines()]
    want = [line.rsplit("  ", 1) for line in text.splitlines()]
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, value), (_, expected) in zip(got, want):
        if not _is_float(expected):
            assert value == expected, label
        elif label in _ROUNDOFF_ROWS:
            assert abs(float(value) - float(expected)) <= 1e-12, label
        else:
            exact = _EXACT_VALUES.get(label, float(expected))
            assert math.isclose(float(value), exact, rel_tol=1e-12), label


@pytest.mark.parametrize("argv", [("--t-over-b", "1", "--delta", "1e-320"),
                                  ("--t-over-b", "1e-10", "--delta", "1e-300")])
def test_const_width_tiny_delta_is_not_nan(argv):
    # beta / 2 delta overflows; the constant width makes the linearity bound 0
    code, out, err = run_cli("nmin", "ising", "--K", "1", "--L", "1", *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["n_linearity"] == 1


def test_const_width_low_temperature_overflow_is_named():
    # e_bar is skipped at K = L = 1, so the bound itself overflows to inf
    code, out, err = run_cli("nmin", "ising", "--t-over-b", "1e-308", "--K", "1", "--L", "1")
    assert (code, out) == (2, "")
    assert err == "localtemp: numerical failure: bound is not finite; no integer exceeds it\n"


def test_const_width_sweep_computes_no_e_bar(monkeypatch):
    # at K = L = 1 and alpha = 10, e_bar / alpha never reaches the window
    # edge: neither the grid pass nor any point computes it; at K = 0,
    # L = 0.5 it can, and one grid pass serves every point
    from localtemp import ising

    calls = []
    real = ising.mean_energy_per_site

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ising, "mean_energy_per_site", counted)
    argv = ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3", "--points", "50", "--log")
    assert run_cli(*argv, "--K", "1", "--L", "1")[0] == 0
    assert calls == []
    assert run_cli(*argv, "--K", "0", "--L", "0.5")[0] == 0
    assert len(calls) == 1


def test_sweep_integrates_only_the_rows_the_gate_admits(monkeypatch):
    # a gapped chain's e_bar falls as e^{-beta w_min}: the cold rows of the
    # grid cannot reach the window edge, and the one pass skips them
    import numpy as np

    from localtemp import ising
    from localtemp.canonical import AccuracyParams

    passed = []
    real = ising.mean_energy_per_site

    def recorded(beta_b, model):
        passed.append(np.array(beta_b))
        return real(beta_b, model)

    monkeypatch.setattr(ising, "mean_energy_per_site", recorded)
    code, out, _ = run_cli("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3",
                           "--points", "100", "--log", "--K", "0", "--L", "0.5")
    assert code == 0
    beta_b = np.array([1.0 / t for t in np.geomspace(1e-3, 1e3, 100).tolist()])
    binds = ising.e_bar_can_bind(ising.IsingModel(0.0, 0.5),
                                 AccuracyParams(alpha=10.0, delta=0.01), beta_b)
    assert len(passed) == 1 and passed[0].tolist() == beta_b[binds].tolist()
    assert 0 < binds.sum() < binds.size and binds[-1] and not binds[0]


@pytest.mark.parametrize(
    "argv",
    [("nmin", "ising", "--t-over-b", "1", "--K", "1", "--L", "1"),
     ("nmin", "harmonic", "--t-over-theta", "1"),
     ("sweep", "ising", "--tmin", "0.1", "--tmax", "10", "--points", "5", "--K", "2")],
)
def test_infinite_alpha_is_rejected(argv):
    # alpha = inf used to give n_min = 4, a bound that is not finite, or an
    # underflow, depending on the command
    code, out, err = run_cli(*argv, "--alpha", "inf")
    assert (code, out) == (1, "")
    assert err == "localtemp: error: alpha must be finite and exceed 1\n"


@pytest.mark.parametrize("kl", [("1", "0"), ("1", "1"), ("-1", "1"), ("2", "0"), ("-1.6", "0"),
                                ("1.5", "1.5"), ("0", "0.5"), ("0.5", "0")])
def test_gapless_nmin_does_not_depend_on_field(kl):
    # B is the unit of energy, so the whole report at fixed (t, K, L) is the
    # same at every B, gapless or not, one coupling per case. An absolute
    # quadrature tolerance used to move K = 2 at t = 0.01 by 3,647 below
    # B = 1e-2, and a B^2 that underflowed or overflowed used to exit 2
    for t in ("0.01", "0.5"):
        outputs = set()
        for b in ("5e-324", "1e-300", "1e-8", "1e-4", "0.3", "1", "1e8", "1e300"):
            code, out, err = run_cli("nmin", "ising", "--t-over-b", t, "--K", kl[0],
                                     "--L", kl[1], "--B", b, "--format", "json")
            assert (code, err) == (0, "")
            outputs.add(out)
        assert len(outputs) == 1
