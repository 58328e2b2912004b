"""Correctness checks for every benchmark operation.

An operation fails when its exit code is not the documented one or its
output fails the check for its kind:

* sweep and figure commands are compared row by row with goldens recorded
  from the package (`goldens.json`): integers and labels exactly, floats to
  FLOAT_RTOL;
* single queries are compared with the independent reference in
  `reference.py`;
* oracle commands must keep their identity deviations below physical
  thresholds.

Failures that are known defects of the package are listed in
KNOWN_FAILURES. They still count as failed; an unknown failure also makes
the run incorrect.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
from workloads import MATERIALS, Op

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# Float columns of goldens; loose enough for a closed-form Debye integral
# (1.4e-10 relative to the quadrature), tight enough for any real defect.
FLOAT_RTOL = 1e-8
# Floats recomputed by the reference from the program's own integers.
DERIVED_RTOL = 1e-9
# Roundoff allowance of dense double-precision identities per unit of scale.
IDENTITY_TOL = 1e-9
# Oracle identity deviations are roundoff (~1e-14) that changes with BLAS
# summation order; goldens compare them only down to this floor.
ORACLE_ATOL = 1e-11

_ANGSTROM = 1e-10


class CheckFailure(Exception):
    """Output of one operation is wrong; the message says what."""


@dataclass(frozen=True)
class KnownFailure:
    """Operations of `kind` whose params satisfy `applies` fail with
    `message` in their reason."""

    kind: str
    applies: Callable[[dict], bool]
    message: str


KNOWN_FAILURES = (
    # L = 0 groups of >= 4 sites have paired modes +-cos k, so occupations
    # cannot be matched to eigenvalues by energy.
    KnownFailure(
        kind="oracle moments",
        applies=lambda p: p.get("L") == 0.0 and p.get("group_size", 0) >= 4,
        message="degenerate group spectrum",
    ),
)


def known_failure(op: Op, reason: str) -> KnownFailure | None:
    for kf in KNOWN_FAILURES:
        if op.kind == kf.kind and kf.applies(op.params) and kf.message in reason:
            return kf
    return None


# ---------------------------------------------------------------------------
# parsing


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_table(out: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a CSV or JSON table printed by sweep/figure."""
    text = out.strip()
    if text.startswith("["):
        payload = json.loads(text)
        if not payload:
            return [], []
        columns = [k for k, v in payload[0].items() if not (k == "l_min_m" and v is None)]
        return columns, [[row[c] for c in columns] for row in payload]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [[_cell(c) for c in ln.split(",")] for ln in lines[1:]]


def _close(expected: float, got: float, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(expected, bool) or isinstance(got, bool):
        return expected is got
    if math.isnan(expected) or math.isnan(got):
        return math.isnan(expected) and math.isnan(got)
    return abs(got - expected) <= rtol * max(abs(expected), 1e-300) + atol


def compare(expected, got, rtol: float = FLOAT_RTOL, where: str = "",
            atol: float = 0.0) -> None:
    """Raise CheckFailure unless got matches expected: ints, labels and
    booleans exactly, floats to rtol (plus atol), containers element by
    element."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            raise CheckFailure(f"{where}: keys differ")
        for key in expected:
            compare(expected[key], got[key], rtol, f"{where}.{key}", atol)
    elif isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            raise CheckFailure(f"{where}: length differs")
        for i, (e, g) in enumerate(zip(expected, got)):
            compare(e, g, rtol, f"{where}[{i}]", atol)
    elif isinstance(expected, float) and not isinstance(got, (str, type(None))):
        if not _close(expected, float(got), rtol, atol):
            raise CheckFailure(f"{where}: {got!r} != {expected!r}")
    elif type(expected) is not type(got) or expected != got:
        raise CheckFailure(f"{where}: {got!r} != {expected!r}")


def normalized_output(op_argv: tuple[str, ...], out: str):
    """Format-independent form of a command's output, as goldens store it."""
    if op_argv[0] in ("sweep", "figure"):
        columns, rows = parse_table(out)
        return {"columns": columns, "rows": rows}
    return json.loads(out)


# ---------------------------------------------------------------------------
# single queries


def _in_range(value, bounds: tuple[int, int], what: str) -> None:
    if not (isinstance(value, int) and bounds[0] <= value <= bounds[1]):
        raise CheckFailure(f"{what}: {value!r} outside reference {bounds}")


def _check_report(payload: dict, ref: dict, c1_ref: float, delta: float) -> None:
    n_cond, n_lin, n_min = payload["n_cond_const"], payload["n_linearity"], payload["n_min"]
    _in_range(n_cond, ref["n_cond_const"], "n_cond_const")
    _in_range(n_lin, ref["n_linearity"], "n_linearity")
    if n_min != max(n_cond, n_lin):
        raise CheckFailure("n_min is not the larger bound")
    binding = "None" if n_min == 1 else "ConditionConst" if n_cond >= n_lin else "Linearity"
    if payload["binding"] != binding:
        raise CheckFailure(f"binding {payload['binding']!r} != {binding!r}")
    if "c1_estimate" not in payload:  # materials reports no slope
        return
    if not _close(c1_ref, payload["c1_estimate"], DERIVED_RTOL):
        raise CheckFailure("c1_estimate")
    if payload["intensive"] is not (abs(payload["c1_estimate"]) <= delta):
        raise CheckFailure("intensive")


def check_query(op: Op, out: str) -> None:
    p = op.params
    payload = json.loads(out)
    if op.kind == "materials":
        theta, a0 = MATERIALS[p["material"]]
        t = p["temp_kelvin"] / theta
        compare({"name": p["material"], "theta_kelvin": theta, "a0_angstrom": a0,
                 "temp_kelvin": p["temp_kelvin"], "t_over_theta": t},
                {k: payload[k] for k in ("name", "theta_kelvin", "a0_angstrom",
                                         "temp_kelvin", "t_over_theta")},
                DERIVED_RTOL, "materials")
    else:
        t = p["t"]
        key = "t_over_theta" if p["chain"] == "harmonic" else "t_over_b"
        if payload[key] != t:
            raise CheckFailure(key)
    if p["chain"] == "harmonic":
        ref = reference.harmonic_bounds(t, p["alpha"], p["delta"])
        c1_ref = 1.0 / (2.0 * payload["n_min"] * t)
    else:
        ref = reference.ising_bounds(t, p["K"], p["L"], p["B"], p["alpha"], p["delta"])
        c1_ref = p["delta"] * ref["linearity_bound"] / payload["n_min"]
    _check_report(payload, ref, c1_ref, p["delta"])
    if "material" in p:
        a0 = MATERIALS[p["material"]][1]
        if not _close(payload["n_min"] * a0 * _ANGSTROM, payload["l_min_m"], DERIVED_RTOL):
            raise CheckFailure("l_min_m")
    elif "l_min_m" in payload:
        raise CheckFailure("unexpected l_min_m")


# ---------------------------------------------------------------------------
# oracle commands


def _quantities(out: str) -> dict:
    return {row["quantity"]: row["value"] for row in json.loads(out)}


def _below(value, limit: float, what: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= limit):
        raise CheckFailure(f"{what} = {value!r} exceeds {limit:.3g}")


def check_oracle(op: Op, out: str) -> None:
    p = op.params
    k, l_, sites = p["K"], p["L"], p["sites"]
    scale = sites * (1.0 + abs(k) + abs(l_))
    if p["cmd"] == "gaussian":
        rows = json.loads(out)
        gs = p["group_size"]
        expected = [(g, gs * g) for g in range(2, p["groups"] + 1)]
        if [(r["n_groups"], r["sites"]) for r in rows] != expected:
            raise CheckFailure("gaussian rows")
        skew = [r["max_abs_skewness"] for r in rows]
        for s in skew:
            _below(s, 1e3, "max_abs_skewness")
        # central-limit trend: the worst skewness shrinks as groups are added
        if any(b >= a for a, b in zip(skew, skew[1:])):
            raise CheckFailure("skewness does not decrease with groups")
        return
    q = _quantities(out)
    if q.get("sites") != sites:
        raise CheckFailure("sites")
    if p["cmd"] == "spectrum" and p["boundary"] == "open":
        _below(q["max_spectrum_deviation"], IDENTITY_TOL * scale, "max_spectrum_deviation")
    elif p["cmd"] == "spectrum":
        e0 = reference.ising_e0(k, l_, 1.0)
        if not _close(e0, q["ground_per_site_integral"], FLOAT_RTOL):
            raise CheckFailure("ground_per_site_integral")
        dev = abs(q["ground_per_site_dense"] - q["ground_per_site_integral"])
        if not _close(dev, q["deviation"], 1e-12) and dev > 1e-15:
            raise CheckFailure("deviation")
        # finite-size correction of the periodic ground energy is O(1/n)
        _below(q["deviation"], (1.0 + abs(k) + abs(l_)) / sites, "deviation")
    elif p["cmd"] == "moments":
        if q.get("groups") != p["groups"]:
            raise CheckFailure("groups")
        _below(q["max_abs_eps"], IDENTITY_TOL * scale, "max_abs_eps")
        _below(q["max_mean_identity_dev"], IDENTITY_TOL * scale, "max_mean_identity_dev")
        _below(q["max_var_identity_dev"], IDENTITY_TOL * scale**2, "max_var_identity_dev")
        if (l_ == 0.0) != ("max_delta_sq_formula_dev" in q):
            raise CheckFailure("max_delta_sq_formula_dev presence")
        if l_ == 0.0:
            _below(q["max_delta_sq_formula_dev"], IDENTITY_TOL * scale**2,
                   "max_delta_sq_formula_dev")
    else:  # rho
        if q.get("groups") != p["groups"]:
            raise CheckFailure("groups")
        worst = q["max_abs_log_deviation"]
        _below(worst, 1e3, "max_abs_log_deviation")
        if not _close(worst / (p["groups"] - 1), q["per_junction"], 1e-12):
            raise CheckFailure("per_junction")


# ---------------------------------------------------------------------------


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Judges one operation's exit code and output."""

    def __init__(self, goldens: dict | None = None) -> None:
        self.goldens = load_goldens() if goldens is None else goldens

    def check(self, op: Op, code: int, out: str, err: str) -> str | None:
        """None when the operation succeeded, else the reason it failed."""
        if code != op.expect_exit:
            first = err.strip().splitlines()[0] if err.strip() else ""
            return f"exit {code}, expected {op.expect_exit}: {first}"
        try:
            if op.expect_exit == 3:
                if "unsupported coupling" not in err or out:
                    raise CheckFailure("exit 3 without the unsupported-coupling message")
            elif "golden" in op.params:
                golden = self.goldens["sweep"][op.params["golden"]]
                compare(golden, normalized_output(op.argv, out), FLOAT_RTOL, op.params["golden"])
            elif op.kind.startswith("oracle"):
                check_oracle(op, out)
            else:
                check_query(op, out)
        except CheckFailure as exc:
            return f"wrong output: {exc}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None
