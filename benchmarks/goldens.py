"""Record or check the correctness goldens of the benchmark.

    python3 benchmarks/goldens.py --check     # exit 0 when everything matches
    python3 benchmarks/goldens.py --record    # rewrite benchmarks/goldens.json

goldens.json holds, from the package as it was when recorded:

* "sweep": the full normalized output of every sweep-catalog command, which
  run.py compares with every sweep operation it times;
* "ops": exit code and output of a fixed set of single queries and oracle
  commands (two point rounds and one oracle round below 10 sites, seed 0).

--check also anchors the goldens outside the package: the harmonic e_bar is
compared with mpmath's closed form pi^2/6 + X ln(1 - e^-X) - Li2(e^-X), and
the golden harmonic integers are re-derived from that mpmath value.
"""
from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import SWEEP_CATALOG, Op, stream  # noqa: E402

MPMATH_T = (1e-4, 3e-3, 0.05, 0.091, 0.5, 1.0, 7.0, 100.0)
MPMATH_RTOL = 1e-9


def golden_ops() -> list[Op]:
    points = stream("point", 0)
    ops = next(points) + next(points)
    ops += [op for op in next(stream("oracle", 0)) if op.params["sites"] < 10]
    return ops


def _run(op: Op) -> tuple[int | str, str, str]:
    from run import execute

    code, _elapsed, out, err = execute(op)
    return code, out, err


def record() -> dict:
    sweep = {}
    for name, argv in SWEEP_CATALOG:
        code, out, _ = _run(Op(name, argv + ("--format", "csv"), 0))
        if code != 0:
            raise SystemExit(f"catalog command {name} exited {code}")
        sweep[name] = checks.normalized_output(argv, out)
    ops = []
    for op in golden_ops():
        code, out, _ = _run(op)
        ops.append({"argv": list(op.argv), "exit": code,
                    "output": checks.normalized_output(op.argv, out) if code == 0 else None})
    return {"sweep": sweep, "ops": ops}


def mpmath_e_bar(t: float) -> float:
    import mpmath

    mpmath.mp.dps = 40
    x = mpmath.mpf(1) / mpmath.mpf(t)
    q = mpmath.exp(-x)
    d = mpmath.pi**2 / 6 + x * mpmath.log(1 - q) - mpmath.polylog(2, q)
    return float(mpmath.mpf(t) ** 2 * d)


def check(goldens: dict) -> list[str]:
    """Problems found; an empty list means the goldens hold."""
    from localtemp import harmonic

    problems = []
    for name, argv in SWEEP_CATALOG:
        for fmt in ("csv", "json"):
            code, out, _ = _run(Op(name, argv + ("--format", fmt), 0))
            try:
                if code != 0:
                    raise checks.CheckFailure(f"exit {code}")
                checks.compare(goldens["sweep"][name], checks.normalized_output(argv, out),
                               checks.FLOAT_RTOL, f"{name} ({fmt})")
            except checks.CheckFailure as exc:
                problems.append(str(exc))
    by_argv = {tuple(e["argv"]): e for e in goldens["ops"]}
    for op in golden_ops():
        want = by_argv[op.argv]
        code, out, err = _run(op)
        if code != want["exit"]:
            # a known defect that has been fixed is progress, not a mismatch
            fixed = (code == 0
                     and any(kf.kind == op.kind and kf.applies(op.params)
                             for kf in checks.KNOWN_FAILURES)
                     and checks.Checker(goldens).check(op, code, out, err) is None)
            if not fixed:
                problems.append(f"{' '.join(op.argv)}: exit {code} != {want['exit']}")
            continue
        if code == 0:
            try:
                atol = checks.ORACLE_ATOL if op.kind.startswith("oracle") else 0.0
                checks.compare(want["output"], checks.normalized_output(op.argv, out),
                               checks.FLOAT_RTOL, " ".join(op.argv), atol)
            except checks.CheckFailure as exc:
                problems.append(str(exc))

    for t in MPMATH_T:
        exact = mpmath_e_bar(t)
        for label, value in (("package", harmonic.mean_energy_reduced(t)),
                             ("reference", reference.harmonic_e_bar(t))):
            if abs(value - exact) > MPMATH_RTOL * exact:
                problems.append(f"{label} e_bar({t}) = {value!r}, mpmath {exact!r}")
    # golden harmonic integers against bounds built on the mpmath e_bar
    rows = goldens["sweep"]["harmonic-log"]["rows"][::20]
    for t, n_cond, n_lin, _n_min, _binding in rows:
        e_bar = mpmath_e_bar(t)
        lin = reference.int_range(2.0 * 10.0 / 0.01 * e_bar / t)
        if not lin[0] <= n_lin <= lin[1]:
            problems.append(f"golden n_linearity at t={t} disagrees with mpmath")
        if e_bar < 0.25:
            ratio = 4.0 * e_bar / 10.0
            cond = reference.int_range((1.0 / t) * (10.0 / (4.0 * e_bar)) * (1.0 + ratio) ** 2)
            if not cond[0] <= n_cond <= cond[1]:
                problems.append(f"golden n_cond_const at t={t} disagrees with mpmath")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as fh:
            json.dump(record(), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {checks.GOLDENS_PATH}")
        return 0
    problems = check(checks.load_goldens())
    for line in problems:
        print(line)
    print("goldens hold" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
