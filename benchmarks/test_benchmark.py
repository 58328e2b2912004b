"""Self-tests of the benchmark: python3 -m pytest benchmarks"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import goldens  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _rounds(workload: str, seed: int, n: int = 3) -> list[Op]:
    gen = workloads.stream(workload, seed)
    return [op for _ in range(n) for op in next(gen)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = _rounds(workload, 11)
    assert first == _rounds(workload, 11)
    assert [op.params for op in first] == [op.params for op in _rounds(workload, 11)]
    assert first != _rounds(workload, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_the_mix(workload):
    kinds = lambda ops: sorted(op.kind for op in ops)  # noqa: E731
    assert kinds(_rounds(workload, 1, 1)) == kinds(_rounds(workload, 2, 1))


def _run_one(op: Op):
    code, _elapsed, out, err = run.execute(op)
    return code, out, err


def _first(workload: str, kind: str) -> Op:
    """First op of a kind that succeeds and stays below 10 sites (fast)."""
    return next(op for op in _rounds(workload, 5)
                if op.kind == kind and op.params.get("sites", 0) < 10
                and checks.known_failure(op, "degenerate group spectrum") is None)


def test_correct_outputs_pass():
    checker = checks.Checker()
    for workload, kind in (("sweep", "sweep fig4"), ("point", "nmin harmonic"),
                           ("point", "materials"), ("point", "nmin ising constwidth"),
                           ("point", "nmin ising general"), ("oracle", "oracle rho")):
        op = _first(workload, kind)
        assert checker.check(op, *_run_one(op)) is None, kind


def _corrupt_number(out: str) -> str:
    """Change the first n_min / skewness / deviation value in an output."""
    payload = json.loads(out)
    rows = payload if isinstance(payload, list) else [payload]
    row = rows[-1]
    key = next(k for k in ("n_min", "max_abs_skewness", "value") if k in row)
    row[key] = row[key] + 1 if isinstance(row[key], int) else row[key] * 1.5 + 1.0
    return json.dumps(payload)


@pytest.mark.parametrize("workload,kind", [
    ("point", "nmin harmonic"),
    ("point", "materials"),
    ("point", "nmin ising isotropic-strong"),
    ("sweep", "sweep ising-isotropic-critical"),
    ("oracle", "oracle moments"),
])
def test_wrong_output_counts_as_failed(workload, kind):
    op = _first(workload, kind)
    if workload == "sweep":  # corrupt the JSON form of the table
        op = Op(op.kind, op.argv[:-1] + ("json",), op.units, 0, op.params)
    code, out, err = _run_one(op)
    tally = run.Tally()
    tally.add(op, code, 0.0, _corrupt_number(out), err, checks.Checker())
    assert tally.failed == 1 and not tally.correct


def test_wrong_exit_code_counts_as_failed():
    op = _first("point", "nmin ising general")
    tally = run.Tally()
    tally.add(op, 0, 0.0, "{}", "", checks.Checker())
    tally.add(op, "exception", 0.0, "", "ZeroDivisionError: x", checks.Checker())
    assert tally.failed == 2 and tally.unknown == 2


def test_times_scale_with_the_host_probe():
    op = _first("point", "nmin ising general")
    tally = run.Tally()
    tally.add(op, 3, 0.2, "", "", checks.Checker(), probe=2 * run.PROBE_REF_S)
    assert tally.times == [0.2] and tally.scaled == [pytest.approx(0.1)]


def test_known_failure_is_failed_but_listed_as_known():
    op = next(op for op in _rounds("oracle", 2)
              if op.kind == "oracle moments" and op.params["L"] == 0.0
              and op.params["group_size"] >= 4)
    tally = run.Tally()
    code, out, err = _run_one(op)
    tally.add(op, code, 0.0, out, err, checks.Checker())
    assert tally.failed == 1 and tally.correct
    assert "known defect" in tally.failure_lines()[0]


def _traced_counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "point", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "calls/point", "ratio", "B")}


def test_traced_counts_repeat_exactly():
    first = _traced_counts(4)
    assert first == _traced_counts(4)
    assert first["sweep.ising.linearity_bound.calls_per_point"] == 2.0
    assert first["point.ising.ground_energy_per_site.hit_ratio"] == 0.0
    assert first["sweep.ising.ground_energy_per_site.hit_ratio"] > 0.99
    assert first["ladder.n10.oracle.dense_bytes_computed"] > 16 * 2**20


def test_three_mean_energy_calls_per_low_temperature_point():
    from tracing import Tracer, calls_under, summarize

    op = Op("nmin harmonic", ("nmin", "harmonic", "--t-over-theta", "0.01"), 1)
    with Tracer() as tracer:
        for _ in range(4):
            run.execute(op)
    stats = summarize(tracer.spans)
    assert stats["harmonic.nmin"].calls == 4
    assert calls_under(tracer.spans, "harmonic.mean_energy_reduced", "harmonic.nmin") == 12


def test_goldens_hold_and_agree_with_mpmath():
    assert goldens.check(checks.load_goldens()) == []


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1)[0] == "no worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1)[0] == "improved"


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
