"""Every demo script runs to completion against the current package."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import localtemp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == [
        "harmonic_lengths.py",
        "ising_coupling_cases.py",
        "oracle_verification.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    # the demos import localtemp; point them at the package under test
    package_root = str(Path(localtemp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
