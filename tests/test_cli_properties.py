"""Property-based CLI test: extreme and non-finite inputs end in a
documented exit code, in bounded time, and never as a silent nan."""
from __future__ import annotations

import io
import re
import signal
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localtemp.cli import main

# each example must finish within this many seconds; the alarm, twice as
# long, turns a hang into a failure instead of a stuck test run
_TIME_BOUND_S = 5.0

_EXTREMES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e-5, -1e-5,
    0.5, -0.5, 1.0, -1.0, 2.0, 1e5, -1e5, 1e300, -1e300, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"),
)

# the tiny-float branch reaches products such as t * B that underflow to 0
values = st.one_of(
    st.sampled_from(_EXTREMES),
    st.floats(),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


class _Hang(Exception):
    """Not an OSError (as TimeoutError is), so main() cannot swallow it."""


@st.composite
def commands(draw) -> list[str]:
    joined = draw(st.booleans())  # "--K=-1e-5" or "--K -1e-5"

    def flag(name: str, value) -> list[str]:
        text = repr(value) if isinstance(value, float) else str(value)
        return [f"{name}={text}"] if joined else [name, text]

    def optional(name: str) -> list[str]:
        return flag(name, draw(values)) if draw(st.booleans()) else []

    def accuracy() -> list[str]:
        return optional("--alpha") + optional("--delta")

    def couplings() -> list[str]:
        if draw(st.booleans()):
            pair = optional("--K") + optional("--L")
        else:
            pair = optional("--jx") + optional("--jy")
        return pair + optional("--B")

    kind = draw(st.sampled_from(
        ["nmin harmonic", "nmin ising", "sweep harmonic", "sweep ising",
         "materials", "oracle"]
    ))
    if kind == "nmin harmonic":
        argv = ["nmin", "harmonic", *flag("--t-over-theta", draw(values)), *accuracy()]
        if draw(st.booleans()):
            argv += ["--name", "iron"]
    elif kind == "nmin ising":
        argv = ["nmin", "ising", *flag("--t-over-b", draw(values)), *couplings(),
                *accuracy()]
    elif kind.startswith("sweep"):
        chain = kind.split()[1]
        argv = ["sweep", chain, *flag("--tmin", draw(values)),
                *flag("--tmax", draw(values)),
                *flag("--points", draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv.append("--log")
        argv += couplings() if chain == "ising" else []
        argv += accuracy()
    elif kind == "materials":
        argv = ["materials", "--name", "iron", *flag("--temp-kelvin", draw(values)),
                *accuracy()]
    else:
        cmd = draw(st.sampled_from(["spectrum", "moments", "gaussian", "rho"]))
        argv = ["oracle", cmd, *flag("--sites", draw(st.integers(1, 6)))]
        if cmd != "spectrum":
            argv += flag("--groups", draw(st.integers(1, 6)))
        if cmd in ("gaussian", "rho"):
            argv += optional("--beta-b")
        argv += couplings()
    argv += flag("--format", draw(st.sampled_from(["human", "csv", "json"])))
    return argv


def _hang(signum, frame):
    raise _Hang("command did not finish")


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(commands())
def test_every_input_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, 2 * _TIME_BOUND_S)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), np.errstate(all="ignore"):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < _TIME_BOUND_S
    assert type(code) is int and code in (0, 1, 2, 3)
    if code == 0:
        assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE)
