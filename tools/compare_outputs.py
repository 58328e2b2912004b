"""Run the same CLI commands on two source trees and print every difference.

Usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `localtemp` package (the `src/`
of a checkout). The commands are the sweep catalog of
`benchmarks/workloads.py`, a few longer grid sweeps, the four figures,
single `nmin harmonic` and `materials` queries that print a length and
single gapped `nmin ising` queries on both sides of the temperature where
e_bar starts to count, each in csv, json and human format; then failure and
range-edge commands (inputs that end in a named failure of the CLI, and
inputs at the edge of the supported range, such as huge fields or
couplings); then oracle commands of up to 12 sites in json format, among
them rings where the two fermion-parity sectors compete for the ground
state. Every command runs in a fresh interpreter for each tree, and any
difference in exit code, stdout or stderr is printed with a diff.

Exit status: 1 when the change does not declare a difference in the stdout
of a catalog, grid, figure or single-query command, or a number of an
oracle command that moved by more than ORACLE_RTOL relative plus ORACLE_ATOL
absolute, or when any command's stderr gains a line naming a Warning (no
command may write a numpy warning), or when the stdout of a json command on
either tree is not json.dumps(json.loads(stdout), indent=2) plus a newline
(oracle numbers pass at roundoff, so this check holds their layout); 0
otherwise. BLAS threading and summation order can move an oracle number's
roundoff-level digits from run to run, so those pass. A change that alters such output on purpose (a
golden re-record or a new oracle engine, say) lists the commands in
tools/expected_output_changes.txt: one shell-style pattern per line,
matched against the command as printed ("localtemp sweep ising ... --format
csv"). Other differences in stderr or exit code, and in the failure and
range-edge commands, are printed but do not fail, as fixes change those on
purpose; say which in the change log.
"""
from __future__ import annotations

import difflib
import fnmatch
import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import SWEEP_CATALOG  # noqa: E402

# Longer and odd-sized grids: several in-chunk passes, both thermal paths,
# and models whose constant condition reads e_bar or only the window edge.
GRID_SWEEPS = (
    ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3", "--points", "1000", "--log",
     "--K", "0", "--L", "0.5"),
    ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3", "--points", "333", "--log",
     "--K", "2", "--L", "0"),
    ("sweep", "ising", "--tmin", "1e-2", "--tmax", "1e2", "--points", "37", "--log",
     "--K", "1", "--L", "0"),
    ("sweep", "ising", "--tmin", "0.01", "--tmax", "50", "--points", "150",
     "--K", "0", "--L", "10"),
    ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3", "--points", "77", "--log",
     "--K", "-1", "--L", "1", "--alpha", "1.5"),
    ("sweep", "harmonic", "--tmin", "1e-4", "--tmax", "100", "--points", "1000", "--log"),
    # gapped chains across the temperature where e_bar / alpha first can reach
    # the window edge (e_bar_can_bind at beta); at alpha = 100 it never does
    ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3", "--points", "200", "--log",
     "--K", "0.1", "--L", "0.1"),
    ("sweep", "ising", "--tmin", "1e-2", "--tmax", "1e2", "--points", "150", "--log",
     "--K", "0", "--L", "0.5", "--alpha", "1.5"),
    ("sweep", "ising", "--tmin", "1e-2", "--tmax", "1e2", "--points", "150", "--log",
     "--K", "-0.7", "--L", "0.7", "--alpha", "100"),
)

FIGURES = tuple(("figure", fig) for fig in ("fig3", "fig4", "fig5", "fig6"))

# Single queries that print a length l_min = n_min * a0, one per material,
# at temperatures on both sides of the constant-condition crossover.
SINGLE_QUERIES = (("materials",),) + tuple(
    query
    for name, theta_ratio, kelvin in (("iron", "2", "940"), ("carbon", "0.05", "111.5"),
                                      ("silicon", "0.02", "12.9"))
    for query in (("nmin", "harmonic", "--t-over-theta", theta_ratio, "--name", name),
                  ("materials", "--name", name, "--temp-kelvin", kelvin))
)

# Single gapped-chain queries just below and just above that temperature
CROSSOVER_QUERIES = tuple(
    ("nmin", "ising", "--t-over-b", t, "--K", k, "--L", l)
    for k, l, below, above in (("0.1", "0.1", "0.42", "0.43"), ("0", "0.5", "1.6", "1.7"),
                               ("-0.7", "0.7", "0.59", "0.61"))
    for t in (below, above)
)

EXPECTED = pathlib.Path(__file__).with_name("expected_output_changes.txt")

FAILURES = (
    ("nmin", "ising", "--t-over-b", "1e-308", "--K", "1", "--L", "1"),
    ("nmin", "ising", "--t-over-b", "inf", "--K", "1", "--L", "1"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "1", "--L", "1", "--delta", "1e-320"),
    ("nmin", "ising", "--t-over-b", "1e-10", "--K", "1", "--L", "1", "--delta", "1e-300"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "1", "--L", "1", "--B", "1e-200"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "1", "--L", "1", "--B", "1e-160"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "2", "--L", "3"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "nan", "--L", "nan"),
    ("nmin", "ising", "--t-over-b", "1", "--B", "1e-300", "--jx", "1", "--jy", "1"),
    ("nmin", "ising", "--t-over-b=5e-324", "--K=0.5", "--L=0.5", "--B=1e-5"),
    ("nmin", "ising", "--t-over-b=5e-324", "--K=0.5", "--L=0"),
    ("nmin", "ising", "--t-over-b=1", "--K=0", "--L=2", "--B=5e-324"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "0", "--L", "1e200"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "1e155", "--L", "1e155"),
    ("nmin", "harmonic", "--t-over-theta", "1e-120"),
    ("nmin", "harmonic", "--t-over-theta", "inf"),
    # t**2 overflows, e_bar does not; (2 alpha / delta) * e_bar overflows at 1e306
    ("nmin", "harmonic", "--t-over-theta", "1e155"),
    ("nmin", "harmonic", "--t-over-theta", "1e300"),
    ("nmin", "harmonic", "--t-over-theta", "1e306"),
    # every sweep grid point must be a positive temperature
    ("sweep", "ising", "--tmin", "0", "--tmax", "1", "--points", "3", "--K", "2"),
    ("sweep", "harmonic", "--tmin", "-1", "--tmax", "1", "--points", "3"),
    ("sweep", "harmonic", "--tmin", "1", "--tmax", "1e308", "--points", "3"),
    ("sweep", "ising", "--tmin", "1e-300", "--tmax", "1e-290", "--points", "3", "--log",
     "--K", "2"),
    ("sweep", "ising", "--tmin", "1e-310", "--tmax", "1", "--points", "5", "--log",
     "--K", "1", "--L", "1"),
    # 1/t overflows on a gapless chain: e_bar is its T -> 0 limit, 0
    ("nmin", "ising", "--t-over-b", "1e-320", "--K", "2"),
    ("nmin", "ising", "--t-over-b", "1e-320", "--K", "1"),
    ("sweep", "ising", "--tmin", "1e-320", "--tmax", "1e-300", "--points", "3", "--log",
     "--K", "2"),
    ("sweep", "ising", "--tmin", "1", "--tmax", "2", "--points", "2", "--L=-inf"),
    ("oracle", "rho", "--sites", "4", "--groups", "2", "--K", "0.3", "--beta-b", "200"),
    ("oracle", "moments", "--sites", "8", "--groups", "2", "--K", "0.3"),
    ("sweep", "harmonic", "--tmin", "1", "--tmax", "2", "--points", "100001"),
    ("materials", "--name", "iron", "--temp-kelvin", "nan"),
    ("nmin", "ising", "--t-over-b", "0.5", "--K", "1", "--L", "1", "--B", "1e5"),
    ("nmin", "ising", "--t-over-b", "0.5", "--K", "2", "--L", "0", "--B", "1e5"),
    ("nmin", "ising", "--t-over-b", "0.5", "--K", "-1", "--L", "1", "--B", "1e5"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "1e5"),
    ("oracle", "spectrum", "--sites", "4", "--boundary", "periodic", "--K", "1", "--L", "1e4"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "1", "--L", "1", "--alpha", "inf"),
    ("nmin", "harmonic", "--t-over-theta", "1", "--alpha", "inf"),
    ("sweep", "ising", "--tmin", "0.1", "--tmax", "10", "--points", "5", "--K", "2",
     "--alpha", "inf"),
    # general couplings: rejected at the first point, with no e_bar computed
    ("sweep", "ising", "--tmin", "0.1", "--tmax", "1", "--points", "5", "--K", "0.5",
     "--L", "0.2"),
    # degenerate group modes (K = 0, an edge mode) and overflowing cumulants
    ("oracle", "gaussian", "--sites", "8", "--groups", "4", "--K", "0", "--L", "0.5"),
    ("oracle", "gaussian", "--sites", "10", "--groups", "2", "--K", "1e3", "--L", "1e3"),
    ("oracle", "gaussian", "--sites", "4", "--groups", "2", "--K", "1e150", "--L", "0"),
    # B is the unit of energy, so these print the B = 1 rows; Jx = 1e-200
    # leaves the modes degenerate
    ("oracle", "gaussian", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "1e-300"),
    ("oracle", "gaussian", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "1e-160"),
    ("oracle", "gaussian", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "1e200"),
    ("oracle", "gaussian", "--sites", "6", "--groups", "3", "--jx", "1e-200", "--jy", "0"),
    # rho depends on beta B alone, so these print the B = 1 deviation; no
    # width at all exits 1
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "1e-150"),
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "1e-300"),
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "1e200"),
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--jx", "0", "--jy", "0"),
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "1e-300"),
    # an eigenpair residual that overflows, and an eigensolver that does not
    # converge on an overflowed H: both numerical failures
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "1e300"),
    ("oracle", "rho", "--sites", "6", "--groups", "3", "--K", "1.7e308"),
    # the integers at every B are those of B = 1, and oracle energies are in
    # units of B
    ("nmin", "ising", "--t-over-b", "0.01", "--K", "2", "--L", "0", "--B", "1e-8"),
    ("oracle", "spectrum", "--sites", "6", "--boundary", "periodic", "--K", "0.3", "--L",
     "0.2", "--B", "2"),
    ("oracle", "moments", "--sites", "6", "--groups", "3", "--K", "0.3", "--L", "0.2",
     "--B", "2"),
    # a gapless chain where beta times the node slope leaves the float range:
    # one ladder cell, the beta -> 0 limit
    ("nmin", "ising", "--t-over-b", "1e308", "--K", "1.01"),
    ("sweep", "ising", "--tmin", "1", "--tmax", "1e308", "--points", "3", "--log",
     "--K", "1.01"),
    # a window gap of 0 in the constant condition
    ("nmin", "ising", "--t-over-b", "1e-3", "--K", "0", "--L", "0", "--alpha", "1e300"),
    # the erfcx branch of canonical._log_erfc_difference, at the dense
    # rounding floor (ROADMAP item 5)
    ("oracle", "rho", "--sites", "6", "--groups", "2", "--K", "0.3", "--L", "0.2",
     "--beta-b", "30"),
    # weak coupling: the window edge rounds to 0 and e_bar / alpha sets the gap
    ("nmin", "ising", "--t-over-b", "1e-3", "--K", "1e-9", "--L", "1e-9"),
    # a window edge near 2 |L| / pi whose (L sin k)^2 would overflow, though
    # L^2 does not
    ("nmin", "ising", "--t-over-b", "1e10", "--K", "0", "--L", "1e154"),
    # omega_k, or the trapezoid sum of the ground energy, overflows on the
    # trapezoid grid; the junction width names the coupling
    ("nmin", "ising", "--t-over-b", "1", "--K", "0", "--L", "1e308"),
    ("nmin", "ising", "--t-over-b", "1", "--K", "5e307", "--L", "5e307"),
    # finite --jx/--jy/--B whose K or L overflows: an overflow (exit 2) that
    # names the derived coupling and the three inputs
    ("nmin", "ising", "--t-over-b", "1", "--jx", "1e308", "--jy", "1e308"),
    ("sweep", "ising", "--tmin", "1", "--tmax", "2", "--points", "2", "--jx", "1e308",
     "--jy", "1e308"),
    ("oracle", "spectrum", "--sites", "3", "--boundary", "periodic", "--jx", "1", "--jy",
     "1", "--B", "1e-320"),
)


# each oracle check at <= 10 sites (gaussian up to 12), with the model given as
# K, L and as Jx, Jy, and at L = 0, where moments also compares the junction
# width formula
ORACLE = tuple(
    cmd + model + ("--format", "json")
    for cmd in (
        ("oracle", "spectrum", "--sites", "6"),
        ("oracle", "spectrum", "--sites", "6", "--boundary", "periodic"),
        ("oracle", "moments", "--sites", "8", "--groups", "4"),
        ("oracle", "rho", "--sites", "6", "--groups", "3", "--beta-b", "2"),
        ("oracle", "gaussian", "--sites", "8", "--groups", "4"),
        # the per-group svd at group sizes 3 and 5
        ("oracle", "gaussian", "--sites", "9", "--groups", "3"),
        ("oracle", "gaussian", "--sites", "10", "--groups", "2"),
        # every group count built junction by junction up to 12 sites
        ("oracle", "gaussian", "--sites", "12", "--groups", "6"),
        ("oracle", "gaussian", "--sites", "12", "--groups", "4"),
        # group sizes 1 (a group's first and last site agree) and 6
        ("oracle", "gaussian", "--sites", "8", "--groups", "8"),
        ("oracle", "gaussian", "--sites", "12", "--groups", "2"),
    ) + tuple(
        # the junction sums, the blocked overlaps and the eigensystem check
        # at 10 sites, at group sizes 1 and 3, and at L = 0 in groups of 4,
        # whose degenerate levels eigh may mix across parities
        ("oracle", cmd, "--sites", sites, "--groups", groups)
        + (("--beta-b", "1.3") if cmd == "rho" else ())
        for cmd in ("rho", "moments")
        for sites, groups in (("10", "5"), ("8", "2"), ("8", "8"), ("9", "3"))
    )
    for model in (("--K", "0.3", "--L", "0.2"), ("--jx", "0.4", "--jy", "0.2"),
                  ("--K", "0.3", "--L", "0"))
) + tuple(
    # Jy = 0, where one of a junction's two blocks vanishes, and Jx = Jy
    ("oracle", "gaussian", "--sites", "8", "--groups", "4") + model + ("--format", "json")
    for model in (("--K", "0.5", "--L", "0.5"), ("--K", "1.5", "--L", "0"))
) + tuple(
    # rings whose two fermion-parity sectors compete for the ground state
    ("oracle", "spectrum", "--sites", sites, "--boundary", "periodic") + model
    + ("--format", "json")
    for sites in ("7", "8")
    for model in (("--K", "1.6"), ("--K", "-1.6"), ("--K", "1.2", "--L", "1.2"))
) + (
    # the sector split at the largest chain, 12 sites, at L != 0
    ("oracle", "rho", "--sites", "12", "--groups", "4", "--K", "0.3", "--L", "0.2",
     "--beta-b", "1.3", "--format", "json"),
)

# an oracle number may move by roundoff, and by no more, without a declaration
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-11


def run(src: str, argv: tuple[str, ...]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-m", "localtemp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def differences(parent, change) -> list[str]:
    lines = []
    if parent[0] != change[0]:
        lines.append(f"  exit code {parent[0]} -> {change[0]}")
    for name, old, new in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        if old != new:
            diff = difflib.unified_diff(old.splitlines(), new.splitlines(),
                                        "parent", "change", n=0, lineterm="")
            lines += [f"  {name}:"] + [f"    {line}" for line in list(diff)[:40]]
    return lines


def _close(old, new) -> bool:
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        return abs(new - old) <= ORACLE_RTOL * abs(old) + ORACLE_ATOL
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(map(_close, old, new))
    if isinstance(old, dict) and isinstance(new, dict):
        return list(old) == list(new) and all(_close(old[k], new[k]) for k in old)
    return old == new


def json_close(old: str, new: str) -> bool:
    """Whether two json outputs have the same layout and strings, and numbers
    that agree to ORACLE_RTOL relative plus ORACLE_ATOL absolute."""
    try:
        return _close(json.loads(old), json.loads(new))
    except json.JSONDecodeError:
        return False


def json_layout_ok(command: tuple[str, ...], stdout: str) -> bool:
    """Whether the stdout of a command is json's indent=2 layout of what it
    holds, plus a newline; true for a command in another format and for one
    that printed nothing."""
    if command[-2:] != ("--format", "json") or not stdout:
        return True
    try:
        return stdout == json.dumps(json.loads(stdout), indent=2) + "\n"
    except json.JSONDecodeError:
        return False


def new_warnings(parent_err: str, change_err: str) -> list[str]:
    """The lines of the change's stderr that name a Warning (a numpy
    RuntimeWarning, say) and are not in the parent's."""
    old = set(parent_err.splitlines())
    return [line for line in change_err.splitlines() if "Warning" in line and line not in old]


def expected_patterns(path: pathlib.Path = EXPECTED) -> list[str]:
    """The declared patterns of path, without blank lines and # comments."""
    if not path.exists():
        return []
    lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
    return [line for line in lines if line]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    parent_src, change_src = argv
    exact = [argv_ + ("--format", fmt)
             for argv_ in ([a for _, a in SWEEP_CATALOG] + list(GRID_SWEEPS) + list(FIGURES)
                           + list(SINGLE_QUERIES) + list(CROSSOVER_QUERIES))
             for fmt in ("csv", "json", "human")]
    commands = ([(c, "exact") for c in exact] + [(c, "failure") for c in FAILURES]
                + [(c, "oracle") for c in ORACLE])
    patterns = expected_patterns()
    failed = differing = 0
    for command, gate in commands:
        parent, change = run(parent_src, command), run(change_src, command)
        shown = f"localtemp {' '.join(command)}"
        trees = [tree for tree, out in (("parent", parent[1]), ("change", change[1]))
                 if not json_layout_ok(command, out)]
        if trees:
            failed += 1
            print(f"[JSON LAYOUT] {shown}: the {' and '.join(trees)} stdout is not"
                  " json.dumps(indent=2)")
        lines = differences(parent, change)
        if not lines:
            continue
        differing += 1
        if new_warnings(parent[2], change[2]):
            kind, failed = "NEW WARNING", failed + 1
        elif gate == "failure":
            kind = "failure command"
        elif parent[1] == change[1]:
            kind = "stdout matches"
        elif any(fnmatch.fnmatchcase(shown, p) for p in patterns):
            kind = "declared"
        elif gate == "oracle" and json_close(parent[1], change[1]):
            kind = "oracle numbers within roundoff"
        else:
            kind, failed = "STDOUT MUST MATCH", failed + 1
        print(f"[{kind}] {shown}")
        print("\n".join(lines))
    print(f"{len(commands)} commands, {differing} differ,"
          f" {failed} failing (undeclared stdout changes, new warnings, json layout)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
