"""Seeded operation streams for the three benchmark workloads.

An operation is one `localtemp` command line, run in-process through
`localtemp.cli.main`. Each workload is a closed loop with one client that
repeats rounds. A round holds a fixed multiset of operation kinds, so every
seed gives the same mix of work; the seed decides the order, the output
format and every continuous parameter. That keeps run-to-run spread down
while the seed still changes the inputs.

Why these workloads:

* sweep  -- one model across many temperatures, so the thermal integrals
  (`specfun`, `harmonic`, `ising`) do the work and the ground-energy cache
  hits; the oracle is idle. Commands come from a fixed catalog so every row
  is checked against goldens.
* point  -- single queries, each on a fresh model, so fixed per-call costs
  (parser construction, cache misses) dominate.
* oracle -- dense exact-diagonalization commands at 8 to 10 sites, where the
  Hamiltonian build, `eigh`, the product basis and the per-state loops
  dominate and the criteria are idle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "point", "oracle")

MATERIALS = {
    "iron": (470.0, 2.5),
    "carbon": (2230.0, 1.5),
    "silicon": (645.0, 2.4),
}


@dataclass(frozen=True)
class Op:
    """One CLI command plus what the checker needs to judge its output.

    kind names the operation class in failure listings; units is the work
    the operation completes when it succeeds (temperature points, queries or
    product states); expect_exit is the documented exit code.
    """

    kind: str
    argv: tuple[str, ...]
    units: int
    expect_exit: int = 0
    params: dict = field(default_factory=dict, compare=False, hash=False)


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# sweep: fixed catalog, seeded order and output format

# (name, argv without --format). The names double as golden keys.
# Cases: harmonic (log, linear, with a material), Ising isotropic weak
# (closed form), gapped trapezoid (K=0; K=L with |K| != 1), gapless ladder
# (K=1 L=0 quadratic node; K=L=1 and K=-L=-1 linear nodes at 0 and pi;
# |K|>1 isotropic linear node), and the four figures. The three dearest
# commands (fig6 and the two 200-point sweeps) cost about the same, so the
# p95 tail lands inside one group instead of on a cost cliff.
SWEEP_CATALOG: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("harmonic-log", ("sweep", "harmonic", "--tmin", "1e-4", "--tmax", "100",
                      "--points", "200", "--log")),
    ("harmonic-linear", ("sweep", "harmonic", "--tmin", "0.05", "--tmax", "2",
                         "--points", "100")),
    ("harmonic-iron", ("sweep", "harmonic", "--tmin", "0.01", "--tmax", "10",
                       "--points", "100", "--log", "--name", "iron",
                       "--alpha", "5", "--delta", "0.02")),
    ("ising-isotropic-weak", ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3",
                              "--points", "100", "--log", "--K", "0.5", "--L", "0")),
    ("ising-anisotropic-gapped", ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3",
                                  "--points", "100", "--log", "--K", "0", "--L", "0.5")),
    ("ising-constwidth-gapped", ("sweep", "ising", "--tmin", "1e-2", "--tmax", "1e2",
                                 "--points", "100", "--log", "--K", "1.5", "--L", "1.5",
                                 "--B", "2")),
    ("ising-isotropic-critical", ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3",
                                  "--points", "100", "--log", "--K", "1", "--L", "0")),
    ("ising-constwidth-node0", ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3",
                                "--points", "100", "--log", "--K", "1", "--L", "1")),
    ("ising-constwidth-nodepi", ("sweep", "ising", "--tmin", "1e-2", "--tmax", "1e2",
                                 "--points", "100", "--log", "--jx", "0", "--jy", "-2")),
    ("ising-isotropic-strong", ("sweep", "ising", "--tmin", "1e-3", "--tmax", "1e3",
                                "--points", "200", "--log", "--K", "2", "--L", "0")),
    ("ising-isotropic-strong-neg", ("sweep", "ising", "--tmin", "0.05", "--tmax", "20",
                                    "--points", "100", "--K", "-1.6", "--L", "0")),
    ("fig3", ("figure", "fig3")),
    ("fig4", ("figure", "fig4")),
    ("fig5", ("figure", "fig5")),
    ("fig6", ("figure", "fig6")),
)


# Every figure evaluates a fixed 200-point temperature grid.
FIGURE_POINTS = 200


def sweep_points(argv: tuple[str, ...]) -> int:
    """Temperature points a sweep or figure command evaluates."""
    if "--points" in argv:
        return int(argv[argv.index("--points") + 1])
    return FIGURE_POINTS


def sweep_round(rng: random.Random) -> list[Op]:
    ops = []
    for name, argv in SWEEP_CATALOG:
        fmt = rng.choice(("csv", "json"))
        ops.append(
            Op(
                kind=f"sweep {name}",
                argv=argv + ("--format", fmt),
                units=sweep_points(argv),
                params={"golden": name, "format": fmt},
            )
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# point: single queries on fresh models


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _acc(rng: random.Random) -> dict:
    return {"alpha": rng.uniform(2.0, 20.0), "delta": rng.uniform(0.002, 0.05)}


def _harmonic_query(rng: random.Random, with_name: bool) -> Op:
    t = _log_uniform(rng, -3.5, 2.0)
    acc = _acc(rng)
    argv = ["nmin", "harmonic", "--t-over-theta", _num(t),
            "--alpha", _num(acc["alpha"]), "--delta", _num(acc["delta"])]
    params = {"chain": "harmonic", "t": t, **acc}
    if with_name:
        name = rng.choice(sorted(MATERIALS))
        argv += ["--name", name]
        params["material"] = name
    return Op("nmin harmonic", tuple(argv) + ("--format", "json"), 1, 0, params)


def _materials_query(rng: random.Random) -> Op:
    name = rng.choice(sorted(MATERIALS))
    temp = _log_uniform(rng, 0.0, 3.5)
    acc = _acc(rng)
    argv = ("materials", "--name", name, "--temp-kelvin", _num(temp),
            "--alpha", _num(acc["alpha"]), "--delta", _num(acc["delta"]),
            "--format", "json")
    return Op("materials", argv, 1, 0,
              {"chain": "harmonic", "material": name, "temp_kelvin": temp, **acc})


def _ising_query(rng: random.Random, case: str) -> Op:
    b = rng.uniform(0.5, 2.0)
    sign = rng.choice((1.0, -1.0))
    if case == "constwidth":
        k = sign * rng.uniform(0.1, 3.0)
        l_ = rng.choice((1.0, -1.0)) * k
    elif case == "anisotropic":
        k, l_ = 0.0, sign * rng.uniform(0.1, 3.0)
    elif case == "isotropic-weak":
        k, l_ = sign * rng.uniform(0.05, 0.95), 0.0
    elif case == "isotropic-strong":
        k, l_ = sign * rng.uniform(1.05, 3.0), 0.0
    else:  # general: documented answer is exit 3
        k = sign * rng.uniform(0.2, 2.0)
        l_ = rng.choice((1.0, -1.0)) * abs(k) * rng.uniform(0.2, 0.8)
    t = _log_uniform(rng, -2.0, 2.0)
    acc = _acc(rng)
    argv = ("nmin", "ising", "--t-over-b", _num(t), "--K", _num(k), "--L", _num(l_),
            "--B", _num(b), "--alpha", _num(acc["alpha"]),
            "--delta", _num(acc["delta"]), "--format", "json")
    return Op(
        f"nmin ising {case}",
        argv,
        1,
        3 if case == "general" else 0,
        {"chain": "ising", "t": t, "K": k, "L": l_, "B": b, **acc},
    )


_ISING_MIX = (
    "constwidth", "constwidth", "anisotropic", "isotropic-weak",
    "isotropic-weak", "isotropic-strong", "isotropic-strong", "general",
)


def point_round(rng: random.Random) -> list[Op]:
    ops = [_harmonic_query(rng, with_name=i == 0) for i in range(5)]
    ops += [_materials_query(rng) for _ in range(3)]
    ops += [_ising_query(rng, case) for case in _ISING_MIX]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle: dense commands at 8-10 sites, L = 0 and K = +-L


def _oracle_op(rng: random.Random, cmd: str, sites: int, groups: int | None,
               coupling: str, boundary: str = "open") -> Op:
    if coupling == "L0":
        k = rng.choice((1.0, -1.0)) * rng.uniform(0.2, 1.6)
        l_ = 0.0
    else:  # K = +-L
        k = rng.choice((1.0, -1.0)) * rng.uniform(0.2, 1.2)
        l_ = rng.choice((1.0, -1.0)) * k
    argv = ["oracle", cmd, "--sites", str(sites)]
    params = {"cmd": cmd, "sites": sites, "K": k, "L": l_, "boundary": boundary}
    if cmd == "spectrum":
        argv += ["--boundary", boundary]
        units = 2**sites
    else:
        argv += ["--groups", str(groups)]
        params["groups"] = groups
        group_size = sites // groups
        params["group_size"] = group_size
        if cmd == "gaussian":
            units = sum(2 ** (group_size * g) for g in range(2, groups + 1))
        else:
            units = 2**sites
    if cmd in ("gaussian", "rho"):
        beta_b = rng.uniform(0.5, 1.5)
        argv += ["--beta-b", _num(beta_b)]
        params["beta_b"] = beta_b
    argv += ["--K", _num(k), "--L", _num(l_), "--format", "json"]
    return Op(f"oracle {cmd}", tuple(argv), units, 0, params)


# (command, sites, groups, coupling, boundary). `moments` with L = 0 and a
# group of 4 sites exits 1 ("degenerate group spectrum"), a known package
# defect; it stays in the mix and counts as failed.
# The 21 operations (about 7.7 s a round at reference speed) fall into cost
# bands: eight cheap 8-site commands (20-45 ms), five middle ones (75-110
# ms), two 9-site ones (150-230 ms), three more 9-site ones (390-470 ms) and
# the three 10-site ones (0.9-2.6 s). The median lands in the middle of the
# middle band and p75 inside the upper 9-site band, not on a cliff between
# bands, so neither jumps when the host's speed shifts a sample.
_ORACLE_MIX = (
    ("spectrum", 8, None, "L0", "open"),
    ("spectrum", 8, None, "L0", "periodic"),
    ("spectrum", 8, None, "KL", "periodic"),
    ("moments", 8, 2, "L0", "open"),
    ("rho", 8, 2, "KL", "open"),
    ("rho", 8, 2, "L0", "open"),
    ("rho", 8, 4, "L0", "open"),
    ("rho", 8, 4, "KL", "open"),
    ("moments", 8, 4, "L0", "open"),
    ("moments", 8, 4, "KL", "open"),
    ("moments", 8, 2, "KL", "open"),
    ("gaussian", 8, 4, "KL", "open"),
    ("gaussian", 8, 2, "L0", "open"),
    ("spectrum", 9, None, "L0", "periodic"),
    ("rho", 9, 3, "L0", "open"),
    ("moments", 9, 3, "KL", "open"),
    ("gaussian", 9, 3, "L0", "open"),
    ("gaussian", 9, 3, "KL", "open"),
    ("spectrum", 10, None, "L0", "open"),
    ("rho", 10, 5, "L0", "open"),
    ("gaussian", 10, 5, "L0", "open"),
)


def oracle_round(rng: random.Random) -> list[Op]:
    ops = [_oracle_op(rng, cmd, s, g, c, b) for cmd, s, g, c, b in _ORACLE_MIX]
    rng.shuffle(ops)
    return ops


_ROUNDS = {"sweep": sweep_round, "point": point_round, "oracle": oracle_round}


def stream(workload: str, seed: int):
    """Endless seeded sequence of rounds; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _ROUNDS[workload](rng)
