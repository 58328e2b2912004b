"""Benchmark runner for localtemp.

    python3 benchmarks/run.py --workload sweep|point|oracle|all --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]

Runs from the root of a checkout and imports the package from `src/`. One
process, one client, a closed loop: each operation is one `localtemp`
command run in-process through `localtemp.cli.main`, checked, then the next
one starts. BLAS is pinned to BLAS_THREADS threads for this process.

--trace 0 measures the end-to-end metrics for --seconds seconds (whole
rounds, see workloads.py). Their times are scaled to a reference host speed
with host_probe(), read before and after each operation. --trace 1 is the separate traced run: a fixed
sample of every workload, once untraced and once traced, plus an oracle
stage ladder at 6/8/10 sites; it reports per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines above it are the
human-readable report. --workload all runs each workload in its own process
and prints every report. --out appends a full record (result, details,
environment) to a JSON-lines file that compare.py reads.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

UNIT_NAMES = {"sweep": "temperature points", "point": "queries", "oracle": "product states"}
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Each workload reads its tail at one percentile: the highest of TAIL_GRID
# that still has ten samples beyond it in a 50 s run on a host at half the
# reference speed. A fixed percentile cannot jump to another cost band when
# the host's speed changes the sample count; shorter runs fall back to
# tail_percentile().
TAIL_P = {"sweep": 95.0, "point": 99.0, "oracle": 75.0}
SETUP_REPEATS = 7
WARMUP_S = 1.0
LADDER_SITES = (6, 8, 10)
POINT_TRACE_ROUNDS = 16
PROBE_LOOPS = 20_000
# host_probe() at full speed on the reference host, a 2-vCPU Intel Xeon VM
PROBE_REF_S = 1.1e-3

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import localtemp.cli as cli; cli.build_parser()"
)


# ---------------------------------------------------------------------------
# executing and judging one operation


def execute(op) -> tuple[int | str, float, str, str]:
    """Run one command in-process; returns (exit code, seconds, stdout, stderr).

    An exception escaping main() is reported as the code "exception".
    """
    import localtemp.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = "exception"
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class Tally:
    """Attempted, failed, completed units and failures grouped by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.done: list[int] = []
        self.failures: Counter = Counter()
        self.by_kind: defaultdict = defaultdict(list)
        self.unknown = 0

    def add(self, op, code, elapsed, out, err, checker, probe: float = PROBE_REF_S) -> None:
        """Judge one operation; probe is the host_probe() reading around it."""
        from checks import known_failure

        self.attempted += 1
        self.times.append(elapsed)
        self.scaled.append(elapsed * PROBE_REF_S / probe)
        self.by_kind[op.kind].append(elapsed)
        reason = checker.check(op, code, out, err)
        self.done.append(op.units if reason is None else 0)
        if reason is None:
            return
        self.failed += 1
        kf = known_failure(op, reason)
        if kf is None:
            self.unknown += 1
        self.failures[(op.kind, reason, kf is not None)] += 1

    @property
    def correct(self) -> bool:
        return self.unknown == 0

    def failure_lines(self) -> list[str]:
        lines = []
        for (kind, reason, known), count in sorted(self.failures.items()):
            tag = "known defect" if known else "UNKNOWN"
            lines.append(f"  FAILED {count:5d} x {kind}: {reason} [{tag}]")
        return lines


# ---------------------------------------------------------------------------
# end-to-end metrics


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation percentile of already sorted values."""
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_GRID with at least ten samples beyond it."""
    best = TAIL_GRID[0]
    for p in TAIL_GRID:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: a reading of the host's speed.

    A shared host changes speed in phases of seconds to minutes; in a slow
    phase this loop reads 1.5x to 2x its floor, and the operations slow down
    with it. The loop does not touch the package, so a reading means the
    same on every commit.
    """
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def probed(fn, *args):
    """(result of fn, mean host_probe() reading just before and after it)."""
    before = host_probe()
    result = fn(*args)
    return result, (before + host_probe()) / 2.0


def setup_sample() -> tuple[float, float]:
    """Wall time of one fresh interpreter that imports localtemp.cli and
    builds the parser, and that time scaled to the reference host speed."""
    def once() -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], check=True,
                       env=os.environ.copy())
        return perf_counter() - start

    wall, probe = probed(once)
    return wall, wall * PROBE_REF_S / probe


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(workload: str, seed: int) -> None:
    """Run untimed operations from a separate stream until WARMUP_S passes,
    so imports, LAPACK set-up and first-call costs are paid before timing."""
    from workloads import stream

    start = perf_counter()
    for op in next(stream(workload, -1 - seed)):
        execute(op)
        if perf_counter() - start > WARMUP_S:
            break


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from checks import Checker
    from workloads import stream

    checker = Checker()
    setup_sample()  # unrecorded: puts the files in the page cache, compiles them
    warm_up(workload, seed)
    tally = Tally()
    ends = []  # tally index where each round ends
    setup = []
    gen = stream(workload, seed)
    start = perf_counter()
    while perf_counter() - start < seconds:  # whole rounds keep the mix fixed
        for op in next(gen):
            result, probe = probed(execute, op)
            tally.add(op, *result, checker, probe=probe)
        ends.append(tally.attempted)
        # set-up samples spread over the run see the same machine as the ops
        if perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_sample())
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())

    times = sorted(tally.scaled)
    # one straggling operation moves one round's rate, not the median
    rates = [sum(tally.done[lo:hi]) / sum(tally.scaled[lo:hi])
             for lo, hi in zip([0] + ends, ends)]
    p_tail = min(TAIL_P[workload], tail_percentile(len(times)))
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, p_tail) * 1e3, "ms"),
        "units_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "rounds": len(ends),
        "samples": len(times),
        "tail_percentile": p_tail,
        "tail_beyond": sum(1 for t in times if t > percentile(times, p_tail)),
        "units": sum(tally.done),
        "unit": UNIT_NAMES[workload],
        "busy_s": sum(times),
        "wall_busy_s": sum(tally.times),
        "wall_op_p50_ms": statistics.median(tally.times) * 1e3,
        "wall_setup_s": statistics.median(wall for wall, _ in setup),
        "host_speed": sum(times) / sum(tally.times),
        "failed_frac": tally.failed / tally.attempted,
        "setup_samples_s": setup,
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(tally.by_kind.items())},
        "failures": [
            {"kind": k, "reason": r, "known": known, "count": c}
            for (k, r, known), c in sorted(tally.failures.items())
        ],
    }
    return _result(tally, metrics), details | {"report": _report(workload, metrics, details, tally)}


def _result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _report(workload: str, metrics: dict, d: dict, tally: Tally) -> list[str]:
    lines = [
        f"workload {workload}: {d['samples']} operations in {d['rounds']} rounds,"
        f" {d['wall_busy_s']:.2f} s busy; times below are scaled to the reference"
        f" host speed (this run: {d['host_speed']:.3f} x reference)",
        f"  setup_s      {metrics['setup_s'][0]:12.4f} s    "
        f"(median of {SETUP_REPEATS} fresh interpreters importing localtemp.cli;"
        f" wall {d['wall_setup_s']:.4f} s)",
        f"  op_p50_ms    {metrics['op_p50_ms'][0]:12.4f} ms   (n={d['samples']};"
        f" wall {d['wall_op_p50_ms']:.4f} ms)",
        f"  op_tail_ms   {metrics['op_tail_ms'][0]:12.4f} ms   "
        f"(p{d['tail_percentile']:g}, n={d['samples']}, {d['tail_beyond']} samples beyond)",
        f"  units_per_s  {metrics['units_per_s'][0]:12.4f} 1/s  "
        f"(median over {d['rounds']} rounds; {d['units']} {d['unit']} completed)",
        f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:12.4f} MB",
        f"  failed_frac  {d['failed_frac']:12.4f}      "
        f"({tally.failed} of {tally.attempted} operations failed)",
    ]
    return lines + tally.failure_lines()


# ---------------------------------------------------------------------------
# traced run


def _ladder_ops(sites: int):
    from workloads import Op

    groups = str(sites // 2)
    base = ("--sites", str(sites), "--groups", groups)
    return [
        Op("oracle moments", ("oracle", "moments") + base + ("--K", "0.5", "--L", "0.5",
                                                              "--format", "json"),
           2**sites, 0, {"cmd": "moments", "sites": sites, "groups": sites // 2,
                         "group_size": 2, "K": 0.5, "L": 0.5, "boundary": "open"}),
        Op("oracle rho", ("oracle", "rho") + base + ("--K", "0.3", "--L", "0.0",
                                                      "--beta-b", "1.0", "--format", "json"),
           2**sites, 0, {"cmd": "rho", "sites": sites, "groups": sites // 2,
                         "group_size": 2, "K": 0.3, "L": 0.0, "beta_b": 1.0,
                         "boundary": "open"}),
    ]


def trace_sample(workload: str, seed: int) -> list:
    from workloads import stream

    gen = stream(workload, seed)
    rounds = POINT_TRACE_ROUNDS if workload == "point" else 1
    return [op for _ in range(rounds) for op in next(gen)]


def _pass(ops, tally, checker, ground, tracer=None) -> float:
    """Run ops once from a cold ground-energy cache; returns busy seconds.

    ground is the package's cached ground-energy function, captured before
    any wrapper is installed, so the cache and its statistics can be reset.
    """
    if hasattr(ground, "cache_clear"):
        ground.cache_clear()
    busy = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        code, elapsed, out, err = execute(op)
        busy += elapsed
        tally.add(op, code, elapsed, out, err, checker)
    return busy


def _criteria_metrics(spans, stats, cache) -> dict:
    from tracing import calls_under

    def per_point(name: str, parent: str) -> float:
        points = stats[parent].calls
        return calls_under(spans, name, parent) / points if points else 0.0

    gapless = [s for s in spans if s[0] == "ising.mean_energy_per_site" and s[5]]
    gapped = [s for s in spans if s[0] == "ising.mean_energy_per_site" and not s[5]]
    hits, misses = cache
    return {
        "specfun.integrate.calls": (stats["specfun.integrate"].calls, "count"),
        "specfun.integrate.evals": (
            sum(s[5] for s in spans if s[0] == "specfun.integrate"), "count"),
        "specfun.integrate.self_s": (stats["specfun.integrate"].self_s, "s"),
        "harmonic.mean_energy_reduced.calls_per_point": (
            per_point("harmonic.mean_energy_reduced", "harmonic.nmin"), "calls/point"),
        "harmonic.mean_energy_reduced.s": (stats["harmonic.mean_energy_reduced"].total_s, "s"),
        "harmonic.nmin.s": (stats["harmonic.nmin"].total_s, "s"),
        "ising.mean_energy_per_site.calls_per_point": (
            per_point("ising.mean_energy_per_site", "ising.nmin"), "calls/point"),
        "ising.mean_energy_per_site.gapped_s": (sum(s[2] - s[1] for s in gapped), "s"),
        "ising.mean_energy_per_site.gapless_s": (sum(s[2] - s[1] for s in gapless), "s"),
        "ising.linearity_bound.calls_per_point": (
            per_point("ising.linearity_bound", "ising.nmin"), "calls/point"),
        "ising.ground_energy_per_site.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "ising.ground_energy_per_site.lookups": (hits + misses, "count"),
        "canonical.build_report.calls": (stats["canonical.build_report"].calls, "count"),
    }


def _dense_bytes(spans) -> int:
    return max((s[5] for s in spans if s[0].startswith("oracle.") and s[5]), default=0)


def _oracle_metrics(spans, stats) -> dict:
    return {
        "oracle.build_hamiltonian.calls": (stats["oracle.build_hamiltonian"].calls, "count"),
        "oracle.build_hamiltonian.self_s": (stats["oracle.build_hamiltonian"].self_s, "s"),
        "oracle.DenseThermalSystem.solve.s": (
            stats["oracle.DenseThermalSystem.solve"].total_s, "s"),
        "oracle.product_basis.self_s": (stats["oracle.product_basis"].self_s, "s"),
        "oracle.w_a_distribution.calls": (stats["oracle.w_a_distribution"].calls, "count"),
        "oracle.w_a_distribution.s": (stats["oracle.w_a_distribution"].total_s, "s"),
        "oracle.product_statistics.calls": (stats["oracle.product_statistics"].calls, "count"),
        "oracle.rho_product_diag.s": (stats["oracle.rho_product_diag"].total_s, "s"),
        "oracle.dense_bytes_computed": (_dense_bytes(spans), "B"),
    }


def _workload_layers(workload: str, ops, tally, checker) -> dict:
    from localtemp.ising import ground_energy_per_site as ground
    from tracing import Tracer, summarize

    untraced = _pass(ops, tally, checker, ground)
    with Tracer() as tracer:
        traced = _pass(ops, tally, checker, ground, tracer)
    info = ground.cache_info() if hasattr(ground, "cache_info") else None
    cache = (info.hits, info.misses) if info else (0, 0)
    spans = tracer.spans
    stats = summarize(spans)
    if workload == "oracle":
        layer = {
            "specfun.integrate.calls": (stats["specfun.integrate"].calls, "count"),
            "canonical.rho_diag.calls": (stats["canonical.rho_diag"].calls, "count"),
            "canonical.rho_diag.s": (stats["canonical.rho_diag"].total_s, "s"),
        } | _oracle_metrics(spans, stats)
    else:
        layer = _criteria_metrics(spans, stats, cache)
    layer |= {
        "cli.build_parser.s": (stats["cli.build_parser"].total_s, "s"),
        "cli.main.self_s": (stats["cli.main"].self_s, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    }
    return {f"{workload}.{k}": v for k, v in layer.items()}


def _ladder_layers(tally, checker) -> dict:
    from localtemp.ising import ground_energy_per_site as ground
    from tracing import Tracer, summarize

    out = {}
    for sites in LADDER_SITES:
        with Tracer() as tracer:
            _pass(_ladder_ops(sites), tally, checker, ground, tracer)
        stats = summarize(tracer.spans)
        stage = {
            "oracle.build_hamiltonian.self_s": (stats["oracle.build_hamiltonian"].self_s, "s"),
            "oracle.DenseThermalSystem.solve.s": (
                stats["oracle.DenseThermalSystem.solve"].total_s, "s"),
            "oracle.product_basis.self_s": (stats["oracle.product_basis"].self_s, "s"),
            "oracle.w_a_distribution.s": (stats["oracle.w_a_distribution"].total_s, "s"),
            "oracle.rho_product_diag.s": (stats["oracle.rho_product_diag"].total_s, "s"),
            "cli.main.self_s": (stats["cli.main"].self_s, "s"),
            "oracle.dense_bytes_computed": (_dense_bytes(tracer.spans), "B"),
        }
        out |= {f"ladder.n{sites}.{k}": v for k, v in stage.items()}
    return out


def traced_run(seed: int) -> tuple[dict, dict]:
    from checks import Checker
    from workloads import WORKLOADS

    checker = Checker()
    tally = Tally()
    metrics: dict = {}
    for workload in WORKLOADS:
        metrics |= _workload_layers(workload, trace_sample(workload, seed), tally, checker)
    metrics |= _ladder_layers(tally, checker)
    width = max(len(k) for k in metrics)
    report = ["traced run: per-layer metrics (counts repeat exactly for a seed)"]
    report += [f"  {k:<{width}} {v:16.6g} {u}" for k, (v, u) in metrics.items()]
    report += tally.failure_lines()
    return _result(tally, metrics), {"report": report}


# ---------------------------------------------------------------------------
# environment and entry point


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "point", "oracle", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append a JSON-lines record here")
    return parser.parse_args(argv)


def _run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "localtemp" / "cli.py").is_file():
        print(f"run.py: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.trace:
        result, details = traced_run(args.seed)
    else:
        result, details = timed_run(args.workload, args.seed, args.seconds)
    env = environment(args.seed)
    report = details.pop("report")
    report.append("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, "details": details, "env": env}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
