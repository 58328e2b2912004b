"""Command line front end.

Subcommands: nmin (single-point criteria query), sweep (temperature sweep, csv
by default), figure (fixed parameter sets behind the standard log-log plots),
materials (Debye-temperature database and minimal physical lengths), oracle
(exact verification drivers). Kelvin, angstrom and the field B are converted
here, once (--jx/--jy into K and L); everything below the argument layer works
in dimensionless ratios, with spin-chain energies in units of B.

Exit codes: 0 success, 1 invalid parameters or files, 2 numerical failure
(quadrature, or a quantity that overflows or underflows the float range),
3 unsupported Ising coupling case.
"""
from __future__ import annotations

import argparse
import ctypes
import fnmatch
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .canonical import AccuracyParams
from .specfun import QuadratureError
from . import harmonic, ising, oracle
from .ising import IsingModel, UnsupportedCouplingError

__all__ = [
    "MaterialRecord",
    "cmd_nmin",
    "cmd_sweep",
    "cmd_figure",
    "cmd_materials",
    "cmd_oracle",
    "main",
    "entrypoint",
]

# a 100,000-point sweep takes 5-6 s and 80-100 MB (gapless Ising, json or csv, 2-vCPU VM)
_MAX_POINTS = 100_000


@dataclass(frozen=True)
class MaterialRecord:
    name: str
    theta_kelvin: float
    a0_angstrom: float

    def __post_init__(self) -> None:
        # a record's fields are scalars (see _json_pieces)
        if not isinstance(self.name, str):
            raise ValueError(f"material name must be a string, got {self.name!r}")
        if not self.name:
            raise ValueError("material name must be nonempty")
        for name in ("theta_kelvin", "a0_angstrom"):
            value = getattr(self, name)
            # a bool is an int; json reads 1e400 as inf, and 10^400 as an int
            # no float holds
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and 0 < value <= sys.float_info.max):
                raise ValueError(
                    f"material {self.name!r}: {name} must be a finite positive"
                    f" number, got {value!r}"
                )

    @property
    def a0_m(self) -> float:
        """The lattice constant in metres: every l_min is n_min * a0_m."""
        return self.a0_angstrom * 1e-10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags, but exit 2 is reserved here
    for numerical failures, so route usage problems through exit code 1."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes "-1e-3" and "-inf" for flags, so
        # "--K -1e-3" would lose its value; subparsers inherit this class
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$"
        )

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# json's C encoder, breaking the line between any two items as indent=2 does
# between two fields of a record inside a list
_encode_records = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_JSON_BATCH = 256  # records per encoder call: the largest piece of json text held


def _json_pieces(records):
    """json.dumps(records, indent=2) plus a newline for a list of records
    (dicts of scalars), in pieces of _JSON_BATCH records from json's C
    encoder: indent= would run the pure-Python one. Each field comes on its
    own line, indented as in the list; then each record's braces move onto
    lines of their own. An encoded string holds no raw newline and a scalar
    never ends in "}", so "},\\n    {" only ever joins two records."""
    seam = "\n  },\n  {\n    "
    for i in range(0, len(records), _JSON_BATCH):
        yield seam if i else "[\n  {\n    "
        yield _encode_records(records[i:i + _JSON_BATCH])[2:-2].replace("},\n    {", seam)
    yield "\n  }\n]\n" if records else "[]\n"


def _emit(args, payload, comments, header=None, human=None) -> int:
    """Write a computed result to --out (or stdout) in the chosen --format.

    payload is one record (a dict) or a list of them, and every value in a
    record is a scalar. json writes json.dumps(payload, indent=2): a list in
    pieces (_json_pieces), one record whole. csv and human are one stream
    of lines, each built as it is written: csv gives the comment lines, then
    the header columns (by default the first record's keys) of every record;
    human gives the given lines, and falls back to csv for a command that
    has none. The output file is opened only here, so a command that fails
    leaves it untouched.
    """
    if args.format == "json":
        pieces = (_json_pieces(payload) if isinstance(payload, list)
                  else [json.dumps(payload, indent=2) + "\n"])
    else:
        lines = human
        if args.format == "csv" or human is None:
            records = payload if isinstance(payload, list) else [payload]
            if header is None:
                header = list(records[0])
            lines = itertools.chain((f"# {line}" for line in comments), [",".join(header)],
                                    (",".join(_fmt(r[key]) for key in header) for r in records))
        pieces = (line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def _criteria(t_label: str, t: float, report) -> dict:
    """A new record of the temperature t and the group-size fields every
    criteria command reports; callers append their own fields."""
    return {
        t_label: t,
        "n_cond_const": report.n_cond_const,
        "n_linearity": report.n_linearity,
        "n_min": report.n_min,
        "binding": report.binding.value,
    }


def _acc_from_args(args) -> AccuracyParams:
    return AccuracyParams(alpha=args.alpha, delta=args.delta)


def _ising_from_args(args) -> IsingModel:
    kl_given = args.k_param is not None or args.l_param is not None
    j_given = args.jx is not None or args.jy is not None
    if kl_given and j_given:
        raise ValueError("give either --K/--L or --jx/--jy, not both")
    if not math.isfinite(args.b_field):
        raise ValueError(f"b_field must be finite, got {args.b_field!r}")
    if not args.b_field > 0:
        raise ValueError("b_field must be positive")
    if j_given:
        return IsingModel.from_couplings(args.b_field, args.jx or 0.0, args.jy or 0.0)
    return IsingModel(args.k_param or 0.0, args.l_param or 0.0)


# ---------------------------------------------------------------------------
# materials


def _load_materials(path) -> tuple[MaterialRecord, ...]:
    """The records of a --file, read on every call; None gives the packaged ones."""
    if path is None:
        return _packaged_materials()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("materials file must hold a JSON array")
    records = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ValueError("materials file entries must be objects")
        try:
            records.append(MaterialRecord(**entry))
        except TypeError as exc:
            raise ValueError(f"malformed material entry: {exc}") from exc
    return tuple(records)


@functools.cache
def _packaged_materials() -> tuple[MaterialRecord, ...]:
    with resources.as_file(resources.files("localtemp") / "data" / "materials.json") as path:
        return _load_materials(path)


def _material_by_name(records: tuple[MaterialRecord, ...], name: str) -> MaterialRecord:
    for record in records:
        if record.name == name:
            return record
    known = ", ".join(r.name for r in records)
    raise ValueError(f"unknown material {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# nmin


def cmd_nmin(args) -> int:
    acc = _acc_from_args(args)
    l_min = None
    if args.chain == "harmonic":
        report = harmonic.nmin(args.t_over_theta, acc)
        t_label, t_value = "t_over_theta", args.t_over_theta
        if args.name:
            material = _material_by_name(_load_materials(args.file), args.name)
            l_min = report.n_min * material.a0_m
    else:
        model = _ising_from_args(args)
        report = ising.nmin(args.t_over_b, acc, model)
        t_label, t_value = "t_over_b", args.t_over_b

    payload = _criteria(t_label, t_value, report)
    payload["c1_estimate"] = report.c1_estimate
    payload["intensive"] = report.intensive
    human = [
        f"{args.chain} chain at {t_label} = {_fmt(t_value)}",
        f"  n_cond_const = {report.n_cond_const}",
        f"  n_linearity  = {report.n_linearity}",
        f"  n_min        = {report.n_min}  (binding: {report.binding.value})",
        f"  c1_estimate  = {report.c1_estimate:.6e}"
        f"  (intensive: {'yes' if report.intensive else 'no'})",
    ]
    if l_min is not None:
        payload["l_min_m"] = l_min
        human.append(f"  l_min        = {_fmt(l_min)} m")
    comments = [f"localtemp nmin {args.chain}", f"alpha={args.alpha} delta={args.delta}"]
    return _emit(args, payload, comments, human=human)


# ---------------------------------------------------------------------------
# sweep


def _sweep_grid(args) -> np.ndarray:
    for name in ("tmin", "tmax"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite")
    if not args.tmin > 0:  # every grid point is a temperature
        raise ValueError("--tmin must be positive")
    if not args.tmin < args.tmax:
        raise ValueError("--tmin must be below --tmax")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if args.points > _MAX_POINTS:
        raise ValueError(f"--points must be at most {_MAX_POINTS}")
    if args.log:
        return np.geomspace(args.tmin, args.tmax, args.points)
    return np.linspace(args.tmin, args.tmax, args.points)


def _mean_energies(grid: np.ndarray, acc: AccuracyParams, model=None) -> list:
    """e_bar at every grid point of the harmonic chain (model None) or of an
    Ising model, from one quadrature pass, the sweep's only source of e_bar;
    0.0 where the criteria at acc cannot read it, which gives the same bounds."""
    if model is None:
        return harmonic.mean_energy_reduced(grid).tolist()
    beta_b = np.array([1.0 / t for t in grid.tolist()])
    e_bar = np.zeros(grid.size)
    if (binds := ising.e_bar_can_bind(model, acc, beta_b)).any():
        e_bar[binds] = ising.mean_energy_per_site(beta_b[binds], model)
    return e_bar.tolist()


def cmd_sweep(args) -> int:
    acc = _acc_from_args(args)
    grid = _sweep_grid(args)
    a0_m = None
    if args.chain == "harmonic" and args.name:
        a0_m = _material_by_name(_load_materials(args.file), args.name).a0_m
    model = _ising_from_args(args) if args.chain == "ising" else None

    rows = []
    for t, e_bar in zip(grid.tolist(), _mean_energies(grid, acc, model)):
        if model is None:
            report = harmonic.nmin(t, acc, e_bar)
        else:
            report = ising.nmin(t, acc, model, e_bar)
        row = _criteria("t_ratio", t, report)
        row["l_min_m"] = None if a0_m is None else report.n_min * a0_m
        rows.append(row)

    # json rows always carry l_min_m; the csv column needs a material
    header = ["t_ratio", "n_cond_const", "n_linearity", "n_min", "binding"]
    if a0_m is not None:
        header.append("l_min_m")
    comments = [
        f"localtemp sweep {args.chain}",
        f"alpha={_fmt(args.alpha)} delta={_fmt(args.delta)} tmin={_fmt(args.tmin)}"
        f" tmax={_fmt(args.tmax)} points={args.points} log={args.log}",
    ]
    if model is not None:
        comments.append(
            f"B={_fmt(args.b_field)} K={_fmt(model.k_param)} L={_fmt(model.l_param)}"
            f" case={model.coupling_case.value}"
        )
    return _emit(args, rows, comments, header=header)


# ---------------------------------------------------------------------------
# figure


# figure id -> (temperature column, grid ends, curves); each curve is
# (column, (K, L) of an Ising model or None for the harmonic chain,
# bound), evaluated on 200 log-spaced temperatures
_FIGURES = {
    "fig3": ("t_over_theta", (1e-4, 1e2), (
        ("cond_const", None, "cond_const"), ("linearity", None, "linearity"))),
    "fig4": ("t_over_b", (1e-2, 1e2), (
        ("cond_const_kl_0.1", (0.1, 0.1), "cond_const"),
        ("cond_const_kl_10", (10.0, 10.0), "cond_const"))),
    "fig5": ("t_over_b", (1e-3, 1e3), (
        ("cond_const_l_0.1", (0.0, 0.1), "cond_const"),
        ("linearity_l_0.1", (0.0, 0.1), "linearity"),
        ("cond_const_l_10", (0.0, 10.0), "cond_const"),
        ("linearity_l_10", (0.0, 10.0), "linearity"))),
    "fig6": ("t_over_b", (1e-3, 1e3), (
        ("isotropic_weak_k_0.1", (0.1, 0.0), "isotropic_weak"),
        ("linearity_k_0.1", (0.1, 0.0), "linearity"),
        ("cond_const_k_10", (10.0, 0.0), "cond_const"),
        ("linearity_k_10", (10.0, 0.0), "linearity"))),
}


def _curve(bound: str, model, grid: list, acc: AccuracyParams, e_bars: list) -> list:
    """The raw bound of a figure curve at every temperature of grid, one call
    per temperature; model is None for the harmonic chain."""
    if model is None:
        f = harmonic.cond_const_bound if bound == "cond_const" else harmonic.linearity_bound
        return [f(t, acc, e) for t, e in zip(grid, e_bars)]
    if bound == "cond_const":
        return [ising.cond_const_bound(t, acc, model, e) for t, e in zip(grid, e_bars)]
    if bound == "linearity":
        return [ising.linearity_bound(t, acc, model) for t in grid]
    return [ising.isotropic_weak_bound(t, model) for t in grid]


def cmd_figure(args) -> int:
    acc = AccuracyParams(alpha=10.0, delta=0.01)
    t_label, ends, curves = _FIGURES[args.id]
    grid = np.geomspace(*ends, 200)
    models = {kl: None if kl is None else IsingModel(*kl) for _, kl, _ in curves}
    e_bars = {kl: _mean_energies(grid, acc, m) for kl, m in models.items()}
    ts = grid.tolist()
    names = [t_label] + [name for name, _, _ in curves]
    columns = [ts] + [_curve(bound, models[kl], ts, acc, e_bars[kl]) for _, kl, bound in curves]
    rows = [dict(zip(names, cells)) for cells in zip(*columns)]
    comments = [f"localtemp figure {args.id}", "alpha=10.0 delta=0.01"]
    return _emit(args, rows, comments)


# ---------------------------------------------------------------------------
# materials


_MATERIALS_NOTE = (
    "note: commonly quoted length estimates for some materials (hot iron,"
    " carbon near room temperature) run about two orders of magnitude above"
    " these formula-derived values; see the README for discussion."
)


def _describe(r: MaterialRecord) -> str:
    return f"{r.name}: Theta = {_fmt(r.theta_kelvin)} K, a0 = {_fmt(r.a0_angstrom)} A"


def cmd_materials(args) -> int:
    records = _load_materials(args.file)
    if args.name is None:
        return _emit(
            args,
            [asdict(r) for r in records],
            ["localtemp materials"],
            header=[f.name for f in fields(MaterialRecord)],
            human=[_describe(r) for r in records],
        )

    material = _material_by_name(records, args.name)
    if args.temp_kelvin is None:
        raise ValueError("--temp-kelvin is required with --name")
    if not (args.temp_kelvin > 0 and math.isfinite(args.temp_kelvin)):
        raise ValueError("--temp-kelvin must be positive and finite")
    acc = _acc_from_args(args)
    t = args.temp_kelvin / material.theta_kelvin
    report = harmonic.nmin(t, acc)
    l_min = report.n_min * material.a0_m
    payload = {
        **asdict(material),
        "temp_kelvin": args.temp_kelvin,
        **_criteria("t_over_theta", t, report),
        "l_min_m": l_min,
    }
    human = [
        _describe(material),
        f"  T = {_fmt(args.temp_kelvin)} K  (T/Theta = {_fmt(t)})",
        f"  n_min = {report.n_min}  (binding: {report.binding.value})",
        f"  l_min = {_fmt(l_min)} m",
        _MATERIALS_NOTE,
    ]
    return _emit(args, payload, [f"localtemp materials {material.name}"], human=human)


# ---------------------------------------------------------------------------
# oracle drivers


def _oracle_report(args):
    model = _ising_from_args(args)
    if args.oracle_cmd == "spectrum":
        return oracle.spectrum_check(args.sites, model, args.boundary)
    if args.oracle_cmd == "moments":
        return oracle.moments_check(args.sites, args.groups, model)
    if args.oracle_cmd == "gaussian":  # w_a does not depend on the temperature
        return oracle.skewness_by_groups(args.sites, args.groups, model)
    return oracle.rho_diag_check(args.sites, args.groups, model, args.beta_b)


def cmd_oracle(args) -> int:
    if args.oracle_cmd in ("gaussian", "rho") and not (
        args.beta_b > 0 and math.isfinite(args.beta_b)
    ):
        raise ValueError("--beta-b must be positive and finite")
    with np.errstate(all="ignore"):  # the _Report check names an overflow
        report = _oracle_report(args)
    if isinstance(report, tuple):  # gaussian: one row per group count
        rows = [asdict(row) for row in report]
    else:
        rows = [
            {"quantity": f.name, "value": getattr(report, f.name)}
            for f in fields(report)
            if getattr(report, f.name) is not None
        ]
    human = ["  ".join(_fmt(v) for v in row.values()) for row in rows]
    return _emit(args, rows, [f"localtemp oracle {args.oracle_cmd}"], human=human)


# ---------------------------------------------------------------------------
# parser


def _add_acc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=10.0)
    parser.add_argument("--delta", type=float, default=0.01)


def _add_ising_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--K", dest="k_param", type=float, default=None)
    parser.add_argument("--L", dest="l_param", type=float, default=None)
    parser.add_argument("--B", dest="b_field", type=float, default=1.0)
    parser.add_argument("--jx", type=float, default=None)
    parser.add_argument("--jy", type=float, default=None)


def _add_format_flags(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--format", choices=("human", "csv", "json"), default=default)
    parser.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="localtemp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    nmin = sub.add_parser("nmin", help="criteria at a single temperature")
    nmin_sub = nmin.add_subparsers(dest="chain", required=True)
    nh = nmin_sub.add_parser("harmonic")
    nh.add_argument("--t-over-theta", dest="t_over_theta", type=float, required=True)
    nh.add_argument("--name", default=None, help="material supplying a0 for l_min")
    nh.add_argument("--file", default=None)
    _add_acc_flags(nh)
    _add_format_flags(nh, "human")
    nh.set_defaults(func=cmd_nmin)
    ni = nmin_sub.add_parser("ising")
    ni.add_argument("--t-over-b", dest="t_over_b", type=float, required=True)
    _add_ising_flags(ni)
    _add_acc_flags(ni)
    _add_format_flags(ni, "human")
    ni.set_defaults(func=cmd_nmin)

    sweep = sub.add_parser("sweep", help="temperature sweep (csv, json or human)")
    sweep_sub = sweep.add_subparsers(dest="chain", required=True)
    for chain in ("harmonic", "ising"):
        sp = sweep_sub.add_parser(chain)
        sp.add_argument("--tmin", type=float, required=True)
        sp.add_argument("--tmax", type=float, required=True)
        sp.add_argument("--points", type=int, required=True)
        sp.add_argument("--log", action="store_true")
        if chain == "harmonic":
            sp.add_argument("--name", default=None)
            sp.add_argument("--file", default=None)
        else:
            _add_ising_flags(sp)
        _add_acc_flags(sp)
        _add_format_flags(sp, "csv")
        sp.set_defaults(func=cmd_sweep)

    figure = sub.add_parser("figure", help="fixed-parameter curve data")
    figure.add_argument("id", choices=tuple(_FIGURES))
    _add_format_flags(figure, "csv")
    figure.set_defaults(func=cmd_figure)

    materials = sub.add_parser("materials", help="material database and lengths")
    materials.add_argument("--file", default=None)
    materials.add_argument("--name", default=None)
    materials.add_argument("--temp-kelvin", dest="temp_kelvin", type=float, default=None)
    _add_acc_flags(materials)
    _add_format_flags(materials, "human")
    materials.set_defaults(func=cmd_materials)

    orc = sub.add_parser("oracle", help="exact verification drivers")
    orc_sub = orc.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("spectrum", "moments", "gaussian", "rho"):
        op = orc_sub.add_parser(name)
        op.add_argument("--sites", type=int, required=True)
        if name == "spectrum":
            op.add_argument("--boundary", choices=("open", "periodic"), default="open")
        else:
            op.add_argument("--groups", type=int, required=True)
        if name in ("gaussian", "rho"):
            no_effect = "checked, but without effect: w_a does not depend on the temperature"
            op.add_argument("--beta-b", dest="beta_b", type=float, default=1.0,
                            help=no_effect if name == "gaussian" else None)
        _add_ising_flags(op)
        _add_format_flags(op, "human")
        op.set_defaults(func=cmd_oracle)

    return parser


# glibc's mallopt parameters (malloc.h) and the values its dynamic rule ends
# in on 64-bit: DEFAULT_MMAP_THRESHOLD_MAX and twice that
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Start glibc's allocator where its dynamic mmap and trim thresholds end.

    By default glibc mmaps a large block and hands it back to the kernel on
    free, raising the threshold only after such a free, so a process that
    keeps allocating arrays of similar size faults their pages in again and
    again. Both thresholds are set: setting either one alone switches off
    the dynamic rule for the other. Skipped, silently, off glibc, where a
    MALLOC_*_ variable or a glibc.malloc tunable already sets the allocator
    (the deployment's choice wins), and where mallopt refuses the value.
    Called once per process, from main(): library callers keep glibc's
    defaults.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if "glibc.malloc." in tunables or fnmatch.filter(os.environ, "MALLOC_*_"):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr, name or symbol
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() of a process and shared by the
    rest: parsing reads the tree and never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _pin_malloc_thresholds()
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"localtemp: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UnsupportedCouplingError as exc:
        print(f"localtemp: unsupported coupling: {exc}", file=sys.stderr)
        return 3
    # LinAlgError (an eigensolver that does not converge) is a ValueError
    except (QuadratureError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"localtemp: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"localtemp: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
