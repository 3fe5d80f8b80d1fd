"""Command-line front end: spectral tables, asymptotic profiles, direct
simulation, and simulation-vs-asymptotics comparison.

Every command writes CSV/JSON artifacts plus a manifest.json into the
output directory and is fully deterministic (identical inputs produce
byte-identical CSVs).  Exit codes: 0 ok, 2 io/config, 3 region or
precondition violation, 4 blow-up, 5 numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .branches import BranchDomainError, BranchPointError, CutSide, _check_amplitude
from .errors import (
    BlowupDetected,
    InconclusiveWinding,
    NnlstepError,
    PoleOnContour,
    RegionMismatch,
    SingularStation,
    SolitonPole,
    ToleranceNotMet,
    WindingOutOfRange,
)
from .nnls_sim import Grid, SimConfig, SolitonSpec, compare, evolve, init_field
from .phase import Direction, RegionTag, classify
from .rh_asymptotics import (
    central_params,
    modulated_params,
    q_central,
    q_modulated,
    q_soliton,
    q_transition,
    transition_params,
)
from .spectral import (
    InitialData,
    StepProfile,
    check_assumptions,
    jost_spectral,
    reflection,
    soliton_spectral,
    step_spectral,
)

_EXIT_OK = 0
_EXIT_IO = 2
_EXIT_REGION = 3
_EXIT_BLOWUP = 4
_EXIT_TOLERANCE = 5


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) if isinstance(c, float) else c for c in row])


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    manifest = {
        "command": args.command,
        "config": getattr(args, "config", None),
        "output_directory": str(out_dir),
        "deterministic": True,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise CliError("config", f"bad --k-grid {spec!r}, expected lo:hi:n")
    if n < 1 or not (np.isfinite([lo, hi]).all() and lo < hi):
        raise CliError("config", f"bad --k-grid {spec!r}")
    return np.linspace(lo, hi, n)


def _parse_floats(spec: str) -> list[float]:
    try:
        values = [float(s) for s in spec.split(",") if s != ""]
    except ValueError:
        values = []
    if not values or not np.isfinite(values).all():
        raise CliError("config", f"bad numeric list {spec!r}")
    return values


def _load_initial_csv(path: str, A: float) -> InitialData:
    _check_amplitude(A)
    p = Path(path)
    if not p.is_file():
        raise CliError("io", f"input CSV not found: {path}")
    xs, res, ims = [], [], []
    with p.open() as fh:
        rows = [(i, row) for i, row in enumerate(csv.reader(fh))
                if any(c.strip() for c in row)]  # blank rows are skipped
        for j, (i, row) in enumerate(rows):
            if j == 0 and any(not _is_number(c) for c in row):
                continue  # header: the first row that is not blank
            if len(row) < 3:
                raise CliError("io", f"row {i} of {path} has fewer than 3 columns")
            try:
                xs.append(float(row[0]))
                res.append(float(row[1]))
                ims.append(float(row[2]))
            except ValueError:
                raise CliError("config", f"row {i} of {path} is not numeric")
    if len(xs) < 2:
        raise CliError("io", f"{path} contains fewer than 2 samples")
    if not np.all(np.isfinite([xs, res, ims])):
        raise CliError("io", f"{path} contains a non-finite value")
    order = np.argsort(xs)
    xs, res, ims = (np.asarray(v)[order].tolist() for v in (xs, res, ims))

    def sampler(x):
        # np.interp's formula, on lists rather than arrays for speed.
        if x <= xs[0]:
            return -A
        if x >= xs[-1]:
            return A
        j = bisect.bisect_right(xs, x) - 1
        dx, t = xs[j + 1] - xs[j], x - xs[j]
        return complex((res[j + 1] - res[j]) / dx * t + res[j],
                       (ims[j + 1] - ims[j]) / dx * t + ims[j])

    return InitialData(sampler=sampler, decay_width=max(abs(xs[0]), abs(xs[-1])))


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _datum(kind: str, A: float, spec: dict):
    """(datum, build) of one kind: the step, soliton or sampled datum, whose
    ``spec`` holds its R, phi0 or CSV path, and ``build(ks=())``, which
    makes its scattering data; ``ks`` are the Jost sample points of a
    sampled datum."""
    if kind == "step":
        q0 = StepProfile(A=A, R=float(spec.get("R", 0.0)))
        return q0, lambda ks=(): step_spectral(q0)
    if kind == "soliton":
        q0 = SolitonSpec(A=A, phi0=float(spec.get("phi0", 0.0)))
        return q0, lambda ks=(): soliton_spectral(A, q0.phi0)
    if kind == "csv":
        q0 = _load_initial_csv(spec["path"], A)
        return q0, lambda ks=(): jost_spectral(q0, A, list(ks))
    raise CliError("config", f"unknown initial kind {kind!r}")


def _flag_datum(args):
    """(datum, build) of the source flags shared by subcommands."""
    if args.phi0 is not None and not args.soliton:
        raise CliError("config", "--phi0 is the soliton's phase; it needs --soliton")
    kind = "soliton" if args.soliton else "step" if args.input_csv is None else "csv"
    spec = {"R": args.step_R, "phi0": args.phi0, "path": args.input_csv}
    return _datum(kind, args.A, {k: v for k, v in spec.items() if v is not None})


def cmd_spectral(args, out: Path) -> None:
    A = args.A
    _, build = _flag_datum(args)  # refuses a bad A before the default grid is formed from it
    ks = _parse_grid(args.k_grid) if args.k_grid else np.linspace(1.05 * A, 10 * A, 200)
    sd = build(ks)
    rows = []
    for k in ks:
        sides = (CutSide.ABOVE, CutSide.BELOW) if -A < k < A else (CutSide.OFF,)
        for side in sides:
            a1, a2, b = sd.at([complex(k)], side)[0]
            r1, r2 = reflection(sd, complex(k), side)
            rows.append(
                [
                    float(k),
                    side.value,
                    a1.real, a1.imag, a2.real, a2.imag, b.real, b.imag,
                    r1.real, r1.imag, r2.real, r2.imag,
                ]
            )
    _write_csv(
        out / "spectral_data.csv",
        [
            "k", "side",
            "re_a1", "im_a1", "re_a2", "im_a2", "re_b", "im_b",
            "re_r1", "im_r1", "re_r2", "im_r2",
        ],
        rows,
    )
    report = check_assumptions(sd)
    # Every field of the report, complex as [re, im]; json writes notes as a list.
    payload = {
        name: [v.real, v.imag] if isinstance(v, complex) else v
        for name, v in dataclasses.asdict(report).items()
    }
    payload["passed"] = report.passed
    (out / "assumptions_report.json").write_text(json.dumps(payload, indent=2) + "\n")


def _ray_family(central: bool):
    """(params, profile) of the central or the modulated rays."""
    return (central_params, q_central) if central else (modulated_params, q_modulated)


def cmd_asym(args, out: Path) -> None:
    ts = _parse_floats(args.t)
    if min(ts) <= 0:
        raise CliError("config", f"bad --t {args.t!r}, every time must be > 0")
    points = _parse_floats(args.x if args.x is not None else args.xi)
    _, build = _flag_datum(args)
    sd = build()
    rows = []
    if args.x is not None:
        params = transition_params(sd)
        for x in points:
            for t in ts:
                q = q_transition(sd, x, t, params=params)
                rows.append([x, t, q.real, q.imag, abs(q),
                             RegionTag.TRANSITION_AXIS.value, "inf"])
    else:
        central = (RegionTag.CENTRAL_PLUS, RegionTag.CENTRAL_MINUS)
        for xi in points:
            # The family's params refuse every other region, boundaries included.
            params_at, profile = _ray_family(classify(Direction(xi, sd.A)) in central)
            p = params_at(sd, xi)
            exponent = _fmt(p.error_exponent) if np.isfinite(p.error_exponent) else "inf"
            for t in ts:
                q = profile(sd, xi, t, params=p)
                rows.append([4.0 * xi * t, t, q.real, q.imag, abs(q), p.region.value, exponent])
    _write_csv(
        out / "asym.csv",
        ["x", "t", "re_q", "im_q", "abs_q", "region", "error_exponent"],
        rows,
    )
    if args.gnuplot_script:
        (out / "plot.gp").write_text(
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"plot '{out / 'asym.csv'}' using 1:5 with lines title '|q|'\n"
        )


def _load_sim_config(path: str):
    """(A, sim, field, kind, datum, build) of a JSON simulation config."""
    p = Path(path)
    if not p.is_file():
        raise CliError("io", f"config not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError("config", f"bad JSON in {path}: {exc}")
    try:
        A = float(cfg["A"])
        if int(cfg["N"]) != float(cfg["N"]):
            raise ValueError(f"N must be an integer, got {cfg['N']}")
        grid = Grid(L=float(cfg["L"]), N=int(cfg["N"]))
        sim = SimConfig(
            dt=float(cfg["dt"]),
            t_end=float(cfg["t_end"]),
            record_times=tuple(float(t) for t in cfg.get("record_times", [cfg["t_end"]])),
        )
        kind = cfg["initial"]["kind"]
        q0, build = _datum(kind, A, cfg["initial"])
        field = init_field(q0, grid)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError("config", f"invalid simulation config: {exc}")
    # A dt past the stability bound is a precondition error (exit 3), and
    # it is refused before `compare` builds any scattering data.
    sim.check_cfl(grid)
    return A, sim, field, kind, q0, build


def cmd_simulate(args, out: Path) -> None:
    A, sim, field, *_ = _load_sim_config(args.config)
    rows = ([fld.t, float(x), q.real, q.imag, abs(q)]
            for fld in evolve(field, sim, A) for x, q in zip(fld.grid.x, fld.values))
    _write_csv(out / "snapshots.csv", ["t", "x", "re_q", "im_q", "abs_q"], rows)


def cmd_compare(args, out: Path) -> None:
    A, sim, field, kind, q0, build = _load_sim_config(args.config)
    try:
        lo, hi = (float(s) for s in args.window.split(":"))
    except ValueError:
        raise CliError("config", f"bad --window {args.window!r}, expected lo:hi")
    if not (np.isfinite([lo, hi]).all() and lo < hi):
        raise CliError("config", f"bad --window {args.window!r}, need finite lo < hi")

    if args.predictor == "soliton":
        if kind != "soliton":
            raise CliError("config", f"--predictor soliton needs a soliton datum, not kind {kind!r}")
        predictor = lambda x, t: q_soliton(A, q0.phi0, x, t)
    elif args.predictor == "transition":
        sd = build()
        params = transition_params(sd)
        predictor = lambda x, t: q_transition(sd, x, t, params=params)
    else:
        sd = build()
        params_at, profile = _ray_family(args.predictor == "central")

        def predictor(x, t):
            xi = x / (4.0 * t)
            return profile(sd, xi, t, params=params_at(sd, xi))

    snapshots = evolve(field, sim, A)
    table = compare(snapshots, predictor, (lo, hi))
    rows = [
        [t, s, l2, table.fitted_exponent]
        for t, s, l2 in zip(table.times, table.sup_errors, table.l2_errors)
    ]
    _write_csv(out / "error_table.csv", ["t", "sup_err", "l2_err", "fitted_exponent"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnlstep",
        description="Asymptotics and direct simulation for the nonlocal NLS "
        "equation with asymmetric step background",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--A", type=float, default=1.0, help="background amplitude A > 0")
    one = source.add_mutually_exclusive_group()
    one.add_argument("--step-R", type=float, default=0.0, help="pure-step jump location")
    one.add_argument("--soliton", action="store_true", help="use reflectionless one-soliton data")
    one.add_argument("--input-csv", default=None, help="CSV with columns x, re_q0, im_q0")
    source.add_argument("--phi0", type=float, help="soliton phase parameter (default 0)")

    p_spec = sub.add_parser("spectral", parents=[source, out],
                            help="tabulate scattering data and assumption checks")
    p_spec.add_argument("--k-grid", default=None, help="real k grid as lo:hi:n")
    p_spec.set_defaults(func=cmd_spectral)

    p_asym = sub.add_parser("asym", parents=[source, out],
                            help="evaluate long-time asymptotic profiles")
    where = p_asym.add_mutually_exclusive_group(required=True)
    where.add_argument("--xi", default=None, help="comma-separated ray directions xi = x/(4t)")
    where.add_argument("--x", default=None, help="comma-separated fixed stations (transition)")
    p_asym.add_argument("--t", required=True, help="comma-separated times")
    p_asym.add_argument("--gnuplot-script", action="store_true")
    p_asym.set_defaults(func=cmd_asym)

    p_sim = sub.add_parser("simulate", parents=[out],
                           help="run the direct solver from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[out],
                           help="simulate and compare against an asymptotic predictor")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--predictor", required=True,
                       choices=["modulated", "central", "transition", "soliton"])
    p_cmp.add_argument("--window", required=True, help="x window as lo:hi")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


# (types, kind, exit code): the first matching row decides; a CliError keeps its kind.
_ERROR_MAP = [
    ((CliError,), None, _EXIT_IO),
    ((FileNotFoundError, PermissionError, IsADirectoryError), "io", _EXIT_IO),
    ((BlowupDetected,), "blowup", _EXIT_BLOWUP),
    ((RegionMismatch, SingularStation, SolitonPole, WindingOutOfRange,
      BranchPointError, BranchDomainError, PoleOnContour), "region", _EXIT_REGION),
    ((ToleranceNotMet, InconclusiveWinding), "tolerance", _EXIT_TOLERANCE),
    ((NnlstepError,), "error", _EXIT_REGION),
    ((ValueError,), "precondition", _EXIT_REGION),
]


def main(argv=None) -> int:
    """Run one command into its output directory, then write manifest.json.
    An error of _ERROR_MAP prints the JSON {"kind", "message"} (and "t" for
    a blow-up) to stderr and returns its exit code, with no manifest."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the io/config code
        return int(exc.code) if exc.code else 0
    out = Path(args.out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("io", f"cannot create output directory: {exc}")
        args.func(args, out)
        _write_manifest(out, args)
    except Exception as exc:
        for d in made:  # a failed run removes the levels it made that are still empty
            with contextlib.suppress(OSError):
                d.rmdir()
        for types, kind, code in _ERROR_MAP:
            if isinstance(exc, types):
                payload = {"kind": kind or exc.kind, "message": str(exc)}
                if isinstance(exc, BlowupDetected):
                    payload["t"] = exc.t
                print(json.dumps(payload), file=sys.stderr)
                return code
        raise
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
