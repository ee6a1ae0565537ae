"""Command-line front end.

Subcommands: consistency, build, verify (boundary | duality | eigen),
scatter, reps.  Every run is deterministic given its flags (seeds included),
reports echo their full configuration plus a schema version, and exit codes
mean: 0 all expectations met (including failures that are the correct
outcome, like the pdp braid violation), 1 a scientific expectation was
violated, 2 bad usage.

Structured reports are JSON; sweep tables are comma-delimited text.  With
--out the document goes to that path (relative names resolve against
$HALFLINE_BETHE_OUTDIR if set), otherwise to stdout.

`main` runs every subcommand: an InputError is a usage error, an
InconsistencyError the witness document; other errors propagate.  Handlers
call the library and render; every verdict comes from a library object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .boundary import (
    TOL_BOUNDARY,
    TOL_DUALITY,
    TOL_EIGEN,
    boundary_sweep,
    check_eigen,
    duality_compare,
)
from .consistency import consistency_report
from .errors import InconsistencyError, InputError
from .operators import MODEL_DELTA, MODEL_PDP, ModelSpec
from .representations import (
    RegularRep,
    ScalarSector,
    dimension_sum_check,
    orbit_representatives,
    regular_rep,
    stabilizer_order,
)
from .scattering import convergence_sweep
from .wavefunction import BetheCoefficients, Momenta, compute_coefficients
from .weyl_group import MAX_PARTICLES

SCHEMA_VERSION = 1
OUTDIR_ENV = "HALFLINE_BETHE_OUTDIR"

SECTORS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}
# argparse cannot pass "--" or "-+" as values, so letters work too: p=+1, m=-1
SECTORS.update({"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)})

# Flags echoed into the config of each subcommand that has them, and the
# keys that differ from the flag's name.
ECHOED_FLAGS = ("N", "samples", "probes", "points", "h", "seed", "tol", "format")
ECHO_KEYS = {"N": "n_particles", "tol": "tolerance"}


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    outdir = os.environ.get(OUTDIR_ENV)
    path = out if (os.path.isabs(out) or outdir is None) else os.path.join(outdir, out)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _scalar(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _echo_line(config: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(config.items()))


def _parse_momenta(args) -> Momenta:
    if args.k is not None:
        try:
            values = tuple(float(part) for part in args.k.split(","))
        except ValueError:
            raise InputError(f"could not parse --k {args.k!r}") from None
        if len(values) != args.N:
            raise InputError(f"--k needs {args.N} comma-separated values")
        return Momenta(values)
    rng = np.random.default_rng(args.seed)
    for _ in range(100):
        draw = np.sort(rng.uniform(0.5, 0.5 + args.N, size=args.N))
        try:
            return Momenta(tuple(draw))
        except ValueError:
            continue
    raise InputError("failed to draw generic momenta")


@dataclass
class _Run:
    """One subcommand's validated inputs and its configuration echo."""

    command: str
    config: dict = field(default_factory=dict)
    model: ModelSpec | None = None
    rep: ScalarSector | RegularRep | None = None
    momenta: Momenta | None = None
    coeffs: BetheCoefficients | None = None

    def document(self, body: dict) -> str:
        doc = {"schema_version": SCHEMA_VERSION, "command": self.command,
               "config": self.config, **body}
        return json.dumps(doc, indent=2, sort_keys=True, default=_scalar)


def _prepare(args) -> _Run:
    """The model and representation if the subcommand has --rep, the momenta
    if it has --N and --k (scatter's --k is one wavenumber), all echoed with
    the flags; InputError if a value is bad."""
    run = _Run(f"verify-{args.check}" if args.command == "verify" else args.command)
    has_momenta = hasattr(args, "k") and hasattr(args, "N")
    if (hasattr(args, "rep") or has_momenta) and not 1 <= args.N <= MAX_PARTICLES:
        raise InputError(f"--N must lie in 1..{MAX_PARTICLES}")
    if hasattr(args, "rep"):
        if args.model == MODEL_DELTA:
            run.model = ModelSpec(MODEL_DELTA, args.c1, args.c2)
        else:
            run.model = ModelSpec(MODEL_PDP, args.lambda1, args.lambda2)
        if args.rep == "regular":
            run.rep = regular_rep(args.N)
        else:
            run.rep = ScalarSector(args.N, *SECTORS[args.sector])
        run.config.update(
            model=run.model.kind,
            pair_coupling=run.model.pair_coupling,
            wall_coupling=run.model.wall_coupling,
            representation=run.rep.label,
        )
    if has_momenta:
        run.momenta = _parse_momenta(args)
        run.config["momenta"] = list(run.momenta.values)
    for flag in ECHOED_FLAGS:
        if hasattr(args, flag):
            run.config[ECHO_KEYS.get(flag, flag)] = getattr(args, flag)
    return run


def cmd_consistency(args, run: _Run) -> tuple[str, bool]:
    report = consistency_report(
        run.model, run.rep, samples=args.samples, seed=args.seed, tol=args.tol
    )
    return run.document(report.to_dict()), report.overall_ok


def cmd_build(args, run: _Run) -> tuple[str, bool]:
    coeffs = run.coeffs
    group = coeffs.group
    if args.format == "csv":
        sector = coeffs.table.shape[1] == 1
        lines = [f"# schema_version={SCHEMA_VERSION}", "# command=build"]
        lines.append("# " + _echo_line(run.config))
        lines.append("p_index,re,im" if sector else "p_index,q_index,re,im")
        for (i, j), value in np.ndenumerate(coeffs.table):
            index = f"{i}" if sector else f"{i},{j}"
            value = complex(value)
            lines.append(f"{index},{value.real!r},{value.imag!r}")
        return "\n".join(lines), True

    elements = []
    for i, element in enumerate(group.elements):
        row = coeffs.table[i]
        elements.append(
            {
                "index": i,
                "signs": list(element.signs),
                "perm": list(element.perm),
                "word": list(coeffs.words[i]),
                "coefficient": [[value.real, value.imag] for value in row]
                if row.size > 1
                else [row[0].real, row[0].imag],
            }
        )
    body = {
        "group_order": group.order,
        "energy": run.momenta.energy,
        "max_crosscheck": coeffs.max_crosscheck,
        "elements": elements,
    }
    return run.document(body), True


def cmd_verify_boundary(args, run: _Run) -> tuple[str, bool]:
    sweep = boundary_sweep(run.coeffs, args.probes, np.random.default_rng(args.seed))
    ok = sweep.within(args.tol)
    body = {
        "ok": ok,
        "max_residual": sweep.max_residual,
        "geometry_errors": sweep.geometry_errors,
        "rows": list(sweep.rows),
    }
    return run.document(body), ok


def cmd_verify_duality(args, run: _Run) -> tuple[str, bool]:
    rng = np.random.default_rng(args.seed)
    points = [
        np.cumsum(0.1 + rng.uniform(0.0, 1.0, size=args.N)) for _ in range(args.points)
    ]
    run.config.update(c1=args.c1, c2=args.c2)
    report = duality_compare(run.momenta, args.c1, args.c2, points)
    ok = report.within(args.tol)
    body = {
        "ok": ok,
        "max_table_diff": report.max_table_diff,
        "max_point_diff": report.max_point_diff,
    }
    return run.document(body), ok


def cmd_verify_eigen(args, run: _Run) -> tuple[str, bool]:
    rng = np.random.default_rng(args.seed)
    point = np.cumsum(0.3 + rng.uniform(0.2, 1.0, size=args.N))
    result = check_eigen(run.coeffs, point, args.h)
    ok = result.within(args.tol)
    body = {
        "ok": ok,
        "energy": result.energy,
        "point": [float(c) for c in point],
        "residual": result.residual,
        "relative_residual": result.relative,
    }
    return run.document(body), ok


def cmd_scatter(args, run: _Run) -> tuple[str, bool]:
    try:
        start, stop, count = args.v0.split(":")
        grid = np.logspace(
            np.log10(float(start)), np.log10(float(stop)), int(count)
        )
    except ValueError:
        raise InputError(
            f"could not parse --v0 {args.v0!r}; expected start:stop:count"
        ) from None
    coupling = args.c if args.model == MODEL_DELTA else getattr(args, "lambda")
    sweep = convergence_sweep(args.model, args.parity, args.k, coupling, grid)
    ok = sweep.within()
    # scatter echoes its own flags instead of the shared configuration
    run.config = {
        "model": args.model,
        "parity": args.parity,
        "k": args.k,
        "coupling": coupling,
        "v0": args.v0,
    }
    if args.format == "json":
        body = {
            "ok": ok,
            "limit": [sweep.limit.real, sweep.limit.imag],
            "slope": sweep.slope,
            "rows": [
                {
                    "v0": v0,
                    "amplitude": [amp.real, amp.imag],
                    "abs_dev": dev,
                }
                for v0, amp, dev in zip(sweep.v0, sweep.amplitudes, sweep.deviations)
            ],
        }
        return run.document(body), ok
    lines = [
        f"# schema_version={SCHEMA_VERSION}",
        "# command=scatter " + _echo_line(run.config),
        f"# limit_re={sweep.limit.real!r} limit_im={sweep.limit.imag!r}",
        "v0,re_b,im_b,abs_dev",
    ]
    for v0, amp, dev in zip(sweep.v0, sweep.amplitudes, sweep.deviations):
        lines.append(f"{v0!r},{amp.real!r},{amp.imag!r},{dev!r}")
    lines.append(f"# fitted_slope={sweep.slope!r}")
    return "\n".join(lines), ok


def cmd_reps(args, run: _Run) -> tuple[str, bool]:
    report = dimension_sum_check(args.N)
    orbits = [
        {
            "flips": character.flips,
            "values": list(character.values),
            "stabilizer_order": stabilizer_order(args.N, character.flips),
        }
        for character in orbit_representatives(args.N)
    ]
    body = {
        "ok": report.ok,
        "group_order": report.group_order,
        "sum_of_squares": report.sum_of_squares,
        "orbits": orbits,
        "irreps": [
            {
                "flips": descriptor.flips,
                "upper": list(descriptor.upper),
                "lower": list(descriptor.lower),
                "dimension": descriptor.dimension,
            }
            for descriptor in report.irreps
        ],
    }
    return run.document(body), report.ok


def _tolerance(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


# Flags several subcommands share; a subcommand that needs another default
# sets it with set_defaults.
SHARED_FLAGS = {
    "N": {"type": int, "default": 2},
    "k": {"default": None, "help": "comma-separated momenta"},
    "seed": {"type": int, "default": 0},
    "tol": {"type": _tolerance, "default": None,
            "help": "residual bound for a pass (relative for verify eigen)"},
    "out": {"default": None},
}


def _add_shared(sub, *names):
    """Add shared flags in the order named; "model" adds the model flags."""
    for name in names:
        if name == "model":
            _add_model_flags(sub)
        else:
            sub.add_argument(f"--{name}", **SHARED_FLAGS[name])


def _add_model_flags(sub):
    sub.add_argument("--model", choices=(MODEL_DELTA, MODEL_PDP), default=MODEL_DELTA)
    sub.add_argument("--c1", type=float, default=1.0, help="delta pair coupling")
    sub.add_argument("--c2", type=float, default=2.0, help="delta wall coupling")
    sub.add_argument("--lambda1", type=float, default=1.0, help="pdp pair coupling")
    sub.add_argument("--lambda2", type=float, default=0.5, help="pdp wall coupling")
    sub.add_argument("--rep", choices=("regular", "sector"), default="sector")
    sub.add_argument(
        "--sector",
        default="++",
        choices=tuple(SECTORS),
        metavar="SECTOR",
        help="scalar sector signs (transposition, reflection): ++ +- -+ -- "
        "or pp pm mp mm (letters avoid argparse trouble with leading dashes)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Subcommands, each with its handler."""
    parser = argparse.ArgumentParser(
        prog="halfline-bethe",
        description="Consistency and boundary verification for half-line contact models",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    con = commands.add_parser("consistency", help="operator and coefficient identities")
    _add_shared(con, "model", "N")
    con.add_argument("--samples", type=int, default=200)
    _add_shared(con, "seed", "tol", "out")
    con.set_defaults(handler=cmd_consistency, N=3)

    build = commands.add_parser("build", help="coefficient table for given momenta")
    _add_shared(build, "model", "N", "k", "seed")
    build.add_argument("--format", choices=("json", "csv"), default="json")
    _add_shared(build, "out")
    build.set_defaults(handler=cmd_build)

    verify = commands.add_parser("verify", help="boundary, duality, eigenvalue checks")
    checks = verify.add_subparsers(dest="check", required=True)

    vb = checks.add_parser("boundary", help="facet matching conditions")
    _add_shared(vb, "model", "N", "k")
    vb.add_argument("--probes", type=int, default=20)
    _add_shared(vb, "seed", "tol", "out")
    vb.set_defaults(handler=cmd_verify_boundary, tol=TOL_BOUNDARY)

    vd = checks.add_parser("duality", help="boson delta vs fermion pdp")
    _add_shared(vd, "N")
    vd.add_argument("--c1", type=float, default=1.0)
    vd.add_argument("--c2", type=float, default=2.0)
    _add_shared(vd, "k")
    vd.add_argument("--points", type=int, default=20)
    _add_shared(vd, "seed", "tol", "out")
    vd.set_defaults(handler=cmd_verify_duality, tol=TOL_DUALITY)

    ve = checks.add_parser("eigen", help="finite-difference eigenvalue residual")
    _add_shared(ve, "model", "N", "k")
    ve.add_argument("--h", type=float, default=1e-4)
    _add_shared(ve, "seed", "tol", "out")
    ve.set_defaults(handler=cmd_verify_eigen, tol=TOL_EIGEN)

    scat = commands.add_parser("scatter", help="finite-wall convergence sweep")
    scat.add_argument("--model", choices=(MODEL_DELTA, MODEL_PDP), default=MODEL_DELTA)
    scat.add_argument("--parity", choices=("even", "odd"), default="even")
    scat.add_argument("--k", type=float, default=1.0)
    scat.add_argument("--c", type=float, default=2.0, help="delta wall coupling")
    scat.add_argument("--lambda", type=float, default=0.5, help="pdp wall coupling")
    scat.add_argument("--v0", default="1e3:1e9:7", help="grid start:stop:count")
    scat.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_shared(scat, "out")
    scat.set_defaults(handler=cmd_scatter)

    reps = commands.add_parser("reps", help="irreducible representation inventory")
    _add_shared(reps, "N", "out")
    reps.set_defaults(handler=cmd_reps, N=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _prepare(args)
        if run.model is not None and run.momenta is not None:
            run.coeffs = compute_coefficients(run.momenta, run.model, run.rep)
        text, ok = args.handler(args, run)
    except InputError as exc:
        parser.error(str(exc))
    except InconsistencyError as exc:
        text, ok = run.document({"error": exc.to_dict()}), False
    _write_output(text, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
