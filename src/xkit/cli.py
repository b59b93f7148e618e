"""Command-line front end: simulate, measure, evaluate, threshold, identify.

Every run echoes the full parameter set it actually used (``# key=value``
comment lines on stdout or in the CSV header, from one writer), so any output
can be regenerated byte-for-byte from its own metadata; a parameter that a
line cannot hold as written is a usage error.

Exit codes are a stable scripting contract:

    0  success
    2  usage error (bad flags, bad model string, bad level grid, ...)
    3  data/format error (unreadable or malformed field/curve files)
    4  numeric/capability error (embedding failure, no solution, missing
       closed form, quadrature failure)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .expectations import expected_ec_curve, identify_model, threshold
from .fields import (
    ChiSquaredModel,
    CovarianceModel,
    FFieldModel,
    FieldFormatError,
    FieldModel,
    GaussianisedModel,
    GaussianModel,
    LatticeField,
    TFieldModel,
    estimate_spectral_moments,
    read_field,
    simulate_model,
    write_field,
)
from .geometry import Rectangle
from .topology import CurveFormatError, ECCurve, _meta_text, ec_csv_text, ec_curve, write_ec_csv

MODEL_HELP = "gaussian | chisq:k | t:k | f:n:m | gchisq:k"
JOBS_HELP = "worker threads for simulation averages (default 1; same output for any count)"


# ---------------------------------------------------------------------------
# argument value parsers
# ---------------------------------------------------------------------------

def parse_model(token: str, cov: CovarianceModel) -> FieldModel:
    """Build a field model from its command-line token.

    ``gchisq:k`` is the gaussianised chi-square (chi-square pushed through
    the exact probability integral transform); its expected curve is a
    simulation average, so downstream commands may need ``--sim-shape``.
    """
    parts = token.split(":")
    try:
        if parts[0] == "gaussian" and len(parts) == 1:
            return GaussianModel(cov=cov)
        if parts[0] == "chisq" and len(parts) == 2:
            return ChiSquaredModel(k=int(parts[1]), cov=cov)
        if parts[0] == "t" and len(parts) == 2:
            return TFieldModel(k=int(parts[1]), cov=cov)
        if parts[0] == "f" and len(parts) == 3:
            return FFieldModel(n=int(parts[1]), m=int(parts[2]), cov=cov)
        if parts[0] == "gchisq" and len(parts) == 2:
            return GaussianisedModel(base=ChiSquaredModel(k=int(parts[1]), cov=cov))
    except ValueError as exc:
        raise ValueError(f"bad model token {token!r}: {exc}") from exc
    raise ValueError(f"unknown model {token!r} (expected {MODEL_HELP})")


def parse_levels(spec: str) -> np.ndarray:
    """Level grid ``lo:hi:step``, endpoints inclusive within half a step."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"level grid {spec!r} is not of the form lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"level grid {spec!r} has a non-numeric part") from exc
    for name, value in (("lo", lo), ("hi", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"--levels grid {spec!r} has a non-finite {name} ({value})")
    if step <= 0:
        raise ValueError(f"level step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"level grid {spec!r} is empty (hi < lo)")
    try:
        return np.arange(lo, hi + 0.5 * step, step)
    except (ValueError, MemoryError) as exc:  # numpy cannot size or allocate the grid
        raise ValueError(f"--levels grid {spec!r} has too many levels ({exc})") from exc


def parse_shape(spec: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(p) for p in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"bad grid shape {spec!r}: {exc}") from exc
    if not 1 <= len(shape) <= 3:
        raise ValueError(f"grid shape {spec!r} must have 1..3 axes")
    return shape


def _domain_from_args(args) -> Rectangle:
    if args.sides is not None:
        if args.cube is not None or args.dim is not None:
            raise ValueError("give either --sides or --cube with --dim, not both")
        return Rectangle(tuple(float(s) for s in args.sides.split(",")))
    if args.cube is None or args.dim is None:
        raise ValueError("domain needs --cube SIDE with --dim N, or --sides T1,T2[,T3]")
    return Rectangle.cube(args.cube, args.dim)


def _field_domain(field: LatticeField) -> Rectangle:
    return Rectangle(tuple((n - 1) * field.spacing for n in field.values.shape))


def _covariance_from_args(args) -> CovarianceModel:
    return CovarianceModel(variance=args.variance, lambda2=args.lambda2)


# ---------------------------------------------------------------------------
# configuration file splicing
# ---------------------------------------------------------------------------

def _config_tokens(path: str) -> list[str]:
    """Translate a flat key=value config file into command-line tokens.

    The tokens are inserted *before* the explicit flags, so explicit flags
    win (argparse keeps the last occurrence of a repeated option).
    """
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, equals, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if not equals or not key:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            value = value.strip()
            if "config".startswith(key):  # argparse would expand it to --config
                raise ValueError(f"{path}:{lineno}: a config file cannot name another config file")
            if key == "estimate-moments":  # the one boolean flag
                lowered = value.lower()
                if lowered in ("1", "true", "yes", "on"):
                    tokens.append(f"--{key}")
                elif lowered not in ("0", "false", "no", "off"):
                    raise ValueError(f"{path}:{lineno}: {key} must be a boolean, got {value!r}")
            else:
                tokens.append(f"--{key}={value}")
    return tokens


# Reads ``--config`` wherever it stands, written out in full only: the
# subcommands declare it too, for ``--help``, and ``main`` refuses what their
# abbreviation matching lets through.
_CONFIG_PARSER = argparse.ArgumentParser(prog="xkit", add_help=False, allow_abbrev=False)
_CONFIG_PARSER.add_argument("--config")


def _splice_config(argv: list[str]) -> list[str]:
    """Remove ``--config PATH`` from argv and splice the file's tokens in."""
    known, rest = _CONFIG_PARSER.parse_known_args(argv)
    if known.config is None:
        return rest
    if not rest:
        raise ValueError("--config needs a subcommand before it")
    return rest[:1] + _config_tokens(known.config) + rest[1:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    model = parse_model(args.model, _covariance_from_args(args))
    shape = parse_shape(args.shape)
    echo = _meta_text([  # refused before a field is drawn or a file written
        ("model", args.model),
        ("shape", args.shape),
        ("spacing", repr(args.spacing)),
        ("lambda2", repr(model.cov.lambda2)),
        ("variance", repr(model.cov.variance)),
        ("seed", str(args.seed)),
        ("out", args.out),
    ])
    field = simulate_model(model, shape, args.spacing, args.seed)
    write_field(field, args.out)
    sys.stdout.write(echo)
    v = field.values
    print(
        f"mean={v.mean():.17g} variance={v.var():.17g} "
        f"min={v.min():.17g} max={v.max():.17g}"
    )
    return 0


def _emit_curve(curve: ECCurve, out: str | None) -> None:
    if out is None:
        sys.stdout.write(ec_csv_text(curve))
    else:
        write_ec_csv(curve, out)


def cmd_ec_curve(args) -> int:
    field = read_field(args.field)
    levels = parse_levels(args.levels)
    curve = ec_curve(field, levels, meta={"source": str(args.field), "levels": args.levels})
    _emit_curve(curve, args.out)
    return 0


def cmd_eec(args) -> int:
    domain = _domain_from_args(args)
    model = parse_model(args.model, _covariance_from_args(args))
    levels = parse_levels(args.levels)
    sim_shape = parse_shape(args.sim_shape) if args.sim_shape else None
    curve = expected_ec_curve(
        model,
        domain,
        levels,
        order=args.order,
        sim_shape=sim_shape,
        sim_reps=args.sim_reps,
        jobs=args.jobs,
    )
    curve = replace(curve, meta={**curve.meta, "levels": args.levels})
    _emit_curve(curve, args.out)
    return 0


def cmd_threshold(args) -> int:
    domain = _domain_from_args(args)
    model = parse_model(args.model, _covariance_from_args(args))
    result = threshold(model, domain, args.alpha)
    if args.json is not None:  # written first, so a refused path prints nothing
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(result.as_dict(), indent=2) + "\n")
    sys.stdout.write(_meta_text([
        ("model", args.model),
        ("domain", "x".join(repr(s) for s in domain.sides)),
        ("lambda2", repr(model.cov.lambda2)),
        ("variance", repr(model.cov.variance)),
    ]))
    sys.stdout.write(result.as_text())
    return 0


def cmd_identify(args) -> int:
    field = read_field(args.field)
    levels = parse_levels(args.levels)
    empirical = ec_curve(field, levels)
    if args.estimate_moments:
        matrix, variance = estimate_spectral_moments(field)
        cov = CovarianceModel(variance=variance, matrix=matrix)
    else:
        cov = _covariance_from_args(args)
    tokens = [t for t in args.candidates.split(",") if t]
    if not tokens:
        raise ValueError("candidate list is empty")
    candidates = [parse_model(t, cov) for t in tokens]
    echo = _meta_text([  # refused before the candidates are scored
        ("field", str(args.field)),
        ("levels", args.levels),
        ("candidates", args.candidates),
        ("moments", "estimated" if args.estimate_moments else f"lambda2={args.lambda2!r}"),
        ("variance", repr(cov.variance)),
        ("sim_reps", str(args.sim_reps)),
    ])
    ranked = identify_model(
        empirical,
        candidates,
        _field_domain(field),
        sim_reps=args.sim_reps,
        jobs=args.jobs,
    )
    sys.stdout.write(echo)
    print("model discrepancy")
    for model, discrepancy in ranked:
        print(f"{model.name} {discrepancy:.17g}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def _add_domain_flags(sub) -> None:
    sub.add_argument("--cube", type=float, help="side length of a cubic domain")
    sub.add_argument("--dim", type=int, help="dimension (with --cube)")
    sub.add_argument("--sides", help="explicit side lengths T1,T2[,T3]")


def _add_model_flags(sub) -> None:
    sub.add_argument("--model", required=True, help=f"field model: {MODEL_HELP}")
    sub.add_argument(
        "--lambda2",
        type=float,
        required=True,
        help="second spectral moment of the (component) Gaussian covariance",
    )
    sub.add_argument("--variance", type=float, default=1.0, help="field variance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xkit",
        description="Excursion-set geometry of smooth random fields on rectangles.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="draw a field and write the binary format")
    _add_model_flags(sim)
    sim.add_argument("--shape", required=True, help="grid sites per axis, e.g. 256,256")
    sim.add_argument("--spacing", type=float, required=True, help="lattice spacing")
    sim.add_argument("--seed", type=int, required=True, help="reproducibility seed")
    sim.add_argument("--out", required=True, help="output field file")
    sim.set_defaults(func=cmd_simulate)

    ecc = commands.add_parser("ec-curve", help="empirical EC curve of a stored field")
    ecc.add_argument("--field", required=True, help="input field file")
    ecc.add_argument("--levels", required=True, help="level grid lo:hi:step")
    ecc.add_argument("--out", help="output CSV (stdout when omitted)")
    ecc.set_defaults(func=cmd_ec_curve)

    eec = commands.add_parser("eec", help="expected EC (or L_i) curve of a model")
    _add_model_flags(eec)
    _add_domain_flags(eec)
    eec.add_argument("--levels", required=True, help="level grid lo:hi:step")
    eec.add_argument(
        "--order", type=int, default=0, help="curvature order i (0 = Euler characteristic)"
    )
    eec.add_argument("--sim-shape", help="lattice for simulation-averaged curves")
    eec.add_argument("--sim-reps", type=int, default=40, help="realisations to average")
    eec.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    eec.add_argument("--out", help="output CSV (stdout when omitted)")
    eec.set_defaults(func=cmd_eec)

    thr = commands.add_parser("threshold", help="level with expected EC equal to alpha")
    _add_model_flags(thr)
    _add_domain_flags(thr)
    thr.add_argument("--alpha", type=float, required=True, help="target tail mass in (0, 0.5)")
    thr.add_argument("--json", help="also write the result as JSON to this path")
    thr.set_defaults(func=cmd_threshold)

    ident = commands.add_parser("identify", help="rank candidate models against a field")
    ident.add_argument("--field", required=True, help="input field file")
    ident.add_argument("--levels", required=True, help="level grid lo:hi:step")
    ident.add_argument(
        "--candidates", required=True, help=f"comma list of model tokens ({MODEL_HELP})"
    )
    moments = ident.add_mutually_exclusive_group(required=True)
    moments.add_argument(
        "--lambda2", type=float, help="second spectral moment for all candidates"
    )
    moments.add_argument(
        "--estimate-moments",
        action="store_true",
        help="estimate the spectral moments and variance from the field",
    )
    ident.add_argument("--variance", type=float, default=1.0, help="field variance")
    ident.add_argument("--sim-reps", type=int, default=20, help="realisations to average")
    ident.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    ident.set_defaults(func=cmd_identify)

    for sub in commands.choices.values():
        sub.add_argument("--config", help="key=value defaults file (flags override)")
    return parser


_PARSER = build_parser()  # built once: it costs more than a parse, and main may run many times


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_splice_config(list(argv)))
        if args.config is not None:
            raise ValueError("--config must be written out in full on the command line")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (FieldFormatError, CurveFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # simulation, no-solution, capability, and quadrature failures
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
