"""Command-line front end: simulate, measure, evaluate, threshold, identify.

Every run echoes the full parameter set it actually used (``# key=value``
comment lines on stdout or in the CSV header), so any output can be
regenerated byte-for-byte from its own metadata.

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
import os
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
from .topology import CurveFormatError, ECCurve, ec_csv_text, ec_curve, write_ec_csv

MODEL_HELP = "gaussian | chisq:k | t:k | f:n:m | gchisq:k"

_BOOLEAN_CONFIG_KEYS = {"estimate-moments"}


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
    if step <= 0:
        raise ValueError(f"level step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"level grid {spec!r} is empty (hi < lo)")
    return np.arange(lo, hi + 0.5 * step, step)


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
    return Rectangle((args.cube,) * args.dim)


def _field_domain(field: LatticeField) -> Rectangle:
    return Rectangle(tuple((n - 1) * field.spacing for n in field.values.shape))


def _resolve_jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = int(os.environ.get("XKIT_JOBS", "1"))
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _covariance_from_args(args) -> CovarianceModel:
    return CovarianceModel(variance=args.variance, lambda2=args.lambda2)


def _echo(pairs) -> None:
    for key, value in pairs:
        print(f"# {key}={value}")


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
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if key in _BOOLEAN_CONFIG_KEYS:
                lowered = value.lower()
                if lowered in ("1", "true", "yes", "on"):
                    tokens.append(f"--{key}")
                elif lowered not in ("0", "false", "no", "off"):
                    raise ValueError(f"{path}:{lineno}: {key} must be a boolean, got {value!r}")
            else:
                tokens.append(f"--{key}={value}")
    return tokens


def _splice_config(argv: list[str]) -> list[str]:
    """Remove ``--config PATH`` from argv and splice the file's tokens in."""
    path = None
    cleaned: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.partition("=")[2]
            i += 1
            continue
        cleaned.append(tok)
        i += 1
    if path is None:
        return cleaned
    if not cleaned:
        raise ValueError("--config needs a subcommand before it")
    return cleaned[:1] + _config_tokens(path) + cleaned[1:]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    model = parse_model(args.model, _covariance_from_args(args))
    shape = parse_shape(args.shape)
    field = simulate_model(model, shape, args.spacing, args.seed)
    write_field(field, args.out)
    _echo(
        [
            ("model", args.model),
            ("shape", args.shape),
            ("spacing", repr(args.spacing)),
            ("lambda2", repr(args.lambda2)),
            ("variance", repr(args.variance)),
            ("seed", args.seed),
            ("out", args.out),
        ]
    )
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
    curve = ec_curve(field, levels)
    curve = replace(curve, meta={**curve.meta, "source": str(args.field), "levels": args.levels})
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
        jobs=_resolve_jobs(args),
    )
    curve = replace(curve, meta={**curve.meta, "levels": args.levels})
    _emit_curve(curve, args.out)
    return 0


def cmd_threshold(args) -> int:
    domain = _domain_from_args(args)
    model = parse_model(args.model, _covariance_from_args(args))
    result = threshold(model, domain, args.alpha)
    _echo(
        [
            ("model", args.model),
            ("domain", "x".join(repr(s) for s in domain.sides)),
            ("lambda2", repr(args.lambda2)),
            ("variance", repr(args.variance)),
        ]
    )
    sys.stdout.write(result.as_text())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(result.as_dict(), indent=2) + "\n")
    return 0


def cmd_identify(args) -> int:
    field = read_field(args.field)
    levels = parse_levels(args.levels)
    empirical = ec_curve(field, levels)
    if args.estimate_moments:
        matrix, variance = estimate_spectral_moments(field)
        cov = CovarianceModel(variance=variance, matrix=matrix)
    else:
        cov = CovarianceModel(variance=args.variance, lambda2=args.lambda2)
    tokens = [t for t in args.candidates.split(",") if t]
    if not tokens:
        raise ValueError("candidate list is empty")
    candidates = [parse_model(t, cov) for t in tokens]
    ranked = identify_model(
        empirical,
        candidates,
        _field_domain(field),
        sim_shape=field.values.shape,
        sim_reps=args.sim_reps,
        jobs=_resolve_jobs(args),
    )
    _echo(
        [
            ("field", str(args.field)),
            ("levels", args.levels),
            ("candidates", args.candidates),
            (
                "moments",
                "estimated" if args.estimate_moments else f"lambda2={args.lambda2!r}",
            ),
        ]
    )
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
    sim.add_argument("--config", help="key=value defaults file (flags override)")
    sim.set_defaults(func=cmd_simulate)

    ecc = commands.add_parser("ec-curve", help="empirical EC curve of a stored field")
    ecc.add_argument("--field", required=True, help="input field file")
    ecc.add_argument("--levels", required=True, help="level grid lo:hi:step")
    ecc.add_argument("--out", help="output CSV (stdout when omitted)")
    ecc.add_argument("--config", help="key=value defaults file (flags override)")
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
    eec.add_argument("--jobs", type=int, help="worker count (default: XKIT_JOBS or 1)")
    eec.add_argument("--out", help="output CSV (stdout when omitted)")
    eec.add_argument("--config", help="key=value defaults file (flags override)")
    eec.set_defaults(func=cmd_eec)

    thr = commands.add_parser("threshold", help="level with expected EC equal to alpha")
    _add_model_flags(thr)
    _add_domain_flags(thr)
    thr.add_argument("--alpha", type=float, required=True, help="target tail mass in (0, 0.5)")
    thr.add_argument("--json", help="also write the result as JSON to this path")
    thr.add_argument("--config", help="key=value defaults file (flags override)")
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
    ident.add_argument("--jobs", type=int, help="worker count (default: XKIT_JOBS or 1)")
    ident.add_argument("--config", help="key=value defaults file (flags override)")
    ident.set_defaults(func=cmd_identify)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_splice_config(list(argv)))
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
