"""The three workloads: inputs made from the seed, ops, and their checks.

Each workload class gives ``round(index)``, the ops of one round (the loop
runs whole rounds, so failed ops are the same share of attempted ops in every
run), ``run(op)``, the calls into xkit that are timed, ``keep`` to retain what
the checks need, ``check`` for one op and ``check_run`` for the whole run.
``describe(op)`` names an op and the known fault it exposes, if any.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import oracles

FAULT_GMF = (
    "fault 1: chi-square, t and F Minkowski functionals are taken as "
    "level-derivatives of the marginal density, which holds only for a Gaussian field"
)
FAULT_BOUND = (
    "fault 2: the error bound's critical variance 3*lambda2^2 - 1 depends on "
    "units, so rescaling the domain changes it"
)


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# mc-study: Monte-Carlo model testing
# ---------------------------------------------------------------------------

# Adjacent levels are strongly correlated and tail counts are skewed, so a
# per-level 3-SE band misses 6 or more of 101 levels in about 5% of runs of a
# correct program (bootstrap of 400 fields per model); at 4.5 SE that falls
# to about 2 in 10^4.
COVER_SE = 4.5


class MCStudy:
    """Each op draws a Gaussian and a standardised chi^2_5 field on 256^2 and
    takes both EC curves on 101 levels.  The first ``KEEP_FIELDS`` ops keep
    their fields for the face-count check, a fixed number so the memory the
    benchmark holds does not grow with throughput; all curves feed the
    mean-curve check."""

    SHAPE = (256, 256)
    SPACING = 1.0 / 255.0
    KEEP_FIELDS = 16

    def __init__(self, xk, seed: int, work_dir: str):
        self.xk = xk
        self.seed = seed
        self.levels = np.linspace(-4.0, 4.0, 101)
        self.gauss = xk.GaussianModel(xk.CovarianceModel(lambda2=200.0))
        self.chi2 = xk.ChiSquaredModel(
            k=5, cov=xk.CovarianceModel(lambda2=100.0), standardized=True
        )

    def round(self, index: int):
        return [("draw", index)]

    def describe(self, op):
        return "mc-study op", None

    def _seeds(self, index: int):
        state = np.random.SeedSequence([self.seed, index + 1]).generate_state(2)
        return int(state[0]), int(state[1])

    def run(self, op):
        seed_g, seed_c = self._seeds(op[1])
        simulate = self.xk.fields.simulate_model
        curve = self.xk.topology.ec_curve
        fg = simulate(self.gauss, self.SHAPE, self.SPACING, seed_g)
        fc = simulate(self.chi2, self.SHAPE, self.SPACING, seed_c)
        return fg, fc, curve(fg, self.levels), curve(fc, self.levels)

    def warmup(self):
        self.run(("draw", -1))

    def keep(self, index, op, out):
        fg, fc, cg, cc = out
        fields = (fg.values, fc.values) if index < self.KEEP_FIELDS else None
        return cg.values, cc.values, fields

    def check(self, index, op, kept):
        cg, cc, fields = kept
        for values in (cg, cc):
            _require(
                values.shape == self.levels.shape and np.all(values == np.round(values)),
                "EC values are not integers on the 101 levels",
            )
        if fields is None:
            return
        for name, values, field in (("gaussian", cg, fields[0]), ("chisq", cc, fields[1])):
            ref = oracles.face_count_curve(field, self.levels)
            _require(np.array_equal(values, ref), f"{name} ec_curve differs from the face count")

    def check_run(self, kept):
        """Mean curves against the Gaussian and Worsley chi^2 closed forms."""
        n = len(kept)
        lk_g = oracles.metric_lkcs((1.0, 1.0), 200.0 * np.eye(2))
        lk_c = oracles.metric_lkcs((1.0, 1.0), 100.0 * np.eye(2))
        refs = (
            oracles.ec_from_densities(lk_g, oracles.gaussian_ec_densities(self.levels)),
            oracles.ec_from_densities(
                lk_c, oracles.chi2_ec_densities(5.0 + math.sqrt(10.0) * self.levels, 5)
            ),
        )
        problems, notes = [], []
        for j, (name, ref) in enumerate(zip(("gaussian", "chisq:5"), refs)):
            curves = np.array([k[j] for k in kept])
            mean = curves.mean(axis=0)
            se = curves.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.inf
            gap = np.abs(mean - ref)
            at3 = int(np.count_nonzero(gap <= np.maximum(3.0 * se, 3.0 / n)))
            covered = int(np.count_nonzero(gap <= np.maximum(COVER_SE * se, 3.0 / n)))
            notes.append(
                f"{name} mean curve over {n} fields covers {covered}/101 levels "
                f"within max({COVER_SE} SE, 3/n) ({at3}/101 within 3 SE)"
            )
            if covered < 96:
                problems.append(notes[-1] + "; needs 96")
        return problems, notes


# ---------------------------------------------------------------------------
# observed: analysis of stored volumes through the CLI
# ---------------------------------------------------------------------------

class Observed:
    """Each op runs ``ec-curve`` and ``identify --estimate-moments`` on one
    stored 64^3 volume, in-process through ``xkit.cli.main``."""

    LEVELS = "--levels=-4:4:0.05"

    def __init__(self, xk, seed: int, work_dir: str):
        self.xk = xk
        self.volumes = sorted(
            os.path.join(work_dir, f) for f in os.listdir(work_dir) if f.endswith(".bin")
        )
        if not self.volumes:
            raise SystemExit(f"no volumes in {work_dir}")
        self.csv = os.path.join(work_dir, "curve.csv")
        self._oracle: dict = {}

    def round(self, index: int):
        return list(range(len(self.volumes)))

    def describe(self, op):
        return f"observed {os.path.basename(self.volumes[op])}", None

    def run(self, op):
        path = self.volumes[op]
        main = self.xk.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            rc_curve = main(["ec-curve", "--field", path, self.LEVELS, "--out", self.csv])
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc_ident = main(
                ["identify", "--field", path, self.LEVELS, "--estimate-moments",
                 "--candidates", "gaussian"]
            )
        return rc_curve, rc_ident, text.getvalue()

    def warmup(self):
        self.run(0)

    def keep(self, index, op, out):
        with open(self.csv, encoding="utf-8") as fh:
            return out + (fh.read(),)

    def _reference(self, op, levels):
        if op not in self._oracle:
            values, spacing = oracles.read_xkf(self.volumes[op])
            curve = oracles.face_count_curve(values, levels)
            lam, var = oracles.central_difference_moments(values, spacing)
            sides = [(n - 1) * spacing for n in values.shape]
            expected = oracles.ec_from_densities(
                oracles.metric_lkcs(sides, lam),
                oracles.gaussian_ec_densities(levels / math.sqrt(var)),
            )
            self._oracle[op] = (levels, curve, float(np.mean((curve - expected) ** 2)))
        return self._oracle[op]

    def check(self, index, op, kept):
        rc_curve, rc_ident, ident_text, csv_text = kept
        _require(rc_curve == 0 and rc_ident == 0, f"exit codes {rc_curve}, {rc_ident}")
        rows = [ln.split(",") for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
        _require(rows[0] == ["u", "ec", "kind"], "ec-curve CSV lacks its header")
        levels = np.array([float(r[0]) for r in rows[1:]])
        values = np.array([float(r[1]) for r in rows[1:]])
        _require(levels.size == 161, f"ec-curve gave {levels.size} levels, not 161")
        ref_levels, curve, discrepancy = self._reference(op, levels)
        _require(np.array_equal(levels, ref_levels), "level grid changed between ops")
        _require(np.array_equal(values, curve), "ec-curve values differ from the face count")
        reported = [ln.split() for ln in ident_text.splitlines() if ln.startswith("gaussian ")]
        _require(len(reported) == 1, "identify did not report the gaussian candidate")
        value = float(reported[0][1])
        _require(
            abs(value - discrepancy) <= 1e-9 * abs(discrepancy),
            f"gaussian discrepancy {value!r} against recomputed {discrepancy!r}",
        )

    def check_run(self, kept):
        return [], [f"{len(self.volumes)} volumes, {len(kept)} ops"]


# ---------------------------------------------------------------------------
# calibrate: thresholds and expected curves, no lattice data
# ---------------------------------------------------------------------------

ALPHA = 0.05
ANISO = np.array([[300.0, 50.0, 0.0], [50.0, 200.0, 20.0], [0.0, 20.0, 100.0]])
SQUARE = (1.0, 1.0)
CUBE = (1.0, 1.0, 1.0)
SYM_LEVELS = np.linspace(-4.0, 4.0, 81)


def _iso(sides, lambda2):
    return oracles.metric_lkcs(sides, lambda2 * np.eye(len(sides)))


class Request:
    """One panel entry: what to call and the closed form it must agree with.

    ``kind`` is ``threshold``, ``curve`` or ``sim`` (a gaussianised curve);
    ``oracle`` maps a level, or an array of levels, to the expected EC (or
    expected L_1 for ``order=1``); ``rel`` is a curve's relative tolerance.
    """

    def __init__(self, name, fault, kind, args, oracle=None, rel=None, order=0):
        self.name, self.fault, self.kind, self.args = name, fault, kind, args
        self.oracle, self.rel, self.order = oracle, rel, order


class Calibrate:
    """A fixed panel of 13 expected-geometry requests per round.

    The second gaussianised request takes a roughness new to each round
    (drawn from the seed), so it misses the simulation-average cache; every
    other request is fixed and does not depend on the seed.
    """

    SIM = dict(sim_shape=(128, 128), sim_reps=20)

    def __init__(self, xk, seed: int, work_dir: str):
        self.xk = xk
        self.rng = np.random.default_rng([seed, 7])
        self.miss_lambda2 = []
        cov, rect = xk.CovarianceModel, xk.Rectangle
        chi2 = xk.ChiSquaredModel(k=5, cov=cov(lambda2=20.0))
        rough = cov(lambda2=100.0)

        def gauss(lambda2, sides, fault=None, name="threshold gaussian 2-D"):
            return Request(name, fault, "threshold",
                           (xk.GaussianModel(cov(lambda2=lambda2)), rect(sides)),
                           lambda u: oracles.gaussian_ec_2d(u, lambda2, sides))

        chi2_levels = np.arange(1, 101) * 0.15
        self.panel = [
            gauss(200.0, SQUARE),
            Request("threshold gaussian 3-D", None, "threshold",
                    (xk.GaussianModel(cov(lambda2=880.0)), rect(CUBE)),
                    lambda u: oracles.gaussian_ec_3d(u, 880.0, CUBE)),
            Request("threshold anisotropic 3-D", None, "threshold",
                    (xk.GaussianModel(cov(matrix=ANISO)), rect(CUBE)),
                    lambda u: oracles.ec_from_densities(
                        oracles.metric_lkcs(CUBE, ANISO), oracles.gaussian_ec_densities(u))),
            gauss(200.0 / 4.0, (2.0, 2.0), FAULT_BOUND, "threshold gaussian 2-D c=2"),
            gauss(200.0 / 100.0, (10.0, 10.0), FAULT_BOUND, "threshold gaussian 2-D c=10"),
            Request("threshold chisq:5 2-D", FAULT_GMF, "threshold", (chi2, rect(SQUARE)),
                    lambda u: oracles.ec_from_densities(
                        _iso(SQUARE, 20.0), oracles.chi2_ec_densities(u, 5))),
            Request("threshold chisq:5 3-D", FAULT_GMF, "threshold", (chi2, rect(CUBE)),
                    lambda u: oracles.ec_from_densities(
                        _iso(CUBE, 20.0), oracles.chi2_ec_densities(u, 5))),
            Request("eec chisq:5", FAULT_GMF, "curve", (chi2, rect(SQUARE), chi2_levels),
                    lambda u: oracles.ec_from_densities(
                        _iso(SQUARE, 20.0), oracles.chi2_ec_densities(u, 5)), 1e-6),
            Request("eec t:5", FAULT_GMF, "curve",
                    (xk.TFieldModel(k=5, cov=rough), rect(SQUARE), np.linspace(-4.0, 6.0, 41)),
                    lambda u: oracles.ec_from_densities(
                        _iso(SQUARE, 100.0), oracles.t_ec_densities(u, 4.0)), 1e-6),
            Request("eec f:1:7", FAULT_GMF, "curve",
                    (xk.FFieldModel(n=1, m=7, cov=rough), rect(SQUARE),
                     np.linspace(0.25, 20.0, 41)),
                    lambda u: oracles.ec_from_densities(
                        _iso(SQUARE, 100.0), oracles.f1m_ec_densities(u, 7.0)), 1e-6),
            Request("eec gaussian order 1 3-D", None, "curve",
                    (xk.GaussianModel(cov(lambda2=880.0)), rect(CUBE), SYM_LEVELS),
                    lambda u: oracles.gaussian_l1_curve(u, 880.0, CUBE), 1e-9, order=1),
            Request("eec gchisq:5 repeated", None, "sim",
                    (xk.GaussianisedModel(xk.ChiSquaredModel(k=5, cov=rough)),)),
            Request("eec gchisq:5 new roughness", None, "sim", None),
        ]
        self.unscaled = self.panel[0]
        self.repeated = self.panel[11]
        self.reference_gchisq = None
        self._base = None

    def round(self, index: int):
        # one new roughness per round for the cache-missing request
        self.miss_lambda2.append(100.0 * (1.0 + 0.2 * float(self.rng.random())))
        return [(req, index) for req in self.panel]

    def describe(self, op):
        return op[0].name, op[0].fault

    def run(self, op):
        req, index = op
        exp = self.xk.expectations
        if req.kind == "threshold":
            return exp.threshold(*req.args, ALPHA)
        if req.kind == "curve":
            return exp.expected_ec_curve(*req.args, order=req.order).values
        args = req.args
        if args is None:
            cov = self.xk.CovarianceModel(lambda2=self.miss_lambda2[index])
            args = (self.xk.GaussianisedModel(self.xk.ChiSquaredModel(k=5, cov=cov)),)
        return exp.expected_ec_curve(
            args[0], self.xk.Rectangle(SQUARE), SYM_LEVELS, **self.SIM
        ).values

    def warmup(self):
        self.run((self.panel[0], -1))
        self.reference_gchisq = self.run((self.repeated, -1))

    def keep(self, index, op, out):
        # the scaled thresholds are compared with the unscaled one of their round
        req = op[0]
        if req is self.unscaled:
            self._base = out
        return (out, self._base) if req.fault is FAULT_BOUND else out

    def check(self, index, op, kept):
        req = op[0]
        if req.kind == "threshold":
            result, base = kept if req.fault is FAULT_BOUND else (kept, None)
            u = result.u_star
            eec = float(req.oracle(u))
            _require(abs(eec - ALPHA) <= 1e-8,
                     f"closed-form EC at u*={u:.12g} is {eec:.12g}, not alpha={ALPHA}")
            if req.fault is FAULT_BOUND:
                _require(base is not None, "the unscaled problem has no result to compare")
                _require(abs(u / base.u_star - 1.0) <= 1e-9,
                         f"u*={u!r} differs from the unscaled {base.u_star!r}")
                _require(
                    base.error_bound is not None and result.error_bound is not None
                    and abs(result.error_bound / base.error_bound - 1.0) <= 1e-9,
                    f"error bound {result.error_bound!r} differs from the unscaled "
                    f"{base.error_bound!r}",
                )
        elif req.kind == "curve":
            levels = req.args[2]
            ref = req.oracle(levels)
            gap = np.abs(kept - ref)
            tol = req.rel * max(1.0, float(np.max(np.abs(ref))))
            worst = int(np.argmax(gap))
            _require(
                float(gap[worst]) <= tol,
                f"{int(np.count_nonzero(gap > tol))}/{levels.size} levels off the closed "
                f"form; worst at u={levels[worst]:g}: {kept[worst]:.6g} against "
                f"{ref[worst]:.6g}",
            )
        else:
            scaled = 20.0 * kept
            _require(np.all(np.abs(scaled - np.round(scaled)) <= 1e-9),
                     "20 x a 20-rep average is not an integer")
            if req is self.repeated:
                _require(kept.tobytes() == self.reference_gchisq.tobytes(),
                         "a repeated request did not return identical bits")

    def check_run(self, kept):
        return [], [f"{len(kept) // len(self.panel)} rounds of {len(self.panel)} requests"]


WORKLOADS = {"mc-study": MCStudy, "observed": Observed, "calibrate": Calibrate}
