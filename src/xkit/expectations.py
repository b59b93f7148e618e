"""Expected excursion-set geometry of Gaussian and Gaussian-derived fields.

The central object is the kinematic sum

    E L_i(A) = sum_j  flag(i+j, j) * (2*pi)^(-j/2) * L_(i+j)(M) * M_j(D)

combining Lipschitz-Killing curvatures of the parameter rectangle M (measured
in the metric induced by the field) with Gaussian Minkowski functionals of
the hitting set D.  It is written once, in :func:`_kinematic_sum`, over the
list ``[M_0, ..., M_J]`` (see :mod:`xkit.geometry`).  Every closed-form field
model (Gaussian, chi-square, T and F) reaches it through one call,
:func:`_closed_form`, which hands it the model's functionals over all levels
at once, so one sum serves every model and every order.  The public closed
forms are fronts on the same sum: the per-level sums take a supplied
functional series as it is, the high-level asymptotic keeps only the top
curvature, and the rectangle closed forms are the Gaussian model's curve.
On top of it sit the tail-probability approximation with its error bound,
level solving for a target tail mass, and a ranking statistic comparing an
empirical EC curve against candidate models.

Expected curves for gaussianised models have no closed form; they are
produced by averaging simulated curves under a fixed internal seed schedule
(decoupled from any user data seed), summed in realisation order over a
thread pool, and held in a bounded ``functools.lru_cache``
(:func:`_simulation_average`).  Tail probabilities and thresholds need the
closed form and refuse these models.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import (
    CovarianceModel,
    FieldModel,
    GaussianModel,
    GaussianisedModel,
    component_seed,
    simulate_model,
)
from .geometry import CapabilityError, GMFSeries, LKCVector, Rectangle, flag_coefficient
from .geometry import _check_dim, _check_levels, _check_spectral_matrix, _chi2_quantiles
from .geometry import _chi2_scores, _finite_levels, _gaussian_gmfs, _positive, _whole
from .topology import ECCurve, _ec_at

__all__ = [
    "CapabilityError",
    "NoSolutionError",
    "QuadratureError",
    "ThresholdResult",
    "expected_lkc_general",
    "expected_lkc_isotropic",
    "expected_ec_gaussian_rectangle",
    "expected_ec_stationary_rectangle",
    "expected_lkc_high_level",
    "metric_rectangle_lkcs",
    "top_lkc_quadrature",
    "expected_ec_curve",
    "excursion_probability",
    "threshold",
    "identify_model",
]

TWO_PI = 2.0 * math.pi

# Base of the internal seed schedule for simulation-averaged expected curves.
# Realisation r uses component_seed(_CURVE_SEED_BASE, r), so these draws never
# coincide with user data seeds passed directly to simulate_model.
_CURVE_SEED_BASE = 202406


class NoSolutionError(RuntimeError):
    """No level attains the requested tail mass on the decreasing branch."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# kinematic sums
# ---------------------------------------------------------------------------

def _kinematic_sum(lkcs: LKCVector, gmfs, i: int):
    """E L_i of ``{f >= u}`` from ``[M_0, ..., M_J]``, ``J >= dim - i``, each ``M_j``
    a float or an array over levels (see :mod:`xkit.geometry`)."""
    acc = sum(
        flag_coefficient(i + j, j) * lkcs[i + j] * TWO_PI ** (-j / 2.0) * gmfs[j]
        for j in range(lkcs.dim - i + 1)
    )
    return float(acc) if np.ndim(acc) == 0 else acc


def expected_lkc_general(lkcs_M: LKCVector, gmfs_D: GMFSeries, i: int) -> float:
    """Kinematic sum for E L_i of an excursion set, metric LKCs supplied.

    ``lkcs_M`` must already be measured in the field-induced metric (for an
    isotropic field that is ``lambda2^(k/2) L_k``; see
    :func:`expected_lkc_isotropic`).
    """
    dim = lkcs_M.dim
    i = _whole(i, "order i")
    if not 0 <= i <= dim:
        raise ValueError(f"order i must lie in 0..{dim}, got {i}")
    needed = dim - i
    if gmfs_D.max_order < needed:
        raise ValueError(
            f"GMF series of order {gmfs_D.max_order} cannot evaluate E L_{i} "
            f"on a {dim}-dimensional domain (needs order {needed})"
        )
    for k in range(i, dim + 1):
        if math.isnan(lkcs_M[k]):
            raise ValueError(f"L_{k} of the domain is unavailable (NaN)")
    return _kinematic_sum(lkcs_M, gmfs_D.values, i)


def expected_lkc_isotropic(
    lkcs_M: LKCVector, gmfs_D: GMFSeries, lambda2: float, i: int
) -> float:
    """Kinematic sum for an isotropic unit-variance field.

    Each domain curvature enters scaled by ``lambda2^((i+j)/2)``, i.e. the
    j-th term carries ``lambda2^((i+j)/2) * L_(i+j)(M) * M_j(D)``; for i=0
    this reproduces the rectangle closed forms term by term.
    """
    lambda2 = _positive(lambda2, "lambda2")
    scaled = [lambda2 ** (k / 2.0) * lkcs_M[k] for k in range(lkcs_M.dim + 1)]
    return expected_lkc_general(LKCVector(np.array(scaled)), gmfs_D, i)


def metric_rectangle_lkcs(rect: Rectangle, spectral: np.ndarray) -> LKCVector:
    """Rectangle LKCs in the metric induced by a spectral-moment matrix.

    ``L_k = sum over axis subsets S of size k of prod(T_i, i in S) *
    sqrt(det Lambda_S)`` with ``Lambda_S`` the principal submatrix on S.
    For ``Lambda = lambda2 * I`` this reduces to ``lambda2^(k/2)`` times the
    ordinary rectangle curvatures.
    """
    dim = rect.dim
    if np.shape(spectral) != (dim, dim):
        raise ValueError(
            f"spectral matrix shape {np.shape(spectral)} does not match a "
            f"{dim}-dimensional rectangle"
        )
    spectral = _check_spectral_matrix(spectral)
    values = np.zeros(dim + 1)
    values[0] = 1.0
    for k in range(1, dim + 1):
        acc = 0.0
        for subset in itertools.combinations(range(dim), k):
            side_product = math.prod(rect.sides[a] for a in subset)
            sub = spectral[np.ix_(subset, subset)]
            acc += side_product * math.sqrt(np.linalg.det(sub))
        values[k] = acc
    return LKCVector(values)


# ---------------------------------------------------------------------------
# Gaussian rectangle closed forms
# ---------------------------------------------------------------------------

def expected_ec_gaussian_rectangle(rect: Rectangle, sigma2: float, lambda2: float, u):
    """Expected EC of ``{f >= u}`` for an isotropic Gaussian field on a rectangle.

    ``sigma2`` is the field variance and ``lambda2`` the raw second spectral
    moment (derivative variance); the sum carries ``(lambda2/sigma2)^(k/2)``
    so that only the unit-variance roughness enters.  Accepts finite scalar
    or array levels; the values are those of :func:`expected_ec_curve` for
    the matching :class:`~xkit.fields.GaussianModel`, bit for bit.
    """
    sigma2 = _positive(sigma2, "sigma2")
    lambda2 = _positive(lambda2, "lambda2")
    model = GaussianModel(CovarianceModel(variance=sigma2, lambda2=lambda2 / sigma2))
    return _closed_form(model, _metric_lkcs(model, rect), _finite_levels(u))


def expected_ec_stationary_rectangle(rect: Rectangle, spectral: np.ndarray, u):
    """Expected EC for a unit-variance stationary Gaussian field with
    spectral-moment matrix ``spectral`` (anisotropy allowed), at finite levels."""
    model = GaussianModel(CovarianceModel(matrix=spectral))
    return _closed_form(model, _metric_lkcs(model, rect), _finite_levels(u))


# ---------------------------------------------------------------------------
# high-level asymptotics
# ---------------------------------------------------------------------------

def top_lkc_quadrature(rect: Rectangle, metric, rel_tol: float = 1e-8) -> float:
    """``integral over rect of sqrt(det metric(x)) dx`` by tensor Gauss-Legendre.

    The per-axis node count doubles until successive values agree to
    ``rel_tol`` relative; a smooth metric converges long before the cap.
    """
    dim = rect.dim
    cap = {1: 1024, 2: 256, 3: 64}.get(dim)
    if cap is None:
        raise ValueError(f"quadrature supports 1..3 dimensions, got {dim}")
    rel_tol = _positive(rel_tol, "rel_tol")
    previous = None
    nodes = 8
    while nodes <= cap:
        value = _tensor_gauss_legendre(rect, metric, nodes)
        if previous is not None:
            if abs(value - previous) <= rel_tol * max(abs(value), 1e-300):
                return value
        previous = value
        nodes *= 2
    raise QuadratureError(
        f"top-order curvature integral did not stabilise to {rel_tol:g} "
        f"relative with {cap} nodes per axis (last value {previous!r})"
    )


def _tensor_gauss_legendre(rect: Rectangle, metric, nodes: int) -> float:
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    axes = [zip(0.5 * side * (base_x + 1.0), 0.5 * side * base_w) for side in rect.sides]
    total = 0.0
    dim = rect.dim
    for pairs in itertools.product(*axes):
        point, weights = zip(*pairs)
        x = np.array(point)
        lam = np.asarray(metric(x), dtype=float)
        if lam.shape != (dim, dim):
            raise ValueError(f"metric callable returned shape {lam.shape}, expected {(dim, dim)}")
        if not np.isfinite(lam).all():
            raise ValueError(f"metric must be finite, got {lam.tolist()} at {x}")
        det = float(np.linalg.det(lam))
        if det <= 0:
            raise ValueError(f"metric determinant must be positive, got {det} at {x}")
        total += math.prod(weights) * math.sqrt(det)
    return total


def expected_lkc_high_level(
    u: float,
    i: int,
    *,
    lkcs: LKCVector | None = None,
    rect: Rectangle | None = None,
    metric=None,
) -> float:
    """Leading high-level term of E L_i: only the top domain curvature survives.

    Supply either a metric LKC vector (its top entry is used) or a rectangle
    plus a callable ``metric(x) -> Lambda(x)`` whose top curvature is then
    integrated by quadrature.  The level must be finite.
    """
    u = _finite_levels(u)
    i = _whole(i, "order i")
    if (lkcs is None) == (rect is None and metric is None):
        raise ValueError("supply either lkcs or (rect and metric)")
    if lkcs is not None:
        dim = lkcs.dim
        top = lkcs[dim]
        if math.isnan(top):
            raise ValueError("top-order curvature is unavailable (NaN)")
    else:
        if rect is None or metric is None:
            raise ValueError("rect and metric must be supplied together")
        dim = rect.dim
        top = top_lkc_quadrature(rect, metric)
    if not 0 <= i <= dim:
        raise ValueError(f"order i must lie in 0..{dim}, got {i}")
    return _kinematic_sum(LKCVector(np.append(np.zeros(dim), top)), _gaussian_gmfs(u, dim - i), i)


# ---------------------------------------------------------------------------
# expected curves for field models
# ---------------------------------------------------------------------------

def _closed_form(model: FieldModel, lkcs: LKCVector, levels: np.ndarray, order: int = 0):
    """E L_order of ``{f >= u}`` at each level from the model's functionals.

    ``lkcs`` are the domain's curvatures in the model's metric (see
    :func:`_metric_lkcs`), so a root finder pays for them once, not per level.
    """
    return _kinematic_sum(lkcs, model._gmfs(levels, lkcs.dim - order), order)


@dataclass(frozen=True)
class _Workers:
    """A worker count that every other compares equal to, so a cache key ignores it."""

    count: int = field(compare=False)


# Keyed on the raw bytes of the level array, so callers that vary the levels or
# the roughness add a key per request; the bound keeps that memory fixed.  The
# worker count is not part of the key: EC values are integers, so every partial
# sum is exact and the curve is the same for any count.
@functools.lru_cache(maxsize=32)
def _simulation_average(
    model: GaussianisedModel,
    sim_shape: tuple[int, ...],
    spacing: float,
    level_bytes: bytes,
    reps: int,
    workers: _Workers,
) -> np.ndarray:
    """The mean EC curve over ``reps`` draws of the internal seed schedule.

    A chi-square base's exact CDF is increasing, so each chi-square draw is
    counted at the levels pulled back through it: the gaussianised draw's
    excursion sets, up to the rounding of one pulled level per level (see
    :func:`~xkit.fields.gaussianise`).  Other bases are drawn gaussianised.
    """
    levels = np.frombuffer(level_bytes)
    k = model._chi2_k
    counted, at = model, levels
    if k is not None:
        # nondecreasing for _ec_at: 0 and 1e-17 pull back to one value, and
        # neighbouring levels can pull back out of order by rounding
        counted, at = model.base, np.maximum.accumulate(_chi2_quantiles(levels, k))

    def one(rep: int) -> np.ndarray:
        seed = component_seed(_CURVE_SEED_BASE, rep)
        values = simulate_model(counted, sim_shape, spacing, seed).values
        if k is not None:  # a value gaussianise refuses is a draw's minimum or maximum
            _chi2_scores(np.array([values.min(), values.max()]), k)
        return _ec_at(values, at)

    with ThreadPoolExecutor(max_workers=workers.count) as pool:
        return sum(pool.map(one, range(reps)), np.zeros(levels.size)) / reps  # in rep order


def expected_ec_curve(
    model: FieldModel,
    domain: Rectangle,
    levels,
    *,
    order: int = 0,
    sim_shape: tuple[int, ...] | None = None,
    sim_reps: int = 40,
    jobs: int = 1,
) -> ECCurve:
    """Expected EC (or order-``order`` curvature) of excursion sets, per level.

    This is the one place a model picks its route.  Gaussian, chi-square, T
    and F models use the Gaussian kinematic formula with closed-form EC
    densities (Taylor 2006; Worsley 1994): the kinematic sum over the
    functionals their ``_gmfs`` hook returns for all levels at once.
    Gaussianised models, which have no closed form, use a cached simulation
    average on a ``sim_shape`` lattice (:func:`_simulation_average`), counted
    on an unstandardised chi-square base's own draws at pulled-back levels.
    """
    levels = _check_levels(levels)
    dim = domain.dim
    order = _whole(order, "order")
    if not 0 <= order <= dim:
        raise ValueError(f"order must lie in 0..{dim}, got {order}")
    sim_reps = _whole(sim_reps, "sim_reps", least=1)  # refused alike on every route
    jobs = _whole(jobs, "jobs", least=1)
    meta = {
        "model": model.name,
        "domain": "x".join(repr(s) for s in domain.sides),
        "order": str(order),
    }
    cov = model.cov
    if cov.matrix is None:
        meta["lambda2"] = repr(cov.lambda2)
    else:
        meta["spectral_matrix"] = ";".join(
            ",".join(repr(float(v)) for v in row) for row in cov.matrix
        )
    if cov.variance != 1.0:
        meta["variance"] = repr(cov.variance)
    if not isinstance(model, GaussianisedModel):
        values = _closed_form(model, _metric_lkcs(model, domain), levels, order)
        return ECCurve(levels=levels, values=values, kind="expected", meta=meta)
    if order != 0:
        raise CapabilityError(
            "expected curvatures of gaussianised fields are only available "
            "for order 0 (EC), via simulation averaging"
        )
    if sim_shape is None:
        raise ValueError(
            "a gaussianised expected curve needs sim_shape (its curve is a "
            "lattice simulation average)"
        )
    sim_shape = tuple(_whole(n, "each sim_shape entry") for n in sim_shape)
    if len(sim_shape) != dim or any(n < 2 for n in sim_shape):
        raise ValueError(f"sim_shape {sim_shape} does not fit a {dim}-d domain")
    _check_dim(dim)
    spacings = [domain.sides[a] / (sim_shape[a] - 1) for a in range(dim)]
    if max(spacings) - min(spacings) > 1e-9 * max(spacings):
        raise ValueError(
            f"sim_shape {sim_shape} gives non-uniform spacing {spacings} on "
            f"rectangle {domain.sides}; lattice fields use one spacing"
        )
    meta["sim_shape"] = "x".join(str(n) for n in sim_shape)
    meta["sim_reps"] = str(sim_reps)
    average = _simulation_average(
        model, sim_shape, spacings[0], levels.tobytes(), sim_reps, _Workers(jobs)
    )
    return ECCurve(levels=levels, values=average.copy(), kind="expected", meta=meta)


# ---------------------------------------------------------------------------
# tail probability, threshold, identification
# ---------------------------------------------------------------------------

def _metric_lkcs(model: FieldModel, domain: Rectangle) -> LKCVector:
    """The domain's Lipschitz-Killing curvatures in the metric of the model's field.

    A gaussianised field's metric is not that of its base's components, and
    its expected curve is a simulation average, so it is refused here.
    """
    if isinstance(model, GaussianisedModel):
        raise CapabilityError(
            "threshold solving needs a deterministic expected-EC evaluator; "
            "gaussianised curves are simulation averages"
        )
    return metric_rectangle_lkcs(domain, model.cov.spectral_matrix(domain.dim))


def _peak(model: FieldModel, lkcs: LKCVector) -> tuple[float, float]:
    """Level and value of the last stationary point of the expected-EC curve.

    The curve is scanned from 0 to 20 marginal scales past the marginal's
    location, a hundredth of a scale apart; a scan without a turn gives its
    first level.
    """
    loc, scale = model._window()
    step = 0.01 * max(1.0, scale)
    grid = np.arange(0.0, loc + 20.0 * scale + step, step)
    values = _closed_form(model, lkcs, grid)
    signs = np.sign(np.diff(values))
    signs[signs == 0] = 1.0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    index = int(flips[-1] + 1) if flips.size else 0
    return float(grid[index]), float(values[index])


# Critical variance sigma_c^2 = sup Var(f(s) | f(t), grad f(t)) / (1 - r)^2 of a
# unit-variance squared-exponential field (Taylor, Takemura & Adler 2005).  With
# x = lambda2 |s - t|^2 / 2 the ratio is (1 - e^(-2x) (1 + 2x)) / (1 - e^(-x))^2,
# whose supremum 2 = lambda4 / lambda2^2 - 1 is approached as x -> 0; it does not
# depend on lambda2, so the bound is invariant under a change of length units.
# A linear change of coordinates only relabels the pairs (s, t) in that
# supremum, and x -> Lambda^(1/2) x makes any spectral matrix Lambda the
# identity, so sigma_c^2 = 2 for every Lambda.
_CRITICAL_VARIANCE = 2.0


def _error_bound(model: FieldModel, u: float) -> float | None:
    """``exp(-z^2 (1 + 1/sigma_c^2) / 2)`` at ``z = u / sigma``; Gaussian models only."""
    if not isinstance(model, GaussianModel):
        return None
    z = u / math.sqrt(model.cov.variance)
    return math.exp(-0.5 * z * z * (1.0 + 1.0 / _CRITICAL_VARIANCE))


def excursion_probability(model: FieldModel, domain: Rectangle, u: float):
    """EC approximation of ``P(sup f >= u)`` plus an error bound when known.

    Returns ``(approx, bound)``; ``bound`` is available only for Gaussian
    models, whose squared-exponential covariance has the critical-variance
    parameter ``lambda4/lambda2^2 - 1 = 2`` whatever its spectral matrix.
    The level must be finite.  Levels below the expected-EC peak trigger a
    warning: there the heuristic does not approximate the tail probability.
    """
    u = float(_check_levels([u])[0])
    lkcs = _metric_lkcs(model, domain)
    peak, _ = _peak(model, lkcs)
    approx = float(_closed_form(model, lkcs, np.array([u]))[0])
    if u < peak:
        warnings.warn(
            f"level {u:g} is below the expected-EC peak ({peak:g}); the tail "
            "approximation is unreliable there",
            stacklevel=2,
        )
    return approx, _error_bound(model, u)


@dataclass(frozen=True)
class ThresholdResult:
    """Solution of expected-EC(u) = alpha on the decreasing branch."""

    alpha: float
    u_star: float
    eec_at_u: float
    error_bound: float | None

    def as_dict(self) -> dict:
        return asdict(self)

    def as_text(self) -> str:
        bound = "unavailable" if self.error_bound is None else f"{self.error_bound:.17g}"
        return (
            f"alpha={self.alpha:.17g}\n"
            f"u_star={self.u_star:.17g}\n"
            f"eec_at_u={self.eec_at_u:.17g}\n"
            f"error_bound={bound}\n"
        )


def threshold(model: FieldModel, domain: Rectangle, alpha: float) -> ThresholdResult:
    """Find the level whose expected EC equals ``alpha`` (tail calibration).

    The scan locates the final stationary point of the expected-EC curve;
    Brent's method then solves on the decreasing branch, and a root whose
    ``|EEC - alpha|`` exceeds ``1e-10`` raises :class:`NoSolutionError`, as
    do ``alpha`` at or above the peak EC and a curve that stops falling.
    """
    from scipy import optimize  # imported on first use: it is slow to load

    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    lkcs = _metric_lkcs(model, domain)
    peak_u, peak_value = _peak(model, lkcs)
    if alpha >= peak_value:
        raise NoSolutionError(
            f"alpha={alpha:g} is not attainable: the expected EC is already "
            f"{peak_value:.6g} at its bracketing peak (level {peak_u:g})"
        )

    def eec(x: float) -> float:
        return float(_closed_form(model, lkcs, np.array([x]))[0])

    # The bracket's right end doubles its distance from the peak while each
    # new EC value falls below the last; a plateau, a rise or a NaN ends it.
    _, scale = model._window()
    right, last = peak_u + max(1.0, scale), peak_value
    while not (value := eec(right)) < alpha:
        if not value < last:
            raise NoSolutionError(
                f"expected EC never falls below alpha={alpha:g}: it stops "
                f"falling at level {right:g}, where it is {value:.6g}"
            )
        last, right = value, peak_u + 2.0 * (right - peak_u)
    u_star = float(
        optimize.brentq(
            lambda x: eec(x) - alpha, peak_u, right, xtol=1e-13, rtol=8.9e-16, maxiter=300
        )
    )
    eec_at = eec(u_star)
    if abs(eec_at - alpha) > 1e-10:
        raise NoSolutionError(
            f"root finding failed to reach |EEC - alpha| <= 1e-10 (last {eec_at:g})"
        )
    return ThresholdResult(
        alpha=alpha, u_star=u_star, eec_at_u=eec_at, error_bound=_error_bound(model, u_star)
    )


def identify_model(
    curve: ECCurve,
    candidates: list[FieldModel],
    domain: Rectangle,
    *,
    sim_shape: tuple[int, ...] | None = None,
    sim_reps: int = 20,
    jobs: int = 1,
) -> list[tuple[FieldModel, float]]:
    """Rank candidate models by mean squared distance to an empirical curve.

    Discrepancy is ``mean over levels of (empirical - expected)^2``; ties
    keep the candidate order (stable sort).  Gaussianised candidates need a
    simulation lattice; if ``sim_shape`` is not given it is recovered from
    the curve's ``shape`` metadata.
    """
    if not candidates:
        raise ValueError("candidate list must not be empty")
    if sim_shape is None and "shape" in curve.meta:
        sim_shape = tuple(int(t) for t in curve.meta["shape"].split("x"))
    ranked = []
    for model in candidates:
        expected = expected_ec_curve(
            model, domain, curve.levels, sim_shape=sim_shape, sim_reps=sim_reps, jobs=jobs
        ).values
        ranked.append((model, float(np.mean((curve.values - expected) ** 2))))
    ranked.sort(key=lambda item: item[1])  # stable: ties keep candidate order
    return ranked
