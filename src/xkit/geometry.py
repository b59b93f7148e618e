"""Integral-geometric primitives for excursion-set computations.

This module collects the small zoo of special functions and geometric
quantities that every expected-topology formula is built from:

* probabilists' Hermite polynomials ``H_n`` (including the ``n = -1``
  extension built from the Gaussian tail),
* volumes of unit balls and flag coefficients,
* Lipschitz-Killing curvatures (intrinsic volumes) of axis-aligned
  rectangles in any field's metric, with the Steiner tube-volume expansion,
* Gaussian Minkowski functionals (GMFs) ``[M_0, ..., M_J]`` of the hitting
  sets of the Gaussian, chi-square, Student-t and F marginals (the Taylor
  coefficients of the Gaussian measure of their tubes) over arrays of
  levels; the public series of the Gaussian half line and the chi-square
  ball complement are these lists at one level.

Everything here is deterministic, cheap, and heavily cross-checked by
the test suite; the Monte-Carlo and lattice machinery lives elsewhere.
This module is the bottom of the package's imports, so it also holds the
argument checks every module shares (``_whole``, ``_positive``, ``_finite_levels``,
``_check_levels``, ``_check_spectral_matrix``, ``_check_dim``), the chi-square normal
scores ``_chi2_scores`` and their inverse ``_chi2_quantiles``, and :class:`CapabilityError`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "Rectangle",
    "LKCVector",
    "GMFSeries",
    "ball_volume",
    "flag_coefficient",
    "hermite",
    "gaussian_tail",
    "rectangle_lkcs",
    "tube_volume_rectangle",
    "gaussian_gmf",
    "chi2_gmf",
]


class CapabilityError(NotImplementedError):
    """The requested quantity has no implemented evaluation path."""


# ---------------------------------------------------------------------------
# argument checks shared by every module
# ---------------------------------------------------------------------------

def _whole(value, what: str, least: int | None = None) -> int:
    """``value`` as an ``int``, refused unless it is an integer (numpy's included)
    and, when ``least`` is given, at least ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _positive(value, what: str) -> float:
    """``value`` as a ``float``, refused unless finite and positive."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


def _finite_levels(levels, what: str = "levels") -> np.ndarray:
    """``levels`` as a float array of any shape, checked finite: the tails and
    densities are NaN or warn at infinite and NaN levels."""
    levels = np.asarray(levels, dtype=float)
    finite = np.isfinite(levels)
    if not np.all(finite):
        raise ValueError(f"{what} must be finite, got {float(levels[~finite][0])}")
    return levels


def _check_levels(levels) -> np.ndarray:
    """``levels`` as a float array, checked non-empty, 1-d, finite and strictly increasing."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("levels must be a non-empty 1-d array")
    _finite_levels(levels)
    if np.any(levels[1:] <= levels[:-1]):  # a difference can overflow
        raise ValueError("levels must be strictly increasing")
    return levels


def _check_spectral_matrix(matrix) -> np.ndarray:
    """A read-only float copy of ``matrix``, checked square, symmetric and positive definite."""
    m = np.array(matrix, dtype=float)
    m.flags.writeable = False
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral-moment matrix must be square")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError("spectral-moment matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(m) <= 0):
        raise ValueError("spectral-moment matrix must be positive definite")
    return m


_MAX_DIM = 3


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= _MAX_DIM:
        raise ValueError(
            f"unsupported dimension {dim}: Euler characteristics are "
            f"implemented for 1 to {_MAX_DIM} dimensions"
        )


# ---------------------------------------------------------------------------
# basic scalar functions
# ---------------------------------------------------------------------------

def ball_volume(j: int) -> float:
    """Volume ``omega_j`` of the unit ball in ``R^j``.

    ``omega_j = pi^(j/2) / Gamma(1 + j/2)``; ``omega_0 = 1`` by convention.
    """
    if j < 0:
        raise ValueError(f"ball dimension must be >= 0, got {j}")
    return math.pi ** (j / 2.0) / math.gamma(1.0 + j / 2.0)


def flag_coefficient(n: int, j: int) -> float:
    """Flag coefficient ``[n, j] = binom(n, j) * omega_n / (omega_(n-j) * omega_j)``.

    These combinatorial factors weight the terms of kinematic-formula
    expansions; ``[n, 0] = [n, n] = 1`` for every ``n``.
    """
    n, j = _whole(n, "n"), _whole(j, "j")
    if j < 0 or n < j:
        raise ValueError(f"flag coefficient needs 0 <= j <= n, got n={n}, j={j}")
    return math.comb(n, j) * ball_volume(n) / (ball_volume(n - j) * ball_volume(j))


def gaussian_tail(x):
    """Standard normal upper tail ``Psi(x) = P{N(0,1) >= x}``.

    Evaluated through the complementary error function, which keeps full
    relative accuracy (~1e-15) far into the tail instead of degrading to
    absolute accuracy the way ``1 - Phi(x)`` would.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / math.sqrt(2.0))
    return out if out.ndim else float(out)


def chi2_tail(x, k: int):
    """Upper tail ``P{chi^2_k >= x}`` via the regularised incomplete gamma.

    ``gammaincc`` is a continued-fraction/series implementation accurate to
    better than 1e-13 relative across the range used here.
    """
    k = _whole(k, "degrees of freedom", least=1)
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, special.gammaincc(k / 2.0, np.maximum(x, 0.0) / 2.0), 1.0)
    return out if out.ndim else float(out)


def _chi2_scores(values: np.ndarray, k: int) -> np.ndarray:
    """The normal scores ``Phi^{-1}(F_k(x))`` of chi-square(``k``) values.

    The lower gamma tail is evaluated everywhere and the upper one only
    where the lower passes 1/2, so each score comes from the smaller tail.
    Negative values, and values whose tail probability is 0 or underflows,
    are refused.
    """
    if np.any(values < 0):
        raise ValueError("exact-chi2 gaussianisation needs nonnegative values")
    lower = special.gammainc(k / 2.0, values / 2.0)
    out = special.ndtri(lower)
    upper = lower > 0.5  # only there is the upper tail the smaller one
    out[upper] = -special.ndtri(special.gammaincc(k / 2.0, values[upper] / 2.0))
    infinite = np.flatnonzero(np.isinf(out))
    if infinite.size:
        at = infinite[0]
        raise ValueError(
            f"exact-chi2 gaussianisation cannot map {float(values.flat[at])!r}: its "
            f"chi-square({k}) {'upper' if out.flat[at] > 0 else 'lower'} tail probability "
            f"is 0 or underflows, so it has no finite normal score"
        )
    return out


def _chi2_quantiles(levels: np.ndarray, k: int) -> np.ndarray:
    """The chi-square(``k``) values whose normal scores are ``levels``.

    The inverse of :func:`_chi2_scores` up to rounding, through the same
    smaller tail: the lower one at and below 0, the upper one above.
    """
    lower = levels <= 0
    out = np.empty(levels.shape)
    out[lower] = special.gammaincinv(k / 2.0, special.ndtr(levels[lower]))
    out[~lower] = special.gammainccinv(k / 2.0, special.ndtr(-levels[~lower]))
    return 2.0 * out


def hermite(n: int, x):
    """Probabilists' Hermite polynomial ``H_n(x)`` for ``n >= -1``.

    ``H_0 = 1``, ``H_1 = x``, ``H_2 = x^2 - 1``, and in general
    ``H_(n+1)(x) = x H_n(x) - n H_(n-1)(x)``.  For ``n >= 0`` the values come
    from one Clenshaw pass whose steps, in their order, are those of
    ``numpy.polynomial.hermite_e.hermeval(x, [0]*n + [1])``, so they equal its
    values bit for bit.  The index ``n = -1`` is the
    tail-based extension ``H_(-1)(x) = sqrt(2 pi) Psi(x) exp(x^2 / 2)``,
    which lets Gaussian Minkowski-functional formulas treat order zero on
    the same footing as the rest; it is ``sqrt(pi / 2) erfcx(x / sqrt(2))``.
    """
    n = _whole(n, "Hermite index", least=-1)
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    out = _hermite(n, x) if n >= 0 else math.sqrt(math.pi / 2) * special.erfcx(x / math.sqrt(2))
    out = np.asarray(out, dtype=float)
    return float(out) if scalar else out


def _hermite(n: int, x):
    """``H_n(x)``, ``n >= 0``, by the Clenshaw steps of ``hermeval(x, [0]*n + [1])``.

    Each step is ``hermeval``'s own, zero terms included (``0.0 - c``, not ``-c``,
    keeps the sign of a zero), so the values are its bits; the GMF hooks call
    this directly, without :func:`hermite`'s checks.
    """
    if n == 0:
        return 1.0 + 0 * x
    if n == 1:
        return 0.0 + 1.0 * x
    c0, c1 = 0.0, 1.0
    for nd in range(n, 1, -1):
        c0, c1 = 0.0 - c1 * (nd - 1), c0 + c1 * x
    return c0 + c1 * x


# ---------------------------------------------------------------------------
# rectangles and their Lipschitz-Killing curvatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned solid rectangle ``prod_i [0, T_i]`` with positive sides."""

    sides: tuple[float, ...]

    def __post_init__(self):
        sides = tuple(_positive(s, "each rectangle side") for s in self.sides)
        if not sides:
            raise ValueError("a rectangle needs at least one side")
        object.__setattr__(self, "sides", sides)

    @property
    def dim(self) -> int:
        return len(self.sides)

    @classmethod
    def cube(cls, side: float, dim: int) -> "Rectangle":
        return cls((side,) * _whole(dim, "dim"))

    def _metric_lkcs(self, spectral: np.ndarray) -> "LKCVector":
        """``(L_0, ..., L_N)`` in the metric of a checked ``N x N`` spectral matrix (see
        ``metric_rectangle_lkcs``); every curvature of a rectangle in xkit is read here."""
        values = [1.0]
        with np.errstate(over="ignore"):  # LKCVector refuses an overflowed curvature
            for k in range(1, self.dim + 1):
                acc = 0.0
                for subset in itertools.combinations(range(self.dim), k):
                    side_product = math.prod(self.sides[a] for a in subset)
                    sub = spectral[np.ix_(subset, subset)]
                    acc += side_product * math.sqrt(np.linalg.det(sub))
                values.append(acc)
        return LKCVector(values)


@dataclass(frozen=True)
class LKCVector:
    """Lipschitz-Killing curvatures ``(L_0, ..., L_N)`` of an N-dimensional set.

    An entry may be NaN, the marker of an order the caller does not know;
    the sums that need such an order refuse it.  Infinite entries are refused.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("LKC vector must be a non-empty 1-d sequence")
        if np.any(np.isinf(values)):
            raise ValueError(f"LKCs must be finite or NaN (unknown), got {values}")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.size - 1

    def __getitem__(self, j: int) -> float:
        return float(self.values[j])

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self.values)
        return f"LKCVector([{vals}])"


@dataclass(frozen=True)
class GMFSeries:
    """Gaussian-measure Minkowski functionals ``(M_0, ..., M_J)`` of a hitting set.

    ``k`` is the dimension of the Gaussian space the hitting set lives in
    (1 for a scalar threshold, ``k`` for a chi-square construction).  The
    series are the Taylor coefficients of the Gaussian measure of a tube:
    ``gamma_k(Tube(A, rho)) = sum_j rho^j / j! * M_j``.
    """

    k: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "k", _whole(self.k, "ambient Gaussian dimension", least=1))
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("GMF series must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"GMF series must be finite, got {values}")
        if not 0.0 <= values[0] <= 1.0 + 1e-12:
            raise ValueError(f"M_0 is a probability, got {values[0]}")
        object.__setattr__(self, "values", values)

    @property
    def max_order(self) -> int:
        return self.values.size - 1

    def __getitem__(self, j: int) -> float:
        return float(self.values[j])

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self.values)
        return f"GMFSeries(k={self.k}, [{vals}])"


def rectangle_lkcs(rect: Rectangle) -> LKCVector:
    """Lipschitz-Killing curvatures of a solid rectangle.

    For ``prod_i [0, T_i]`` the curvature of order ``j`` is the elementary
    symmetric polynomial ``e_j(T_1, ..., T_N)``: the total j-volume of the
    j-faces containing the origin.  In particular ``L_0 = 1`` (Euler
    characteristic), ``L_1 = sum T_i`` (half the boundary measure scaled),
    and ``L_N`` is the volume.  They are ``Rectangle._metric_lkcs`` in the identity metric.
    """
    return rect._metric_lkcs(np.eye(rect.dim))


def tube_volume_rectangle(rect: Rectangle, rho: float) -> float:
    """Lebesgue volume of the rho-tube around a solid rectangle (Steiner formula).

    ``vol(Tube(A, rho)) = sum_{j=0}^{N} omega_{N-j} rho^{N-j} L_j(A)``
    where ``N = rect.dim`` and ``omega_j`` is the unit-ball volume.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"tube radius must be finite and >= 0, got {rho}")
    lkcs = rectangle_lkcs(rect)
    n = rect.dim
    return float(
        sum(ball_volume(n - j) * rho ** (n - j) * lkcs[j] for j in range(n + 1))
    )


# ---------------------------------------------------------------------------
# Gaussian-measure Minkowski functionals
# ---------------------------------------------------------------------------

def gaussian_gmf(u: float, max_order: int) -> GMFSeries:
    """Minkowski functionals of the half line ``[u, inf)`` under N(0,1).

    ``M_0 = Psi(u)`` and ``M_j = H_(j-1)(u) exp(-u^2/2) / sqrt(2 pi)`` for
    ``j >= 1``; with the ``H_(-1)`` convention the second expression covers
    ``j = 0`` as well.
    """
    max_order = _whole(max_order, "max_order", least=0)
    return GMFSeries(k=1, values=_gaussian_gmfs(_finite_levels(u, "level u"), max_order))


def chi2_gmf(u: float, k: int, max_order: int) -> GMFSeries:
    """Minkowski functionals of the chi-square hitting set ``{x : |x|^2 >= u}``.

    The hitting set is the complement of the ball of radius ``r = sqrt(u)``
    in ``R^k``, so its ``rho``-tube is ``{|x| >= r - rho}`` and its Gaussian
    measure is ``P{chi_k >= r - rho}``.  The functionals are the Taylor
    coefficients of that measure in ``rho``: ``M_0`` is the chi-square upper
    tail at ``u`` and, for ``j >= 1``, a radial derivative of the chi density,

        ``M_j = (-1)^(j-1) * d^(j-1)/dr^(j-1) p_(chi_k)(r)``  at ``r = sqrt(u)``,

    evaluated in closed form by the Leibniz rule (see :func:`_chi2_gmfs`).
    For ``u <= 0`` the hitting set is all of ``R^k`` and the series is
    ``(1, 0, 0, ...)``.
    """
    max_order = _whole(max_order, "max_order", least=0)
    k = _whole(k, "degrees of freedom", least=1)
    return GMFSeries(k=k, values=_chi2_gmfs(_finite_levels(u, "level u"), k, max_order))


# ---------------------------------------------------------------------------
# functionals over arrays of levels (see the module docstring)
# ---------------------------------------------------------------------------

def _gaussian_gmfs(z, max_order: int):
    """``[M_0, ..., M_J]`` of ``{f >= z}`` for a unit-variance Gaussian field."""
    z = np.asarray(z, dtype=float)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return [gaussian_tail(z)] + [_hermite(j, z) * density for j in range(max_order)]


def _stirling_error(z: float) -> float:
    """``log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2``; from ``z = 15`` on by
    Stirling's series (first omitted term < 3e-16), as ``lgamma(z)`` rounds too coarsely."""
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _chi2_gmfs(u, k: int, max_order: int):
    """``[M_0, ..., M_J]`` of ``{chi^2_k >= u}`` from the radial derivatives.

    With ``r = sqrt(u)`` and the chi density ``p(r) = r^(k-1) e^(-r^2/2) / (2^(k/2-1)
    Gamma(k/2))``, the Leibniz rule and ``(e^(-r^2/2))^(n) = (-1)^n H_n(r) e^(-r^2/2)``
    give ``M_(n+1) = p(r) sum_m (-1)^m binom(n, m) (k-1)!/(k-1-m)! r^(-m) H_(n-m)(r)``.
    ``p(r) r^(-top)``, ``top`` the largest ``m``, is one exponential per level, centred
    on ``u = k`` with Stirling's ``Gamma(k/2)``: it neither overflows nor loses digits
    at large ``k``.  Each ``H_j(r)`` and each power of ``r`` is built once per call.
    Levels ``u <= 0`` get ``(1, 0, 0, ...)``.
    """
    u = np.asarray(u, dtype=float)
    inside = u > 0.0
    v = np.where(inside, u, 1.0)
    r = np.sqrt(v)
    top = min(max_order - 1, k - 1)
    log_peak = -0.5 * top * math.log(k) - 0.5 * math.log(math.pi) - _stirling_error(k / 2.0)
    log_density = log_peak + special.xlog1py(0.5 * (k - 1 - top), (v - k) / k) - 0.5 * (v - k)
    density = np.exp(log_density) * inside
    polys = [_hermite(n, r) for n in range(max_order)]
    powers = [r ** (top - m) for m in range(top + 1)]
    gmfs = [chi2_tail(u, k)]
    for n in range(max_order):
        acc = np.zeros_like(r)
        for m in range(min(n, k - 1) + 1):
            coef = (-1) ** m * math.comb(n, m) * math.perm(k - 1, m)
            acc = acc + coef * powers[m] * polys[n - m]
        gmfs.append(density * acc)
    return gmfs


def _t_gmfs(t, nu: int, max_order: int):
    """``[M_0, ..., M_J]`` of ``{T_nu >= t}`` (Worsley 1994, to order 3).

    ``M_2`` carries ``Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu/2))``.  It is taken
    with Stirling's Gammas at ``top >= 30`` of ``nu``'s parity, where
    ``_stirling_error`` uses the series, and brought down to ``nu`` by
    ``Gamma(z+1) = z Gamma(z)`` in exact integers: ``lgamma`` rounds too coarsely.
    """
    if max_order > 3:
        raise CapabilityError(f"Student-t EC densities stop at order 3, got {max_order}")
    t = np.asarray(t, dtype=float)
    density = np.exp(-(nu - 1.0) / 2.0 * np.log1p(t * t / nu)) / math.sqrt(2.0 * math.pi)
    top = max(nu, 30 + nu % 2)
    steps = range(nu, top, 2)
    ratio = math.sqrt(top * math.prod(steps) ** 2 / (nu * math.prod(s + 1 for s in steps) ** 2))
    ratio *= math.exp(
        top / 2.0 * math.log1p(1.0 / top) - 0.5
        + _stirling_error((top + 1.0) / 2.0) - _stirling_error(top / 2.0)
    )
    polys = [np.ones_like(t), ratio * t, (nu - 1.0) / nu * t * t - 1.0]
    return [special.stdtr(nu, -t)] + [p * density for p in polys[:max_order]]


def _f_gmfs(u, n: int, m: int, max_order: int):
    """``[M_0, ..., M_J]`` of ``{F(n, m) >= u}`` (Worsley 1994, to order 3).

    With ``x = n u / m``, ``M_j = 2^((2-j)/2) G_j x^((n-j)/2) (1 + x)^(-(n+m-2)/2) Q_j(x)``,
    ``G_j = Gamma((n+m-j)/2) / (Gamma(n/2) Gamma(m/2))`` (so ``n + m > j``) and ``Q_j``
    a polynomial of degree ``j - 1``.  With ``a = n/2``, ``b = m/2``, ``s = a + b`` and
    ``t = x / (1 + x)``, the factor before ``Q_j`` is ``2^((2-j)/2) G_j t^(a-j/2)
    (1-t)^(b-1+j/2)``, one exponential per level centred on its value at ``u = 1``
    (``t = a/s``).  With Stirling's three Gammas and ``c = s - j/2``, that value's log
    is ``(1-j)/2 log(2 a s / b) + (c - 1/2) log1p(-j / 2s) + j/2 - log(pi)/2`` plus the
    Stirling errors, free of the large cancelling ``lgamma`` terms.  The offsets
    ``log(t s / a) = log1p((u - 1) / (1 + x))`` and ``log((1-t) s / b) =
    -log1p(n (u - 1) / (n + m))`` vanish at ``u = 1``, so ``a`` times them keeps its
    digits near the mode; below ``u = 1/2`` the first is ``log((u + x) / (1 + x))``,
    as ``u - 1`` would drop the digits of a small ``u``.
    Levels ``u <= 0`` get ``(1, 0, 0, ...)``.
    """
    if max_order > min(3, n + m - 1):
        raise CapabilityError(
            f"F({n}, {m}) EC densities stop at order {min(3, n + m - 1)}, got {max_order}"
        )
    u = np.asarray(u, dtype=float)
    inside = u > 0.0
    v = np.where(inside, u, 1.0)
    x = n * v / m
    a, b = n / 2.0, m / 2.0
    s = a + b
    log_t = np.log1p((np.maximum(v, 0.5) - 1.0) / (1.0 + x))  # no log1p(-1) at tiny levels
    log_t = np.where(v < 0.5, np.log((v + x) / (1.0 + x)), log_t)
    log_1mt = -np.log1p(n * (v - 1.0) / (n + m))
    q = (
        (1.0,),
        (-(n - 1.0), m - 1.0),
        ((n - 1.0) * (n - 2.0), -(2.0 * n * m - n - m - 1.0), (m - 1.0) * (m - 2.0)),
    )
    gmfs = [np.where(inside, special.fdtrc(n, m, np.where(inside, u, 0.0)), 1.0)]
    for j in range(1, max_order + 1):
        c = s - j / 2.0
        log_peak = (
            (1 - j) / 2.0 * math.log(2.0 * a * s / b)
            + (c - 0.5) * math.log1p(-j / (2.0 * s))
            + j / 2.0
            - 0.5 * math.log(math.pi)
            + _stirling_error(c) - _stirling_error(a) - _stirling_error(b)
        )
        scale = np.exp(log_peak + (a - j / 2.0) * log_t + (b - 1.0 + j / 2.0) * log_1mt)
        gmfs.append(scale * inside * np.polynomial.polynomial.polyval(x, q[j - 1]))
    return gmfs
