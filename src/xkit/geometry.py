"""Integral-geometric primitives for excursion-set computations.

This module collects the small zoo of special functions and geometric
quantities that every expected-topology formula is built from:

* probabilists' Hermite polynomials ``H_n`` (including the ``n = -1``
  extension built from the Gaussian tail),
* volumes of unit balls and flag coefficients,
* Lipschitz-Killing curvatures (intrinsic volumes) of axis-aligned
  rectangles, together with the Steiner tube-volume expansion,
* Gaussian Minkowski functionals (GMFs) ``[M_0, ..., M_J]`` of the hitting
  sets of the Gaussian, chi-square, Student-t and F marginals (the Taylor
  coefficients of the Gaussian measure of their tubes) over arrays of
  levels; the public series of the Gaussian half line and the chi-square
  ball complement are these lists at one level, and a numerical half-line
  route sits beside them.

Everything here is deterministic, cheap, and heavily cross-checked by
the test suite; the Monte-Carlo and lattice machinery lives elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite_e
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
    "density_derivative_gmf",
]


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
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, special.gammaincc(k / 2.0, np.maximum(x, 0.0) / 2.0), 1.0)
    return out if out.ndim else float(out)


def hermite(n: int, x):
    """Probabilists' Hermite polynomial ``H_n(x)`` for ``n >= -1``.

    ``H_0 = 1``, ``H_1 = x``, ``H_2 = x^2 - 1``, and in general
    ``H_(n+1)(x) = x H_n(x) - n H_(n-1)(x)``.  The index ``n = -1`` is the
    tail-based extension ``H_(-1)(x) = sqrt(2 pi) Psi(x) exp(x^2 / 2)``,
    which lets Gaussian Minkowski-functional formulas treat order zero on
    the same footing as the rest.
    """
    if n < -1:
        raise ValueError(f"Hermite index must be >= -1, got {n}")
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if n == -1:
        out = math.sqrt(2.0 * math.pi) * gaussian_tail(x) * np.exp(0.5 * x * x)
    else:
        out = hermite_e.hermeval(x, [0.0] * n + [1.0])
    out = np.asarray(out, dtype=float)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# rectangles and their Lipschitz-Killing curvatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned solid rectangle ``prod_i [0, T_i]`` with positive sides."""

    sides: tuple[float, ...]

    def __post_init__(self):
        sides = tuple(float(s) for s in self.sides)
        if not sides:
            raise ValueError("a rectangle needs at least one side")
        if any(not math.isfinite(s) or s <= 0 for s in sides):
            raise ValueError(f"rectangle sides must be positive and finite, got {sides}")
        object.__setattr__(self, "sides", sides)

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    @classmethod
    def cube(cls, side: float, dim: int) -> "Rectangle":
        return cls((side,) * dim)


@dataclass(frozen=True)
class LKCVector:
    """Lipschitz-Killing curvatures ``(L_0, ..., L_N)`` of an N-dimensional set.

    Entries may be NaN when a particular order is not measurable by the
    producing routine (lattice estimators only reach the top two orders).
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("LKC vector must be a non-empty 1-d sequence")
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
        if self.k < 1:
            raise ValueError(f"ambient Gaussian dimension must be >= 1, got {self.k}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("GMF series must be a non-empty 1-d sequence")
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
    and ``L_N`` is the volume.
    """
    # np.poly builds prod (x - T_i) whose coefficients alternate in sign
    # with the elementary symmetric polynomials.
    coeffs = np.poly(np.asarray(rect.sides, dtype=float))
    signs = (-1.0) ** np.arange(rect.dim + 1)
    return LKCVector(signs * coeffs)


def tube_volume_rectangle(rect: Rectangle, rho: float) -> float:
    """Lebesgue volume of the rho-tube around a solid rectangle (Steiner formula).

    ``vol(Tube(A, rho)) = sum_{j=0}^{N} omega_{N-j} rho^{N-j} L_j(A)``
    where ``N = rect.dim`` and ``omega_j`` is the unit-ball volume.
    """
    if rho < 0:
        raise ValueError(f"tube radius must be >= 0, got {rho}")
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
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    return GMFSeries(k=1, values=_gaussian_gmfs(float(u), max_order))


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
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    return GMFSeries(k=k, values=_chi2_gmfs(float(u), k, max_order))


# ---------------------------------------------------------------------------
# functionals over arrays of levels (see the module docstring)
# ---------------------------------------------------------------------------

def _gaussian_gmfs(z, max_order: int):
    """``[M_0, ..., M_J]`` of ``{f >= z}`` for a unit-variance Gaussian field."""
    z = np.asarray(z, dtype=float)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return [gaussian_tail(z)] + [hermite(j, z) * density for j in range(max_order)]


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
    at large ``k``.  Levels ``u <= 0`` get ``(1, 0, 0, ...)``.
    """
    u = np.asarray(u, dtype=float)
    inside = u > 0.0
    v = np.where(inside, u, 1.0)
    r = np.sqrt(v)
    top = min(max_order - 1, k - 1)
    log_peak = -0.5 * top * math.log(k) - 0.5 * math.log(math.pi) - _stirling_error(k / 2.0)
    log_density = log_peak + special.xlog1py(0.5 * (k - 1 - top), (v - k) / k) - 0.5 * (v - k)
    density = np.exp(log_density) * inside
    gmfs = [chi2_tail(u, k)]
    for n in range(max_order):
        acc = np.zeros_like(r)
        for m in range(min(n, k - 1) + 1):
            coef = (-1) ** m * math.comb(n, m) * math.perm(k - 1, m)
            acc = acc + coef * r ** (top - m) * hermite(n - m, r)
        gmfs.append(density * acc)
    return gmfs


def _t_gmfs(t, nu: int, max_order: int):
    """``[M_0, ..., M_J]`` of ``{T_nu >= t}`` (Worsley 1994, to order 3)."""
    if max_order > 3:
        raise NotImplementedError(f"Student-t EC densities stop at order 3, got {max_order}")
    t = np.asarray(t, dtype=float)
    density = (1.0 + t * t / nu) ** (-(nu - 1.0) / 2.0) / math.sqrt(2.0 * math.pi)
    ratio = math.exp(math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)) / math.sqrt(nu / 2.0)
    polys = [np.ones_like(t), ratio * t, (nu - 1.0) / nu * t * t - 1.0]
    return [special.stdtr(nu, -t)] + [p * density for p in polys[:max_order]]


def _f_gmfs(u, n: int, m: int, max_order: int):
    """``[M_0, ..., M_J]`` of ``{F(n, m) >= u}`` (Worsley 1994, to order 3).

    With ``x = n u / m``, ``M_j = 2^((2-j)/2) G_j x^((n-j)/2) (1 + x)^(-(n+m-2)/2) Q_j(x)``,
    ``G_j = Gamma((n+m-j)/2) / (Gamma(n/2) Gamma(m/2))`` (so ``n + m > j``) and ``Q_j``
    a polynomial of degree ``j - 1``.  The factor before ``Q_j`` is one exponential
    per level, finite at large ``n`` and ``m``.  Levels ``u <= 0`` get ``(1, 0, 0, ...)``.
    """
    if max_order > min(3, n + m - 1):
        raise NotImplementedError(
            f"F({n}, {m}) EC densities stop at order {min(3, n + m - 1)}, got {max_order}"
        )
    u = np.asarray(u, dtype=float)
    inside = u > 0.0
    x = n * np.where(inside, u, 1.0) / m
    log_norm = math.lgamma(n / 2.0) + math.lgamma(m / 2.0)
    q = (
        (1.0,),
        (-(n - 1.0), m - 1.0),
        ((n - 1.0) * (n - 2.0), -(2.0 * n * m - n - m - 1.0), (m - 1.0) * (m - 2.0)),
    )
    gmfs = [np.where(inside, special.fdtrc(n, m, np.where(inside, u, 0.0)), 1.0)]
    for j in range(1, max_order + 1):
        log_g = math.lgamma((n + m - j) / 2.0) - log_norm + (2 - j) / 2.0 * math.log(2.0)
        scale = np.exp(log_g + special.xlogy((n - j) / 2.0, x) - (n + m - 2.0) / 2.0 * np.log1p(x))
        gmfs.append(scale * inside * np.polynomial.polynomial.polyval(x, q[j - 1]))
    return gmfs


def _central_difference_weights(order: int, half_width: int) -> np.ndarray:
    """Weights of a central finite-difference stencil on integer offsets.

    Solves the Vandermonde moment conditions
    ``sum_i w_i * o_i^m / m! = delta(m, order)`` on offsets
    ``-half_width..half_width``; the resulting stencil has accuracy order
    ``2 * half_width + 1 - order`` rounded down to an even number.
    """
    offsets = np.arange(-half_width, half_width + 1, dtype=float)
    n = offsets.size
    a = np.vstack([offsets ** m / math.factorial(m) for m in range(n)])
    b = np.zeros(n)
    b[order] = 1.0
    return np.linalg.solve(a, b)


def density_derivative_gmf(density, u: float, max_order: int, k: int = 1) -> GMFSeries:
    """Level-derivative series of a bare marginal density, numerically.

    ``M_0`` is obtained by adaptive quadrature of ``density`` over
    ``[u, inf)`` and

        ``M_j = (-1)^(j-1) * d^(j-1)/du^(j-1) density(u)``   for ``j >= 1``

    by high-order central finite differences (stencil accuracy >= 4).  The
    step for the ``d``-th derivative is ``eps^(1/(d+4)) * max(1, |u|)``,
    which balances truncation against the ``1/h^d`` roundoff amplification;
    a fixed tiny step would lose all significant digits by ``d = 3``.

    These are the Gaussian Minkowski functionals only of the half line
    ``[u, inf)`` under the standard normal density, where they reproduce
    :func:`gaussian_gmf`.  The hitting set of a chi-square, t or F field lives
    in a Gaussian space of several dimensions, and its functionals are not
    level derivatives of its marginal density (see :func:`chi2_gmf`); no
    expected-curve route uses this function.

    ``density`` must be vectorised over numpy arrays (the scipy.stats pdf
    methods qualify).
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    from scipy import integrate  # imported on first use: it also loads scipy.optimize

    u = float(u)
    values = np.empty(max_order + 1)
    tail, _ = integrate.quad(density, u, np.inf, limit=200)
    values[0] = min(max(tail, 0.0), 1.0)
    if max_order >= 1:
        values[1] = (-1.0) ** 0 * float(density(u))
    eps = np.finfo(float).eps
    for j in range(2, max_order + 1):
        d = j - 1
        half_width = max(2, (d + 1) // 2 + 1)
        h = eps ** (1.0 / (d + 4)) * max(1.0, abs(u))
        w = _central_difference_weights(d, half_width)
        offsets = np.arange(-half_width, half_width + 1, dtype=float)
        samples = np.asarray(density(u + offsets * h), dtype=float)
        deriv = float(np.dot(w, samples)) / h ** d
        values[j] = (-1.0) ** (j - 1) * deriv
    return GMFSeries(k=k, values=values)
