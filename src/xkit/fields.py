"""Stationary random fields on regular lattices: simulation, transforms, file format.

Gaussian fields with squared-exponential covariance are drawn exactly by
circulant embedding: the covariance is wrapped onto a torus large enough
that its FFT (the eigenvalue array of the circulant covariance operator)
is nonnegative, and one white-noise FFT then yields a field whose
finite-dimensional distributions on the cropped grid are exact up to three
cuts.  The torus reaches only a little past the grid: along each axis, to
where the covariance is below ``e^-40`` of the variance (cut-off circulant
embedding; Wood & Chan 1994, Gneiting et al. 2006), so a lag the torus
wraps has its true and its wrapped covariance both below that.
``_torus_spectrum`` zeroes eigenvalues down to ``-1e-9`` of the
largest, and the sampler's covariance then misses the target by their mass
over the torus size.  That gap is 2.9e-10 of the variance on an anisotropic
12x10x9 grid at spacing 0.02 (torus 128x128x64).  And the smallest
half-spectrum modes, whose shares of the variance sum to at most ``1e-14``,
are not drawn: on an oversampled grid the spectrum is a narrow bump.

A field is real, so its noise needs only the half spectrum that ``irfft``
reads: one ``standard_normal`` call draws complex noise for the kept modes,
the cached amplitude scales it, and it fills a zero slab of the half
spectrum cut to the last-axis width that holds every kept mode.  The
inverse transform runs one axis at a time, cropping each leading axis to the
grid right after its own ``ifft`` and ending with ``irfft`` on the last
axis, which zero-pads the cut width; the arithmetic is that of one
``irfftn`` of the whole half spectrum followed by the crop, bit for bit.

Gaussian-derived fields (chi-square, Student-T, F, and
probability-integral "gaussianised" transforms) are built pointwise from
independent Gaussian components as plain arrays: component ``i`` is the
``simulate_gaussian`` field seeded ``component_seed(seed, i)``, so ``k``
components cost ``k`` draws, and ``simulate_model`` checks the grid and wraps
the combined field once.  Each component is squared and added as soon as it
is drawn, so memory does not grow with the component count.  Every
simulation is bit-reproducible from ``(model, shape, spacing, seed)``.
"""

from __future__ import annotations

import functools
import io
import math
import struct
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from .geometry import _check_spectral_matrix, _chi2_gmfs, _chi2_scores, _f_gmfs, _gaussian_gmfs
from .geometry import _positive, _t_gmfs, _whole

__all__ = [
    "CovarianceModel",
    "GaussianModel",
    "ChiSquaredModel",
    "TFieldModel",
    "FFieldModel",
    "GaussianisedModel",
    "LatticeField",
    "SimulationError",
    "FieldFormatError",
    "simulate_gaussian",
    "simulate_model",
    "component_seed",
    "gaussianise",
    "estimate_spectral_moments",
    "write_field",
    "read_field",
]

FIELD_MAGIC = b"XKF1"

_EIGENVALUE_TOL = 1e-9
# The half-spectrum modes left undrawn carry at most this share of the variance.
_UNDRAWN_SHARE = 1e-14
# The torus reaches past each grid axis to where the covariance is below e^-40.
_CUTOFF_EXPONENT = 40.0


class SimulationError(RuntimeError):
    """The requested field cannot be simulated exactly (embedding failure)."""


class FieldFormatError(ValueError):
    """A field file does not conform to the binary lattice-field format."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceModel:
    """Squared-exponential covariance ``C(x) = variance * exp(-x' L x / 2)``.

    ``L`` is the matrix of second spectral moments: ``lambda2 * I`` in the
    isotropic case, or an explicit symmetric positive-definite ``matrix``.
    Exactly one of ``lambda2`` / ``matrix`` must be given.
    """

    variance: float = 1.0
    lambda2: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    # equality and hashing see the matrix by value, so equal matrices share cache entries
    _matrix_bytes: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variance", _positive(self.variance, "variance"))
        if (self.lambda2 is None) == (self.matrix is None):
            raise ValueError("specify exactly one of lambda2 or matrix")
        if self.lambda2 is not None:
            object.__setattr__(self, "lambda2", _positive(self.lambda2, "lambda2"))
        if self.matrix is not None:
            object.__setattr__(self, "matrix", _check_spectral_matrix(self.matrix))
            object.__setattr__(self, "_matrix_bytes", self.matrix.tobytes())

    def spectral_matrix(self, dim: int) -> np.ndarray:
        """The matrix of second spectral moments in ``dim`` dimensions."""
        if self.lambda2 is not None:
            return self.lambda2 * np.eye(dim)
        if self.matrix.shape[0] != dim:
            raise ValueError(
                f"covariance is {self.matrix.shape[0]}-dimensional, grid is {dim}-dimensional"
            )
        return self.matrix

    def correlation(self, lags: np.ndarray) -> np.ndarray:
        """Correlation at displacement vectors ``lags`` (shape ``(..., dim)``)."""
        lags = np.asarray(lags, dtype=float)
        lam = self.spectral_matrix(lags.shape[-1])
        quad = np.einsum("...i,ij,...j->...", lags, lam, lags)
        return np.exp(-0.5 * quad)


def _unit_variance(cov: CovarianceModel) -> CovarianceModel:
    return cov if cov.variance == 1.0 else replace(cov, variance=1.0)


# Each model class carries the facts that depend only on the model: how a field's
# values are built from Gaussian components (``_simulate``) and, for a closed-form model,
# the (location, scale) of its marginal law for level scans (``_window``) and the
# functionals ``[M_0, ..., M_J]`` of its hitting sets over levels (``_gmfs``).

@dataclass(frozen=True)
class GaussianModel:
    """Stationary mean-zero Gaussian field."""

    cov: CovarianceModel

    @property
    def name(self) -> str:
        return "gaussian"

    def _window(self) -> tuple[float, float]:
        return 0.0, math.sqrt(self.cov.variance)

    def _gmfs(self, levels: np.ndarray, max_order: int):
        return _gaussian_gmfs(levels / math.sqrt(self.cov.variance), max_order)

    def _simulate(self, shape, spacing: float, seed: int) -> np.ndarray:
        return _draw(self.cov, shape, spacing, seed)


@dataclass(frozen=True)
class ChiSquaredModel:
    """Sum of squares of ``k`` iid unit-variance Gaussian fields.

    With ``standardized=True`` the field is affinely rescaled to mean 0 and
    variance 1, i.e. ``(sum g_i^2 - k) / sqrt(2k)``, which is the form used
    when matching first and second moments against Gaussian data.
    """

    k: int
    cov: CovarianceModel
    standardized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", _whole(self.k, "degrees of freedom", least=1))
        object.__setattr__(self, "cov", _unit_variance(self.cov))

    @property
    def name(self) -> str:
        return f"chisq:{self.k}"

    def _window(self) -> tuple[float, float]:
        if self.standardized:
            return 0.0, 1.0
        return float(self.k), math.sqrt(2.0 * self.k)

    def _gmfs(self, levels: np.ndarray, max_order: int):
        raw = self.k + levels * math.sqrt(2.0 * self.k) if self.standardized else levels
        return _chi2_gmfs(raw, self.k, max_order)

    def _simulate(self, shape, spacing: float, seed: int) -> np.ndarray:
        values = _sum_of_squares(self.cov, range(self.k), shape, spacing, seed)
        return (values - self.k) / math.sqrt(2.0 * self.k) if self.standardized else values


@dataclass(frozen=True)
class TFieldModel:
    """T field on ``k`` components: ``x_1 sqrt(k-1) / sqrt(x_2^2 + ... + x_k^2)``."""

    k: int
    cov: CovarianceModel

    def __post_init__(self):
        object.__setattr__(self, "k", _whole(self.k, "the component count k", least=2))
        object.__setattr__(self, "cov", _unit_variance(self.cov))

    @property
    def name(self) -> str:
        return f"t:{self.k}"

    def _window(self) -> tuple[float, float]:
        df = self.k - 1
        return 0.0, math.sqrt(df / (df - 2.0)) if df > 2 else 2.0

    def _gmfs(self, levels: np.ndarray, max_order: int):
        return _t_gmfs(levels, self.k - 1, max_order)

    def _simulate(self, shape, spacing: float, seed: int) -> np.ndarray:
        # scaled at once, so the draw's torus-wide buffer is freed before the others are drawn
        first = _draw(self.cov, shape, spacing, component_seed(seed, 0)) * math.sqrt(self.k - 1.0)
        denom = _sum_of_squares(self.cov, range(1, self.k), shape, spacing, seed)
        if np.any(denom == 0.0):
            raise SimulationError("T-field denominator vanished at a grid site")
        return first / np.sqrt(denom)


@dataclass(frozen=True)
class FFieldModel:
    """F field: ``(m sum_1^n x_i^2) / (n sum_(n+1)^(n+m) x_i^2)``."""

    n: int
    m: int
    cov: CovarianceModel

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "degrees of freedom n", least=1))
        object.__setattr__(self, "m", _whole(self.m, "degrees of freedom m", least=1))
        object.__setattr__(self, "cov", _unit_variance(self.cov))

    @property
    def name(self) -> str:
        return f"f:{self.n}:{self.m}"

    def _window(self) -> tuple[float, float]:
        n, m = self.n, self.m
        if m <= 4:
            return 1.0, 3.0
        # the standard deviation of the F(n, m) law, finite for m > 4
        return 1.0, max(1.0, math.sqrt(2 * m * m * (n + m - 2) / (n * (m - 2) ** 2 * (m - 4))))

    def _gmfs(self, levels: np.ndarray, max_order: int):
        return _f_gmfs(levels, self.n, self.m, max_order)

    def _simulate(self, shape, spacing: float, seed: int) -> np.ndarray:
        num = _sum_of_squares(self.cov, range(self.n), shape, spacing, seed)
        den = _sum_of_squares(self.cov, range(self.n, self.n + self.m), shape, spacing, seed)
        if np.any(den == 0.0):
            raise SimulationError("F-field denominator vanished at a grid site")
        return (self.m * num) / (self.n * den)


@dataclass(frozen=True)
class GaussianisedModel:
    """A base field pushed through the probability integral transform.

    An unstandardised chi-square base takes its exact marginal CDF, and every
    other base (a standardised chi-square too) the empirical transform.  The
    result has standard normal marginals but keeps the spatial dependence of
    the base field.  With the exact CDF, an increasing transform, an expected
    EC curve is counted on the chi-square draws at pulled-back levels (see
    :func:`xkit.expectations.expected_ec_curve`).
    """

    base: "FieldModel"

    def __post_init__(self):
        if isinstance(self.base, GaussianisedModel):
            raise ValueError("gaussianising twice is not supported")

    @property
    def name(self) -> str:
        return f"gaussianised-{self.base.name}"

    @property
    def cov(self) -> CovarianceModel:
        """Covariance of the base field's Gaussian components."""
        return self.base.cov

    @property
    def _chi2_k(self) -> int | None:
        """The base's degrees of freedom when its exact CDF is used, else ``None``."""
        base = self.base
        return base.k if isinstance(base, ChiSquaredModel) and not base.standardized else None

    def _simulate(self, shape, spacing: float, seed: int) -> np.ndarray:
        return _normal_scores(self.base._simulate(shape, spacing, seed), self._chi2_k)


FieldModel = GaussianModel | ChiSquaredModel | TFieldModel | FFieldModel | GaussianisedModel


# ---------------------------------------------------------------------------
# lattice container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeField:
    """Field values sampled on a regular grid with uniform spacing."""

    values: np.ndarray = field(repr=False)
    spacing: float

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.size == 0:
            raise ValueError("field must contain at least one sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "spacing", _positive(self.spacing, "spacing"))
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dim(self) -> int:
        return self.values.ndim

    def __repr__(self):
        return f"LatticeField(shape={self.shape}, spacing={self.spacing})"


# ---------------------------------------------------------------------------
# circulant embedding
# ---------------------------------------------------------------------------

def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 2 ** (int(n - 1).bit_length())


def _torus_spectrum(cov: CovarianceModel, shape: tuple[int, ...], spacing: float):
    """Embedding sizes and the ``rfftn`` half of the wrapped covariance's eigenvalues.

    Axis ``a`` starts at the smaller of the next power of two past twice the
    requested lags and the next fast FFT length past the grid plus the reach
    ``sqrt(80 (L^-1)_aa)``, past which the covariance is below ``e^-40``
    whatever the other coordinates.  Sizes double until all eigenvalues are
    nonnegative, refusing to grow any axis beyond eight times its padded
    size.  The eigenvalues are even, so the half holds all of them.
    """
    dim = len(shape)
    lam_mat = cov.spectral_matrix(dim)
    reach = np.sqrt(2.0 * _CUTOFF_EXPONENT * np.diag(np.linalg.inv(lam_mat)))
    sizes = [
        min(_next_pow2(max(2 * (n - 1), 1)), sp_fft.next_fast_len(n + math.ceil(r / spacing)))
        for n, r in zip(shape, reach)
    ]
    caps = [8 * _next_pow2(n) for n in shape]
    while True:
        axes = [
            spacing * (((np.arange(m) + m // 2) % m) - m // 2).astype(float)
            for m in sizes
        ]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        quad = np.zeros(tuple(sizes))
        for i in range(dim):
            for j in range(dim):
                if lam_mat[i, j] != 0.0:
                    quad = quad + lam_mat[i, j] * grids[i] * grids[j]
        base = cov.variance * np.exp(-0.5 * quad)
        lam = sp_fft.rfftn(base).real
        min_lam, max_lam = float(lam.min()), float(lam.max())
        if min_lam >= -_EIGENVALUE_TOL * max_lam:
            np.maximum(lam, 0.0, out=lam)
            return tuple(sizes), lam
        if any(2 * m > cap for m, cap in zip(sizes, caps)):
            raise SimulationError(
                "circulant embedding is not nonnegative definite within the 8x "
                f"padding cap (grid {shape}, torus {tuple(sizes)}, most negative "
                f"eigenvalue {min_lam:.3e} against maximum {max_lam:.3e}); "
                "increase the grid extent or the spacing"
            )
        sizes = [2 * m for m in sizes]


# Embedding amplitudes are expensive to build and reused by every draw.  The
# cache is thread-safe; two threads missing on one key may both compute it.
# An entry holds 16 bytes per kept mode, an intp index and a float64
# amplitude.  The doubling loop caps torus axis a at 8 p_a, p_a =
# next_pow2(n_a), so an entry holds at most
# 16 * (8 p_0) * ... * (8 p_(d-2)) * (4 p_(d-1) + 1) bytes: 1,077,936,128
# (1.0 GiB) for a 64**3 grid, so 8 entries of grids up to 64**3 stay under
# 8.1 GiB.  Typical entries are far smaller: 256**2 at lambda2 = 200 keeps
# 1,430 modes in 22,880 bytes, and 64**3 at lambda2 = 880 keeps 82% of an
# 84 x 84 x 43 half spectrum in 3,981,248 bytes.
@functools.lru_cache(maxsize=8)
def _amplitude(cov: CovarianceModel, shape: tuple[int, ...], spacing: float):
    """Torus sizes, kept width, kept modes and their amplitudes, cached.

    The modes and amplitudes are those :func:`simulate_gaussian` defines: a
    mode off last-axis planes ``0`` and ``m / 2`` stands for itself and its
    conjugate, so it carries ``2 lam / N`` of the variance.  ``kept`` holds
    flat C-order indices into the half spectrum cut to ``width``, one past
    the largest last-axis index of a kept mode.
    """
    sizes, lam = _torus_spectrum(cov, shape, spacing)
    pairs = np.ones(lam.shape[-1])  # the torus modes each half-spectrum mode stands for
    pairs[1 : (sizes[-1] + 1) // 2] = 2.0
    share = lam * pairs
    ascending = np.sort(share, axis=None)
    budget = np.cumsum(ascending)
    keep = share >= ascending[np.searchsorted(budget, _UNDRAWN_SHARE * budget[-1], side="right")]
    width = int(np.nonzero(keep)[-1].max()) + 1
    keep = keep[..., :width]
    amplitude = np.sqrt(lam / (pairs * float(np.prod(sizes))))[..., :width][keep]
    return sizes, width, np.flatnonzero(keep), amplitude


def simulate_gaussian(
    cov: CovarianceModel, shape: tuple[int, ...], spacing: float, seed: int
) -> LatticeField:
    """Draw one exact sample of a stationary Gaussian field on a grid.

    The sampler is deterministic: the same ``(cov, shape, spacing, seed)``
    produce a bit-identical field: ``irfftn(z * amplitude, norm="forward")``
    on the torus, cropped to the grid, where ``z`` is complex noise on the
    kept modes of the half spectrum, in C order, whose real and imaginary
    parts alternate in one ``default_rng(seed).standard_normal`` draw, and
    zero on the others.  The amplitude is ``sqrt(lam / 2N)``
    (``sqrt(lam / N)`` on last-axis planes ``0`` and ``m / 2``) for torus
    eigenvalues ``lam`` and torus size ``N``.  A mode is kept unless it is
    among the smallest whose shares of the variance (``2 lam / N``, or
    ``lam / N`` on those two planes) sum to at most ``1e-14``; modes that
    tie with the smallest kept one are kept.

    The grid must resolve the correlation length (``spacing *
    sqrt(lambda_ii) <= 0.5`` on every axis with more than one point); a grid
    much shorter than six correlation lengths per axis triggers a warning
    because empirical statistics then mix poorly.
    """
    shape, spacing, seed = _check_grid(cov, shape, spacing, seed)
    return LatticeField(values=_draw(cov, shape, spacing, seed), spacing=spacing)


def _check_grid(cov: CovarianceModel, shape, spacing, seed):
    """The checked ``(shape, spacing, seed)`` of a grid that resolves ``cov``."""
    shape = tuple(_whole(n, "each grid size", least=1) for n in shape)
    if not shape:
        raise ValueError("grid shape must have at least one axis")
    spacing = _positive(spacing, "spacing")
    seed = _whole(seed, "seed", least=0)
    lam_mat = cov.spectral_matrix(len(shape))
    for axis, n in enumerate(shape):
        if n < 2:
            continue
        scale = math.sqrt(lam_mat[axis, axis])
        if spacing * scale > 0.5:
            raise ValueError(
                f"spacing {spacing} does not resolve the correlation length on "
                f"axis {axis}: spacing * sqrt(lambda_{axis}{axis}) = "
                f"{spacing * scale:.3f} > 0.5"
            )
        if (n - 1) * spacing < 6.0 / scale:
            warnings.warn(
                f"grid extent {(n - 1) * spacing:.4g} on axis {axis} is below six "
                f"correlation lengths ({6.0 / scale:.4g}); spatial averages will "
                "be noisy",
                stacklevel=3,  # each public sampler calls this itself: name its caller
            )
    return shape, spacing, seed


def _draw(cov: CovarianceModel, shape: tuple[int, ...], spacing: float, seed: int) -> np.ndarray:
    """The values of :func:`simulate_gaussian`'s field on a checked grid."""
    sizes, width, kept, amplitude = _amplitude(cov, shape, spacing)
    normals = np.random.default_rng(seed).standard_normal((kept.size, 2))
    normals *= amplitude[:, None]
    sample = np.zeros(sizes[:-1] + (width,), dtype=complex)
    sample.reshape(-1)[kept] = normals.view(complex)[:, 0]
    # Axis by axis in irfftn's order, so every line sees the same arithmetic.
    for axis, n in enumerate(shape[:-1]):
        sample = sp_fft.ifft(sample, axis=axis, norm="forward", overwrite_x=True)
        sample = sample[(slice(None),) * axis + (slice(0, n),)]
    return sp_fft.irfft(sample, n=sizes[-1], norm="forward")[..., : shape[-1]]


def component_seed(seed: int, index: int) -> int:
    """Derived seed number ``index`` of a construction that needs several draws.

    Defined as the first 64-bit word of ``numpy.random.SeedSequence([seed,
    index])``, which numpy documents as stable across releases.  Component
    ``i`` of a multi-component model is the draw seeded ``component_seed(seed,
    i)``.  Kept public so that consumers can reproduce individual components.
    """
    entropy = [_whole(seed, "seed", least=0), _whole(index, "component index", least=0)]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def _sum_of_squares(cov: CovarianceModel, indices, shape, spacing: float, seed: int) -> np.ndarray:
    """Sum of squares of components ``indices``, each added as soon as it is drawn."""
    return sum(np.square(_draw(cov, shape, spacing, component_seed(seed, i))) for i in indices)


def simulate_model(
    model: FieldModel, shape: tuple[int, ...], spacing: float, seed: int
) -> LatticeField:
    """Simulate a Gaussian or Gaussian-derived field model.

    Component fields are iid unit-variance Gaussians, one draw each: component ``i`` is
    the draw seeded ``component_seed(seed, i)``, so a model on ``k`` components costs ``k``
    draws, and e.g. a chi-square field equals the pointwise sum of squares of its
    components exactly, not just in distribution.  A Gaussian model is the draw seeded
    ``seed`` itself, as in :func:`simulate_gaussian`, whose grid rules are checked once
    per field: a short axis warns once, naming the caller.
    """
    shape, spacing, seed = _check_grid(model.cov, shape, spacing, seed)
    return LatticeField(values=model._simulate(shape, spacing, seed), spacing=spacing)


# ---------------------------------------------------------------------------
# transforms and estimators
# ---------------------------------------------------------------------------

def gaussianise(field: LatticeField, mode: str = "empirical", k: int | None = None) -> LatticeField:
    """Transform marginals to standard normal: ``f ~> Phi^{-1}(F(f))``.

    ``mode="empirical"`` uses the rank CDF ``rank / (n + 1)`` (needs at
    least 100 samples and a non-degenerate field); ``mode="exact-chi2"``
    uses the exact chi-square CDF with ``k`` degrees of freedom (a whole
    number of at least 1), evaluated through whichever gamma tail is smaller
    so both tails keep full accuracy.  A value whose tail probability is 0
    or underflows (a chi-square value of 0, say) has no finite normal score
    and is refused.  The exact transform is increasing, but its computed
    values are not monotone at the rounding scale: within +-3000 ULPs of the
    chi-square values of 81 levels in [-4, 4] (k = 1, 2, 3, 5, 9, 20) they step
    back 179,006 times, by up to 1.8e-14; for levels in [-25, 25] and k up to
    1000, values up to 3.4e-13 (relative) from a level's chi-square value
    score on its wrong side.  So a curve counted at pulled-back levels has
    the same excursion sets as one counted on the scores, up to the rounding
    of one pulled level per level.
    """
    if mode not in ("empirical", "exact-chi2"):
        raise ValueError(f"unknown gaussianisation mode {mode!r}")
    k = None if mode == "empirical" else _whole(k, "degrees of freedom", least=1)
    return LatticeField(values=_normal_scores(field.values, k), spacing=field.spacing)


def _normal_scores(values: np.ndarray, k: int | None) -> np.ndarray:
    """:func:`gaussianise`'s values: exact chi-square(``k``) or, if ``k`` is None, empirical."""
    if k is not None:
        return _chi2_scores(values, k)
    if values.size < 100:
        raise ValueError(f"empirical gaussianisation needs >= 100 samples, got {values.size}")
    if np.min(values) == np.max(values):
        raise ValueError("cannot gaussianise a constant field (degenerate CDF)")
    from scipy import stats  # imported on first use: it is slow to load

    ranks = stats.rankdata(values, method="average").reshape(values.shape)
    return special.ndtri(ranks / (values.size + 1))


def estimate_spectral_moments(field: LatticeField) -> tuple[np.ndarray, float]:
    """Estimate the spectral-moment matrix and variance of a stationary field.

    Derivatives are central differences ``(f(x + e_i d) - f(x - e_i d)) /
    (2 d)`` restricted to interior points.  The entry ``Lambda_ij`` is the
    plain second moment ``mean(d_i f * d_j f)`` over the interior -- the
    derivative mean is *not* subtracted, matching the population definition
    for a mean-zero field -- divided by the sample variance ``var(f)``
    (``ddof=0``) so the estimate refers to the unit-variance rescaling.
    """
    values = field.values
    dim = values.ndim
    if any(n < 3 for n in values.shape):
        raise ValueError(
            f"spectral-moment estimation needs >= 3 points per axis, got {values.shape}"
        )
    # the derivatives share one stack and the products one buffer: the same
    # operations in the same order as separate arrays, so the same bits.
    # Separate arrays go back to the system at each return, and a 64^3 call
    # then faults in about 1,400 fresh pages (ru_minflt), against none
    derivs = np.empty((dim, *(n - 2 for n in values.shape)))
    for axis in range(dim):
        fwd = tuple(
            slice(2, None) if a == axis else slice(1, -1) for a in range(dim)
        )
        bwd = tuple(
            slice(0, -2) if a == axis else slice(1, -1) for a in range(dim)
        )
        np.subtract(values[fwd], values[bwd], out=derivs[axis])
        derivs[axis] /= 2.0 * field.spacing
    sigma2 = float(np.var(values))
    if sigma2 == 0.0:
        raise ValueError("cannot estimate spectral moments of a constant field")
    lam = np.empty((dim, dim))
    product = np.empty(derivs.shape[1:])
    for i in range(dim):
        for j in range(i, dim):
            np.multiply(derivs[i], derivs[j], out=product)
            lam[i, j] = lam[j, i] = float(np.mean(product)) / sigma2
    return lam, sigma2


# ---------------------------------------------------------------------------
# binary lattice-field format
# ---------------------------------------------------------------------------
#
# Layout (little endian):
#   bytes 0..3   magic "XKF1"
#   u32          dim
#   u32 * dim    grid size per axis
#   f64          spacing
#   f64 * prod   values, row-major (C order)

def write_field(field: LatticeField, path) -> None:
    """Write a field in the binary lattice format (bit-exact round trip)."""
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<I", field.dim))
        fh.write(struct.pack(f"<{field.dim}I", *field.shape))
        fh.write(struct.pack("<d", field.spacing))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8"))  # no bytes copy


def read_field(path) -> LatticeField:
    """Read a field written by :func:`write_field`, validating the layout.

    The payload is read straight into the returned array, made only once the
    file's size matches the header's grid."""
    with open(path, "rb") as source:
        # a pipe is held in memory, so that its size is known before the array is made
        fh = source if source.seekable() else io.BytesIO(source.read())
        head = fh.read(8)
        if len(head) < 8 or head[:4] != FIELD_MAGIC:
            raise FieldFormatError(f"{path}: not a lattice-field file (bad magic)")
        (dim,) = struct.unpack_from("<I", head, 4)
        if dim < 1 or dim > 64:
            raise FieldFormatError(f"{path}: implausible dimension {dim}")
        header = fh.read(4 * dim + 8)
        if len(header) < 4 * dim + 8:
            raise FieldFormatError(f"{path}: truncated header")
        shape = struct.unpack_from(f"<{dim}I", header)
        (spacing,) = struct.unpack_from("<d", header, 4 * dim)
        count = math.prod(shape)
        if count <= 0:
            raise FieldFormatError(f"{path}: empty grid {shape}")
        payload = fh.seek(0, 2) - fh.seek(16 + 4 * dim)  # the file's size less the header
        if payload == 8 * count:
            values = np.empty(shape, dtype="<f8")
            payload = fh.readinto(values) + len(fh.read())  # as read, should the file change
        if payload != 8 * count:
            raise FieldFormatError(
                f"{path}: payload size {payload} bytes does not match "
                f"grid {shape} ({8 * count} bytes expected)"
            )
    try:
        return LatticeField(values=values, spacing=spacing)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
