"""Stationary random fields on regular lattices: simulation, transforms, file format.

Gaussian fields with squared-exponential covariance are drawn exactly by
circulant embedding: the covariance is wrapped onto a torus large enough
that its FFT (the eigenvalue array of the circulant covariance operator)
is nonnegative, and one complex white-noise FFT then yields a field whose
finite-dimensional distributions on the cropped grid are exact up to one
clip: ``_torus_spectrum`` zeroes eigenvalues down to ``-1e-9`` of the
largest, and the sampler's covariance then misses the target by their mass
over the torus size.  That gap is 2.9e-10 of the variance on an anisotropic
12x10x9 grid at spacing 0.02 (torus 128x128x64).  The noise
amplitude ``sqrt(eigenvalues / torus size)`` is cached, and the FFT runs
one axis at a time, cropping each axis to the grid right after its own
transform; the arithmetic is that of one ``fftn`` followed by the crop, bit
for bit.

A Gaussian field is the real part of that FFT.  Because the eigenvalues
are even (they are the FFT of a real array), its imaginary part is a second
exact sample, independent of the first.  Gaussian-derived fields
(chi-square, Student-T, F, and probability-integral "gaussianised"
transforms) are built pointwise from independent Gaussian components taken
in pairs: components ``2m`` and ``2m + 1`` are the real and imaginary parts
of the draw seeded ``component_seed(seed, m)``, so ``k`` components cost
``ceil(k / 2)`` FFTs.  Every simulation is bit-reproducible from ``(model,
shape, spacing, seed)``.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from .geometry import _chi2_gmfs, _f_gmfs, _gaussian_gmfs, _t_gmfs

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
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance}")
        if (self.lambda2 is None) == (self.matrix is None):
            raise ValueError("specify exactly one of lambda2 or matrix")
        if self.lambda2 is not None and not (
            math.isfinite(self.lambda2) and self.lambda2 > 0
        ):
            raise ValueError(f"lambda2 must be positive, got {self.lambda2}")
        if self.matrix is not None:
            object.__setattr__(self, "matrix", _check_spectral_matrix(self.matrix))

    # Value semantics: a matrix enters through its bytes, so models holding
    # equal matrices compare equal, hash alike and share cache entries.
    def _key(self) -> tuple:
        rough = self.lambda2 if self.matrix is None else self.matrix.tobytes()
        return self.variance, rough

    def __eq__(self, other):
        return isinstance(other, CovarianceModel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def isotropic(self) -> bool:
        return self.lambda2 is not None

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


def _check_spectral_matrix(matrix) -> np.ndarray:
    """``matrix`` as a float array, checked square, symmetric and positive definite."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral-moment matrix must be square")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError("spectral-moment matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(m) <= 0):
        raise ValueError("spectral-moment matrix must be positive definite")
    return m


def _unit_variance(cov: CovarianceModel) -> CovarianceModel:
    return cov if cov.variance == 1.0 else replace(cov, variance=1.0)


# Each model class carries the facts that depend only on the model: how a field
# is built from Gaussian components (``_simulate``) and, for a closed-form model,
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

    def _simulate(self, shape, spacing: float, seed: int) -> LatticeField:
        return simulate_gaussian(self.cov, shape, spacing, seed)


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
        if self.k < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {self.k}")
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

    def _simulate(self, shape, spacing: float, seed: int) -> LatticeField:
        values = _sum_of_squares(_component_fields(self.cov, self.k, shape, spacing, seed))
        if self.standardized:
            values = (values - self.k) / math.sqrt(2.0 * self.k)
        return LatticeField(values=values, spacing=spacing)


@dataclass(frozen=True)
class TFieldModel:
    """T field on ``k`` components: ``x_1 sqrt(k-1) / sqrt(x_2^2 + ... + x_k^2)``."""

    k: int
    cov: CovarianceModel

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"a T field needs k >= 2 components, got {self.k}")
        object.__setattr__(self, "cov", _unit_variance(self.cov))

    @property
    def name(self) -> str:
        return f"t:{self.k}"

    def _window(self) -> tuple[float, float]:
        df = self.k - 1
        return 0.0, math.sqrt(df / (df - 2.0)) if df > 2 else 2.0

    def _gmfs(self, levels: np.ndarray, max_order: int):
        return _t_gmfs(levels, self.k - 1, max_order)

    def _simulate(self, shape, spacing: float, seed: int) -> LatticeField:
        comps = _component_fields(self.cov, self.k, shape, spacing, seed)
        denom = _sum_of_squares(comps[1:])
        if np.any(denom == 0.0):
            raise SimulationError("T-field denominator vanished at a grid site")
        values = comps[0] * math.sqrt(self.k - 1.0) / np.sqrt(denom)
        return LatticeField(values=values, spacing=spacing)


@dataclass(frozen=True)
class FFieldModel:
    """F field: ``(m sum_1^n x_i^2) / (n sum_(n+1)^(n+m) x_i^2)``."""

    n: int
    m: int
    cov: CovarianceModel

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"F field needs n, m >= 1, got n={self.n}, m={self.m}")
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

    def _simulate(self, shape, spacing: float, seed: int) -> LatticeField:
        comps = _component_fields(self.cov, self.n + self.m, shape, spacing, seed)
        num = _sum_of_squares(comps[: self.n])
        den = _sum_of_squares(comps[self.n :])
        if np.any(den == 0.0):
            raise SimulationError("F-field denominator vanished at a grid site")
        values = (self.m * num) / (self.n * den)
        return LatticeField(values=values, spacing=spacing)


@dataclass(frozen=True)
class GaussianisedModel:
    """A base field pushed through the probability integral transform.

    For a chi-square base the exact marginal CDF is used; other bases fall
    back to the empirical transform.  The result has standard normal
    marginals but keeps the spatial dependence of the base field.
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

    def _simulate(self, shape, spacing: float, seed: int) -> LatticeField:
        base = simulate_model(self.base, shape, spacing, seed)
        if isinstance(self.base, ChiSquaredModel) and not self.base.standardized:
            return gaussianise(base, mode="exact-chi2", k=self.base.k)
        return gaussianise(base, mode="empirical")


FieldModel = (
    GaussianModel | ChiSquaredModel | TFieldModel | FFieldModel | GaussianisedModel
)


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
            raise ValueError("field values must all be finite")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
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
    """Embedding sizes and FFT eigenvalues of the wrapped covariance.

    Starts from the next power of two past twice the requested lags (the
    minimum for the crop to be distributionally exact) and doubles until all
    eigenvalues are nonnegative, refusing to grow any axis beyond eight
    times its padded size.
    """
    dim = len(shape)
    lam_mat = cov.spectral_matrix(dim)
    sizes = [_next_pow2(max(2 * (n - 1), 1)) for n in shape]
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
        lam = sp_fft.fftn(base).real
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
@functools.lru_cache(maxsize=8)
def _amplitude(cov: CovarianceModel, shape: tuple[int, ...], spacing: float):
    """Torus sizes and the noise amplitude ``sqrt(lam / torus size)``, cached."""
    sizes, lam = _torus_spectrum(cov, shape, spacing)
    return sizes, np.sqrt(lam / float(np.prod(sizes)))


def _circulant_draw(
    cov: CovarianceModel, shape: tuple[int, ...], spacing: float, seed: int
) -> np.ndarray:
    """The complex draw whose real part :func:`simulate_gaussian` returns.

    Its real and imaginary parts are independent exact samples, because
    ``lam`` is even.  The amplitude is cached, and each axis is cropped to
    the grid right after its own 1-D transform, so later axes transform only
    surviving lines.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or any(n < 1 for n in shape):
        raise ValueError(f"grid shape must have positive sizes, got {shape}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be positive, got {spacing}")
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
                stacklevel=3,
            )
    sizes, amplitude = _amplitude(cov, shape, spacing)
    normals = np.random.default_rng(seed).standard_normal((2,) + sizes)
    sample = np.empty(sizes, dtype=complex)
    np.multiply(normals[0], amplitude, out=sample.real)
    np.multiply(normals[1], amplitude, out=sample.imag)
    # Axis by axis in fftn's order, so every line sees the same arithmetic.
    for axis, n in enumerate(shape):
        sample = sp_fft.fft(sample, axis=axis, overwrite_x=True)
        sample = sample[(slice(None),) * axis + (slice(0, n),)]
    return sample


def simulate_gaussian(
    cov: CovarianceModel, shape: tuple[int, ...], spacing: float, seed: int
) -> LatticeField:
    """Draw one exact sample of a stationary Gaussian field on a grid.

    The sampler is deterministic: the same ``(cov, shape, spacing, seed)``
    produce a bit-identical field: the real part of ``fftn((a + 1j*b) *
    sqrt(lam / torus size))`` on the grid, where ``a`` and ``b`` are the
    two blocks of one ``default_rng(seed).standard_normal`` draw.

    The grid must resolve the correlation length (``spacing *
    sqrt(lambda_ii) <= 0.5`` on every axis with more than one point); a grid
    much shorter than six correlation lengths per axis triggers a warning
    because empirical statistics then mix poorly.
    """
    return LatticeField(values=_circulant_draw(cov, shape, spacing, seed).real, spacing=spacing)


def component_seed(seed: int, index: int) -> int:
    """Derived seed number ``index`` of a construction that needs several draws.

    Defined as the first 64-bit word of ``numpy.random.SeedSequence([seed,
    index])``, which numpy documents as stable across releases.  A
    multi-component model seeds its complex draw ``m`` with
    ``component_seed(seed, m)``; that draw's real and imaginary parts are
    components ``2m`` and ``2m + 1``.  Kept public so that consumers can
    reproduce individual components.
    """
    ss = np.random.SeedSequence([int(seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _component_fields(
    cov: CovarianceModel, count: int, shape, spacing: float, seed: int
) -> list[np.ndarray]:
    comps: list[np.ndarray] = []
    for m in range((count + 1) // 2):
        draw = _circulant_draw(cov, shape, spacing, component_seed(seed, m))
        comps.append(draw.real.copy())
        if len(comps) < count:
            comps.append(draw.imag.copy())
        # release this pair's buffer before the next draw allocates its own
        del draw
    return comps


def _sum_of_squares(comps: list[np.ndarray]) -> np.ndarray:
    total = np.zeros(comps[0].shape)
    for c in comps:
        total += c * c
    return total


def simulate_model(
    model: FieldModel, shape: tuple[int, ...], spacing: float, seed: int
) -> LatticeField:
    """Simulate a Gaussian or Gaussian-derived field model.

    Component fields are iid unit-variance Gaussians taken in pairs from
    complex draws: components ``2m`` and ``2m + 1`` are the real and
    imaginary parts of the draw seeded ``component_seed(seed, m)``, so a
    model on ``k`` components costs ``ceil(k / 2)`` draws, and e.g. a
    chi-square field equals the pointwise sum of squares of its components
    exactly, not just in distribution.  A Gaussian model is the real part
    of the draw seeded ``seed`` itself, as in :func:`simulate_gaussian`.
    """
    return model._simulate(shape, spacing, seed)


# ---------------------------------------------------------------------------
# transforms and estimators
# ---------------------------------------------------------------------------

def gaussianise(field: LatticeField, mode: str = "empirical", k: int | None = None) -> LatticeField:
    """Transform marginals to standard normal: ``f ~> Phi^{-1}(F(f))``.

    ``mode="empirical"`` uses the rank CDF ``rank / (n + 1)`` (needs at
    least 100 samples and a non-degenerate field); ``mode="exact-chi2"``
    uses the exact chi-square CDF with ``k`` degrees of freedom, evaluated
    through whichever gamma tail is smaller so both tails keep full
    accuracy.
    """
    values = field.values
    if mode == "empirical":
        if values.size < 100:
            raise ValueError(
                f"empirical gaussianisation needs >= 100 samples, got {values.size}"
            )
        if np.min(values) == np.max(values):
            raise ValueError("cannot gaussianise a constant field (degenerate CDF)")
        from scipy import stats  # imported on first use: it is slow to load

        ranks = stats.rankdata(values, method="average").reshape(values.shape)
        grid = special.ndtri(ranks / (values.size + 1))
        return LatticeField(values=grid, spacing=field.spacing)
    if mode == "exact-chi2":
        if k is None or k < 1:
            raise ValueError("exact-chi2 gaussianisation needs degrees of freedom k >= 1")
        if np.any(values < 0):
            raise ValueError("exact-chi2 gaussianisation needs nonnegative values")
        lower = special.gammainc(k / 2.0, values / 2.0)
        upper = special.gammaincc(k / 2.0, values / 2.0)
        out = np.where(lower <= 0.5, special.ndtri(lower), -special.ndtri(upper))
        return LatticeField(values=out, spacing=field.spacing)
    raise ValueError(f"unknown gaussianisation mode {mode!r}")


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
    interior = tuple(slice(1, -1) for _ in range(dim))
    derivs = []
    for axis in range(dim):
        fwd = tuple(
            slice(2, None) if a == axis else slice(1, -1) for a in range(dim)
        )
        bwd = tuple(
            slice(0, -2) if a == axis else slice(1, -1) for a in range(dim)
        )
        derivs.append((values[fwd] - values[bwd]) / (2.0 * field.spacing))
    sigma2 = float(np.var(values))
    if sigma2 == 0.0:
        raise ValueError("cannot estimate spectral moments of a constant field")
    lam = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            lam[i, j] = lam[j, i] = float(np.mean(derivs[i] * derivs[j])) / sigma2
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
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> LatticeField:
    """Read a field written by :func:`write_field`, validating the layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != FIELD_MAGIC:
        raise FieldFormatError(f"{path}: not a lattice-field file (bad magic)")
    (dim,) = struct.unpack_from("<I", raw, 4)
    if dim < 1 or dim > 64:
        raise FieldFormatError(f"{path}: implausible dimension {dim}")
    header = 8 + 4 * dim + 8
    if len(raw) < header:
        raise FieldFormatError(f"{path}: truncated header")
    shape = struct.unpack_from(f"<{dim}I", raw, 8)
    (spacing,) = struct.unpack_from("<d", raw, 8 + 4 * dim)
    count = int(np.prod(shape, dtype=np.int64))
    if count <= 0:
        raise FieldFormatError(f"{path}: empty grid {shape}")
    expected = header + 8 * count
    if len(raw) != expected:
        raise FieldFormatError(
            f"{path}: payload size {len(raw) - header} bytes does not match "
            f"grid {shape} ({8 * count} bytes expected)"
        )
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=header)
    values = values.reshape(shape).astype(float)
    if not np.all(np.isfinite(values)):
        raise FieldFormatError(f"{path}: field contains non-finite values")
    if not (math.isfinite(spacing) and spacing > 0):
        raise FieldFormatError(f"{path}: invalid spacing {spacing}")
    return LatticeField(values=values, spacing=spacing)
