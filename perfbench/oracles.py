"""Reference results the benchmark checks xkit against.

Nothing here imports ``xkit``.  Every closed form is written out from the
literature, not from the package:

* Gaussian fields: the Gaussian kinematic formula, hand-expanded for 2-D and
  3-D rectangles, and its anisotropic form with metric Lipschitz-Killing
  curvatures ``L_k = sum_{|S|=k} prod_{i in S} T_i sqrt(det Lambda_S)``.
* chi-square and Student-t fields: Worsley's EC densities (Worsley 1994,
  Adv. Appl. Prob. 26, 13-42; the same expressions as ``spm_ECdensity``
  with the FWHM factor ``4 log 2`` replaced by the roughness ``lambda2``).
* F(1, m) fields through ``F = T_m^2``: ``{F >= u}`` is the disjoint union of
  ``{T >= sqrt(u)}`` and ``{T <= -sqrt(u)}``, so its expected EC is
  ``2 E chi{T_m >= sqrt(u)}``.
* The order-1 kinematic formula with hand-coded flag coefficients.
* Lattice Euler characteristics counted face by face from the corners of
  each face, and spectral moments from central differences.

EC densities are returned as an array ``rho[j]``, j = 0..3, for fields whose
unit-variance components have identity second-spectral-moment matrix; the
expected EC over a rectangle is ``sum_j L_j rho_j(u)`` with ``L_j`` the
curvatures measured in the field's metric.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np
from scipy import special

TWO_PI = 2.0 * math.pi


def gaussian_tail(u):
    return 0.5 * special.erfc(np.asarray(u, dtype=float) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# EC densities
# ---------------------------------------------------------------------------

def gaussian_ec_densities(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    e = np.exp(-0.5 * u * u)
    return np.array(
        [
            gaussian_tail(u),
            e / TWO_PI,
            u * e / TWO_PI**1.5,
            (u * u - 1.0) * e / TWO_PI**2,
        ]
    )


def chi2_ec_densities(u, k: int) -> np.ndarray:
    """Worsley's chi-square EC densities at raw levels ``u``.

    For ``u <= 0`` the excursion set is the whole domain: ``rho = (1, 0, 0, 0)``.
    """
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    up = np.where(pos, u, 1.0)
    norm = 2.0 ** ((k - 2) / 2.0) * math.gamma(k / 2.0)
    e = np.exp(-0.5 * up) / norm
    rho = np.array(
        [
            special.gammaincc(k / 2.0, 0.5 * up),
            up ** ((k - 1) / 2.0) * e / TWO_PI**0.5,
            up ** ((k - 2) / 2.0) * e * (up - (k - 1)) / TWO_PI,
            up ** ((k - 3) / 2.0)
            * e
            * (up * up - (2 * k - 1) * up + (k - 1) * (k - 2))
            / TWO_PI**1.5,
        ]
    )
    whole = np.array([1.0, 0.0, 0.0, 0.0]).reshape((4,) + (1,) * u.ndim)
    return np.where(pos, rho, whole)


def t_ec_densities(t, nu: float) -> np.ndarray:
    """Worsley's Student-t EC densities, ``nu`` degrees of freedom."""
    t = np.asarray(t, dtype=float)
    power = (1.0 + t * t / nu) ** (-(nu - 1.0) / 2.0)
    ratio = math.exp(
        special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
    ) / math.sqrt(nu / 2.0)
    return np.array(
        [
            special.stdtr(nu, -t),
            power / TWO_PI,
            ratio * t * power / TWO_PI**1.5,
            ((nu - 1.0) * t * t / nu - 1.0) * power / TWO_PI**2,
        ]
    )


def f1m_ec_densities(u, m: float) -> np.ndarray:
    """F(1, m) EC densities from ``F = T_m^2``; levels must be positive."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("the F(1, m) identity needs positive levels")
    return 2.0 * t_ec_densities(np.sqrt(u), m)


# ---------------------------------------------------------------------------
# curvatures and expected curves
# ---------------------------------------------------------------------------

def metric_lkcs(sides, spectral) -> np.ndarray:
    """Curvatures ``L_0..L_N`` of a rectangle in the metric of ``spectral``."""
    sides = [float(s) for s in sides]
    lam = np.asarray(spectral, dtype=float)
    out = [1.0]
    for k in range(1, len(sides) + 1):
        acc = 0.0
        for subset in itertools.combinations(range(len(sides)), k):
            acc += math.prod(sides[i] for i in subset) * math.sqrt(
                np.linalg.det(lam[np.ix_(subset, subset)])
            )
        out.append(acc)
    return np.array(out)


def ec_from_densities(lkcs, rho) -> np.ndarray:
    """``sum_j L_j rho_j``: the expected EC given metric curvatures."""
    return sum(lkcs[j] * rho[j] for j in range(len(lkcs)))


def gaussian_ec_2d(u, lambda2: float, sides) -> np.ndarray:
    """Expected EC of an isotropic unit-variance Gaussian field on a rectangle."""
    t1, t2 = sides
    u = np.asarray(u, dtype=float)
    e = np.exp(-0.5 * u * u)
    return (
        gaussian_tail(u)
        + math.sqrt(lambda2) * (t1 + t2) * e / TWO_PI
        + lambda2 * t1 * t2 * u * e / TWO_PI**1.5
    )


def gaussian_ec_3d(u, lambda2: float, sides) -> np.ndarray:
    t1, t2, t3 = sides
    u = np.asarray(u, dtype=float)
    e = np.exp(-0.5 * u * u)
    return (
        gaussian_tail(u)
        + math.sqrt(lambda2) * (t1 + t2 + t3) * e / TWO_PI
        + lambda2 * (t1 * t2 + t1 * t3 + t2 * t3) * u * e / TWO_PI**1.5
        + lambda2**1.5 * t1 * t2 * t3 * (u * u - 1.0) * e / TWO_PI**2
    )


# Flag coefficients [n, j] = C(n, j) omega_n / (omega_(n-j) omega_j), with
# unit-ball volumes omega_0..3 = 1, 2, pi, 4 pi / 3.
FLAG_1_0 = 1.0
FLAG_2_1 = math.pi / 2.0
FLAG_3_2 = 2.0


def gaussian_l1_curve(u, lambda2: float, sides) -> np.ndarray:
    """Expected ``L_1`` of the excursion set of an isotropic Gaussian field.

    ``E L_1 = sum_j [1+j, j] (2 pi)^(-j/2) L_(1+j)(M) M_j(u)`` with the Gaussian
    Minkowski functionals ``M_0 = Psi``, ``M_1 = phi``, ``M_2 = u phi``.
    """
    u = np.asarray(u, dtype=float)
    lk = metric_lkcs(sides, lambda2 * np.eye(len(sides)))
    phi = np.exp(-0.5 * u * u) / math.sqrt(TWO_PI)
    gmf = [gaussian_tail(u), phi, u * phi]
    flags = [FLAG_1_0, FLAG_2_1, FLAG_3_2]
    return sum(
        flags[j] * TWO_PI ** (-j / 2.0) * lk[1 + j] * gmf[j]
        for j in range(len(sides))
    )


# ---------------------------------------------------------------------------
# lattice Euler characteristic and spectral moments
# ---------------------------------------------------------------------------

def _face_corner_views(values: np.ndarray, axes: tuple[int, ...]):
    """The 2^|axes| corner arrays of every face spanning ``axes``."""
    views = []
    for offsets in itertools.product((0, 1), repeat=len(axes)):
        index = [slice(None)] * values.ndim
        for axis, off in zip(axes, offsets):
            index[axis] = slice(off, values.shape[axis] - 1 + off)
        views.append(values[tuple(index)])
    return views


def _face_types(ndim: int):
    for k in range(ndim + 1):
        for axes in itertools.combinations(range(ndim), k):
            yield k, axes


def face_count_euler(mask) -> int:
    """EC of the closed cubical complex of a boolean mask, by counting faces.

    A face is present when all of its corners are; ``chi = sum_k (-1)^k N_k``.
    """
    mask = np.asarray(mask, dtype=bool)
    chi = 0
    for k, axes in _face_types(mask.ndim):
        present = np.logical_and.reduce(_face_corner_views(mask, axes))
        chi += (-1) ** k * int(np.count_nonzero(present))
    return chi


def face_count_curve(values, levels) -> np.ndarray:
    """Face-count EC of ``{values >= u}`` at every level, in one pass per face type.

    Each face appears at the minimum of its corners; binning those minima
    against the sorted levels gives how many faces are present at each level.
    """
    values = np.asarray(values, dtype=float)
    levels = np.asarray(levels, dtype=float)
    chi = np.zeros(levels.size, dtype=np.int64)
    for k, axes in _face_types(values.ndim):
        minima = np.minimum.reduce(_face_corner_views(values, axes))
        # faces with minimum >= levels[i] are those whose count c exceeds i
        counts = np.searchsorted(levels, minima.ravel(), side="right")
        hist = np.bincount(counts, minlength=levels.size + 1)
        present = np.cumsum(hist[::-1])[::-1][1:]
        chi += (-1) ** k * present
    return chi


def face_total(shape) -> int:
    """Number of faces of every dimension in the complex of a full grid."""
    return sum(
        math.prod(n - 1 if a in axes else n for a, n in enumerate(shape))
        for _, axes in _face_types(len(shape))
    )


def central_difference_moments(values, spacing: float):
    """Spectral-moment matrix and variance from interior central differences.

    ``Lambda_ij = mean(d_i f * d_j f) / var(f)`` over the sites interior on
    every axis, ``d_i f = (f(x + h e_i) - f(x - h e_i)) / (2 h)``, and
    ``var(f)`` the plain (``ddof = 0``) variance of all sites.
    """
    values = np.asarray(values, dtype=float)
    inner = (slice(1, -1),) * values.ndim
    grads = np.gradient(values, spacing)
    if values.ndim == 1:
        grads = [grads]
    grads = [g[inner] for g in grads]
    var = float(np.var(values))
    lam = np.array([[float(np.mean(gi * gj)) for gj in grads] for gi in grads]) / var
    return lam, var


# ---------------------------------------------------------------------------
# the XKF1 field-file layout: magic, u32 dim, u32 sizes, f64 spacing, f64 values
# ---------------------------------------------------------------------------

def write_xkf(path, values, spacing: float) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"XKF1")
        fh.write(struct.pack(f"<I{values.ndim}I", values.ndim, *values.shape))
        fh.write(struct.pack("<d", spacing))
        fh.write(values.tobytes())


def read_xkf(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"XKF1":
        raise ValueError(f"{path}: not an XKF1 field file")
    (dim,) = struct.unpack_from("<I", raw, 4)
    shape = struct.unpack_from(f"<{dim}I", raw, 8)
    (spacing,) = struct.unpack_from("<d", raw, 8 + 4 * dim)
    values = np.frombuffer(raw, dtype="<f8", offset=16 + 4 * dim).reshape(shape)
    return values.astype(float), spacing
