"""Acceptance gate: one test per headline guarantee, one verdict line each.

Every test prints ``[criterion N] <name>: PASS|FAIL - <measured numbers>``
before asserting, so ``pytest -s tests/test_acceptance.py`` reads as a
scorecard.  The Monte-Carlo criteria (2, 3, 6, 7) re-run their experiments
in full with pinned seeds; the whole gate takes a few minutes, dominated by
the 20,000-realisation tail-probability study of criterion 6.

Criterion 3 compares the mean lattice EC with the lattice's own exact
expectation.  A 64**3 lattice of the unit cube at lambda2 = 880 puts the
grid step at h * sqrt(lambda2) = 0.471, and the closed cubical complex is
then a biased estimator of the continuum EC.  By linearity its mean is

    E chi(u) = sum_k (-1)^k N_k P_k(u),  N_k = C(3,k) n^(3-k) (n-1)^k,

where P_k(u) is the probability that all 2^k corners of a k-face are >= u
and corner correlations are rho^Hamming with rho = exp(-lambda2 h^2 / 2).
``_lattice_ec_expectation`` evaluates it without simulation.  At 64**3 it
exceeds the continuum curve by up to 55 (near u = +1, about 12
Monte-Carlo SEs), so against the continuum only 25/101 levels are covered,
against the exact lattice expectation all 101.  The criterion stays tied
to the closed form by grid refinement: the largest gap to the continuum
curve falls 55.4 -> 13.4 -> 3.8 over 64**3, 128**3 and 256**3, roughly as
h^2, and the test asserts at least a twofold fall per halving of h.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, ndimage, special, stats

from xkit.expectations import (
    expected_ec_curve,
    expected_ec_gaussian_rectangle,
    expected_lkc_general,
    expected_lkc_isotropic,
    identify_model,
    metric_rectangle_lkcs,
    threshold,
)
from xkit.fields import (
    ChiSquaredModel,
    CovarianceModel,
    FFieldModel,
    GaussianModel,
    GaussianisedModel,
    TFieldModel,
    estimate_spectral_moments,
    simulate_model,
)
from xkit.geometry import (
    GMFSeries,
    LKCVector,
    Rectangle,
    chi2_gmf,
    gaussian_gmf,
    hermite,
    rectangle_lkcs,
    tube_volume_rectangle,
)
from xkit.topology import ECCurve, ec_curve, euler_characteristic

SQUARE = Rectangle((1.0, 1.0))
CUBE = Rectangle((1.0, 1.0, 1.0))
LEVELS_101 = np.linspace(-5.0, 5.0, 101)


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    flag = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {flag} - {detail}")
    return ok


def _gauss_tail(u: float) -> float:
    return 0.5 * math.erfc(u / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# criterion 1: kinematic sum vs hand-expanded square/cube formulas
# ---------------------------------------------------------------------------

def _square_eec_by_hand(u: float, lam: float, t: float) -> float:
    e = math.exp(-0.5 * u * u)
    return (
        _gauss_tail(u)
        + 2.0 * t * math.sqrt(lam) / (2.0 * math.pi) * e
        + t * t * lam * u / (2.0 * math.pi) ** 1.5 * e
    )


def _cube_eec_by_hand(u: float, lam: float, t: float) -> float:
    e = math.exp(-0.5 * u * u)
    return (
        _gauss_tail(u)
        + 3.0 * t * math.sqrt(lam) / (2.0 * math.pi) * e
        + 3.0 * t * t * lam * u / (2.0 * math.pi) ** 1.5 * e
        + t ** 3 * lam ** 1.5 * (u * u - 1.0) / (2.0 * math.pi) ** 2 * e
    )


def test_criterion_1_closed_form_cross_check():
    rng = np.random.default_rng(12021)
    worst = 0.0
    for dim, hand in ((2, _square_eec_by_hand), (3, _cube_eec_by_hand)):
        for _ in range(100):
            u = rng.uniform(-4.0, 5.0)
            lam = rng.uniform(10.0, 1000.0)
            t = rng.uniform(0.3, 2.0)
            rect = Rectangle((t,) * dim)
            got = expected_lkc_isotropic(
                rectangle_lkcs(rect), gaussian_gmf(u, dim), lam, 0
            )
            want = hand(u, lam, t)
            rel = abs(got - want) / max(abs(got), abs(want))
            worst = max(worst, rel)
    ok = worst <= 1e-12
    _verdict(1, "closed-form cross-check (200 random triples)", ok,
             f"max relative error {worst:.3e} (tolerance 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# criteria 2 and 3: mean lattice EC curves vs the expected-EC curve
# ---------------------------------------------------------------------------

def _mean_curve_study(lam, shape, spacing, reps, seed_base):
    """Mean and coverage tolerance of lattice EC curves over pinned seeds."""
    model = GaussianModel(cov=CovarianceModel(variance=1.0, lambda2=lam))
    curves = np.empty((reps, LEVELS_101.size))
    for r in range(reps):
        f = simulate_model(model, shape, spacing, seed=seed_base + r)
        curves[r] = ec_curve(f, LEVELS_101).values
    mean = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1) / math.sqrt(reps)
    # 3/reps is the rule-of-three floor: levels where every realisation gives
    # the same EC have zero sample SE, but the next unseen outcome still has
    # probability of order 1/reps.
    tol = np.maximum(3.0 * se, 3.0 / reps)
    return mean, tol


def _coverage(mean, expect, tol) -> int:
    return int(np.count_nonzero(np.abs(mean - expect) <= tol))


def _lattice_ec_expectation(lam, sizes, levels):
    """Exact mean EC of the closed cubical complex of ``{f >= u}`` on n**3 grids.

    The field is the unit-variance squared-exponential Gaussian with second
    spectral moment ``lam``, sampled on ``n**3`` points spanning the unit
    cube (step ``h = 1/(n-1)``).  By linearity

        E chi(u) = sum_k (-1)^k N_k P_k(u),  N_k = C(3,k) n^(3-k) (n-1)^k,

    where ``P_k(u)`` is the probability that all ``2^k`` corners of one
    k-face are ``>= u``.  Corners of a grid cube have correlations
    ``rho^Hamming`` with ``rho = exp(-lam h^2 / 2)``, a Kronecker product of
    2x2 blocks, so the Walsh transform diagonalises them:
    ``Z_c = (Y_0 + W_c) / sqrt(8)`` with ``W_c = sum_{s != 0} (-1)^(s.c) Y_s``
    and independent ``Y_s`` of variance ``prod_a (1 + (-1)^(s_a) rho)``.
    Integrating ``Y_0`` in closed form gives

        P_k(u) = E[ Phi((min_{c in F_k} W_c - sqrt(8) u) / (1 + rho)^(3/2)) ],

    a 7-dimensional expectation taken by scrambled Sobol points.  Every
    k-face of the cube is used (they share ``P_k`` by symmetry), and all k
    and all grid sizes share the same points, so the sampling errors of the
    alternating sum largely cancel.  The face minima are deposited on a fine
    grid by linear (cloud-in-cell) weights, which keeps each point's mean, so
    the normal tail is evaluated once per grid node rather than per point.
    Independent scrambles (fixed seeds) give the standard error.  Imports
    nothing from ``xkit``.

    Returns ``(mean, se)``, each of shape ``(len(sizes), len(levels))``.
    """
    # 2^19 points x 8 scrambles keep the SE near 0.2 at 64**3 and 0.5 at
    # 256**3; 4096 deposit cells add no error visible at that precision
    log2_points, scrambles, bins = 19, 8, 4096
    pair = np.array([[1.0, 1.0], [1.0, -1.0]])
    walsh = np.kron(np.kron(pair, pair), pair)  # walsh[s, c] = (-1)^(s.c)
    shift = math.sqrt(8.0) * np.asarray(levels, dtype=float)
    est = np.empty((scrambles, len(sizes), shift.size))
    for r in range(scrambles):
        sobol = stats.qmc.Sobol(d=7, scramble=True, seed=r).random_base2(log2_points)
        # scrambled points sit on a 2^-30 lattice; the half-step offset keeps
        # them strictly inside (0, 1)
        normal = special.ndtri(sobol + 2.0 ** -31).T
        for g, n in enumerate(sizes):
            rho = math.exp(-0.5 * lam / (n - 1) ** 2)
            half = np.array([math.sqrt(1.0 + rho), math.sqrt(1.0 - rho)])
            sd = np.kron(np.kron(half, half), half)
            corner = (walsh[1:].T @ (sd[1:, None] * normal)).reshape(2, 2, 2, -1)
            lo = corner.min()
            scale = bins / (corner.max() - lo)
            hist = np.zeros((4, bins + 2))
            minima = {0: corner}
            for axes in range(8):
                if axes:
                    low = axes & -axes
                    lead = (slice(None),) * (low.bit_length() - 1)
                    prev = minima[axes ^ low]
                    minima[axes] = np.minimum(
                        prev[lead + (slice(0, 1),)], prev[lead + (slice(1, 2),)]
                    )
                pos = (minima[axes].ravel() - lo) * scale
                cell = pos.astype(np.intp)
                upper = np.bincount(cell, pos - cell, bins + 2)
                k = axes.bit_count()
                hist[k] += np.bincount(cell, minlength=bins + 2) - upper
                hist[k, 1:] += upper[:-1]
            nodes = lo + np.arange(bins + 2) / scale
            tail = special.ndtr((nodes - shift[:, None]) / sd[0])
            signed = [(-1) ** k * math.comb(3, k) * n ** (3 - k) * (n - 1) ** k
                      for k in range(4)]
            prob = hist / hist.sum(axis=1, keepdims=True)
            est[r, g] = tail @ prob.T @ np.array(signed, dtype=float)
    return est.mean(axis=0), est.std(axis=0, ddof=1) / math.sqrt(scrambles)


def test_criterion_2_mean_ec_curve_2d():
    results = []
    for lam, base in ((200.0, 20000), (1000.0, 21000)):
        mean, tol = _mean_curve_study(lam, (256, 256), 1.0 / 255.0, 200, base)
        expect = expected_ec_gaussian_rectangle(SQUARE, 1.0, lam, LEVELS_101)
        results.append((lam, _coverage(mean, expect, tol)))
    ok = all(within >= 96 for _, within in results)
    detail = ", ".join(
        f"lambda2={lam:g}: {within}/101 levels within 3 SE" for lam, within in results
    )
    _verdict(2, "2-d mean EC curve, 200 realisations", ok, detail + " (need >= 96)")
    assert ok


def test_criterion_3_mean_ec_curve_3d():
    eec0 = float(expected_ec_gaussian_rectangle(CUBE, 1.0, 880.0, 0.0))
    closed_ok = abs(eec0 - (-646.6)) <= 0.1
    mean, tol = _mean_curve_study(880.0, (64, 64, 64), 1.0 / 63.0, 50, 30000)
    # the mean lattice EC is compared with its own exact expectation at the
    # pinned 64**3 grid; the refinement clause below ties that expectation
    # to the closed form
    sizes = (64, 128, 256)
    lattice, lattice_se = _lattice_ec_expectation(880.0, sizes, LEVELS_101)
    within = _coverage(mean, lattice[0], tol)
    coverage_ok = within >= 96
    precise_ok = bool(np.all(lattice_se[0] < 0.1 * tol))
    # largest gap to the closed form, bracketed by 3 oracle SEs; it must
    # shrink at least twofold each time the grid step halves
    continuum = expected_ec_gaussian_rectangle(CUBE, 1.0, 880.0, LEVELS_101)
    gap = np.abs(lattice - continuum)
    gap_hi = np.max(gap + 3.0 * lattice_se, axis=1)
    gap_lo = np.max(gap - 3.0 * lattice_se, axis=1)
    refine_ok = bool(np.all(gap_hi[1:] <= 0.5 * gap_lo[:-1]))
    ok = closed_ok and coverage_ok and precise_ok and refine_ok
    grids = "/".join(f"{n}**3" for n in sizes)
    gaps = "/".join(f"{g:.1f}" for g in gap.max(axis=1))
    detail = (
        f"closed-form EEC(0)={eec0:.5f} (target -646.6 +- 0.1); "
        f"coverage {within}/101 levels within 3 SE of the exact 64**3 lattice "
        f"expectation (need >= 96); oracle SE <= {lattice_se[0].max():.3f}, "
        f"at most {np.max(lattice_se[0] / tol):.3f} tol (need < 0.1); "
        f"continuum curve {_coverage(mean, continuum, tol)}/101 "
        f"(64**3 discretisation bias, not asserted); largest gap lattice vs "
        f"closed form at {grids}: {gaps} (need twofold shrink per halved step)"
    )
    _verdict(3, "3-d mean EC curve, 50 realisations", ok, detail)
    assert closed_ok
    assert coverage_ok
    assert precise_ok
    assert refine_ok, f"gap bounds {gap_lo} .. {gap_hi}"


# ---------------------------------------------------------------------------
# criterion 4: chi-square, t and F EC densities vs the tube definition
# ---------------------------------------------------------------------------
#
# For a field F(x_1..x_N) of iid unit Gaussians, the Gaussian Minkowski
# functionals M_j of the hitting set D = {F >= u} in R^N are the Taylor
# coefficients of the Gaussian measure of its tube,
# gamma_N(Tube(D, rho)) = sum_j rho^j / j! M_j (Taylor 2006, Ann. Probab. 34).
# For chi-square, t and F fields, D depends on x only through a numerator
# radius a and a denominator radius b, and the distance from x to D is the
# distance from (a, b) to D's image in the (a, b) plane: turning each block of
# x onto its nearest point of D costs nothing.  The oracle below computes
# the tube measure there and differentiates it in rho at 0.  It uses no xkit
# closed form.
#
# chi^2_k: a = |x| ~ chi_k and D = {a >= r}, r = sqrt(u), so Tube(D, rho) =
#   {a >= r - rho} and gamma(Tube) = M_0 + int_0^rho p_a(r - w) dw exactly:
#   M_j = d^(j-1)/dw^(j-1) p_a(r - w) at w = 0.
# t_nu: a = x_1 ~ N(0, 1) (signed), b = |x_2..x_(nu+1)| ~ chi_nu and
#   D = {a >= b tan psi} with tan psi = t / sqrt(nu).
# F(n, m): a ~ chi_n, b ~ chi_m and D = {a >= b tan psi}, tan psi = sqrt(n u / m).
#
# For the cone, write a point as s e + w v with e = (sin psi, cos psi) along
# the boundary ray and v = (-cos psi, sin psi) its outward normal, so that
# a^2 + b^2 = s^2 + w^2.  The tube outside D is {s >= 0, 0 <= w <= rho} up to
# a disc of radius rho about the apex, whose measure is O(rho^N); so
# gamma(Tube) = M_0 + int_0^rho h(w) dw + O(rho^N), h(w) = int_0^inf q(s, w) ds,
# and M_j = h^(j-1)(0) for j < N.  The joint density of the radii along the
# shifted line is q = c (s sin psi - w cos psi)^alpha (s cos psi + w sin psi)^beta
# e^(-s^2/2) e^(-w^2/2), a polynomial in w times e^(-w^2/2): its w-derivatives
# at 0 are products of coefficients, and the integral over s is a quadrature.
# M_0 = gamma(D) is a quadrature over the denominator radius.

TWO_PI = 2.0 * math.pi
# flag coefficients [n, j] = C(n, j) omega_n / (omega_(n-j) omega_j) for n <= 3
_FLAGS = {(2, 1): math.pi / 2.0, (3, 1): 2.0, (3, 2): 2.0}
_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=200)


def _chi_log_norm(k: int) -> float:
    """log of 2^(k/2 - 1) Gamma(k/2), the normaliser of the chi_k density."""
    return (k / 2.0 - 1.0) * math.log(2.0) + math.lgamma(k / 2.0)


def _chi_density(r: float, k: int) -> float:
    if r <= 0.0:
        return 0.0
    return math.exp((k - 1) * math.log(r) - 0.5 * r * r - _chi_log_norm(k))


def _w_series(*factors):
    """Coefficients of w^0..w^2 of a product of polynomials in w."""
    out = np.array([1.0])
    for f in factors:
        out = np.polynomial.polynomial.polymul(out, f)
    return np.pad(out, (0, 3))[:3]


def _tube_chi2_gmfs(u: float, k: int) -> np.ndarray:
    """M_0..M_3 of {|x| >= sqrt(u)} in R^k."""
    r = math.sqrt(u)
    m0 = integrate.quad(lambda a: _chi_density(a, k), r, np.inf, **_QUAD)[0]
    # p_a(r - w) = c e^(-r^2/2) (r - w)^(k-1) e^(r w) e^(-w^2/2)
    series = _w_series(
        np.polynomial.polynomial.polypow([r, -1.0], k - 1),
        [1.0, r, 0.5 * r * r],
        [1.0, 0.0, -0.5],
    )
    scale = math.exp(-0.5 * r * r - _chi_log_norm(k))
    return np.array([m0] + [math.factorial(j) * series[j] * scale for j in range(3)])


def _tube_cone_gmfs(tan_psi, alpha, beta, log_c, a_tail, b_dof) -> np.ndarray:
    """M_0..M_3 of the cone {a >= b tan psi} for radii with joint density
    c |a|^alpha b^beta e^(-(a^2+b^2)/2), b ~ chi_(b_dof) and P{a >= x} = a_tail(x)."""
    psi = math.atan(tan_psi)
    sin_p, cos_p = math.sin(psi), math.cos(psi)
    c = math.exp(log_c)
    m0 = integrate.quad(lambda b: _chi_density(b, b_dof) * a_tail(b * tan_psi),
                        0.0, np.inf, **_QUAD)[0]

    def coefficient(s: float, d: int) -> float:
        series = _w_series(
            np.polynomial.polynomial.polypow([s * sin_p, -cos_p], alpha),
            np.polynomial.polynomial.polypow([s * cos_p, sin_p], beta),
            [1.0, 0.0, -0.5],
        )
        return c * series[d] * math.exp(-0.5 * s * s)

    derivs = [integrate.quad(coefficient, 0.0, np.inf, args=(d,), **_QUAD)[0] for d in range(3)]
    return np.array([m0] + [math.factorial(d) * v for d, v in enumerate(derivs)])


def _tube_t_gmfs(t: float, nu: int) -> np.ndarray:
    log_c = -0.5 * math.log(TWO_PI) - _chi_log_norm(nu)
    return _tube_cone_gmfs(t / math.sqrt(nu), 0, nu - 1, log_c,
                           lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)), nu)


def _tube_f_gmfs(u: float, n: int, m: int) -> np.ndarray:
    log_c = -_chi_log_norm(n) - _chi_log_norm(m)
    return _tube_cone_gmfs(math.sqrt(n * u / m), n - 1, m - 1, log_c,
                           lambda x: special.gammaincc(n / 2.0, 0.5 * x * x), m)


def test_criterion_4_ec_densities_tube_oracle():
    # E L_i = sum_j [i+j, j] (2 pi)^(-j/2) L_(i+j) M_j on a box of side lengths
    # T at roughness lam, whose metric curvatures are lam^(k/2) e_k(T)
    lam, sides = 20.0, (1.0, 0.7, 1.3)
    box = Rectangle(sides)
    lkcs = [lam ** (k / 2.0) * sum(math.prod(c) for c in itertools.combinations(sides, k))
            for k in range(4)]
    cov = CovarianceModel(variance=1.0, lambda2=lam)
    chi_levels = [0.3, 1.0, 2.5, 5.0, 9.0, 16.0]
    t_levels = [-3.0, -1.0, -0.2, 0.0, 0.7, 2.0, 4.5]
    f_levels = [0.2, 0.8, 1.5, 3.0, 7.0, 15.0]
    cases = [(ChiSquaredModel(k=k, cov=cov), chi_levels, lambda u, k=k: _tube_chi2_gmfs(u, k))
             for k in (1, 3, 5)]
    cases += [(TFieldModel(k=nu + 1, cov=cov), t_levels, lambda t, nu=nu: _tube_t_gmfs(t, nu))
              for nu in (4, 5)]
    cases += [(FFieldModel(n=n, m=m, cov=cov), f_levels,
               lambda u, n=n, m=m: _tube_f_gmfs(u, n, m)) for n, m in ((1, 7), (4, 9))]
    worst, checked = 0.0, 0
    for model, levels, oracle in cases:
        gmfs = np.array([oracle(u) for u in levels])
        if isinstance(model, ChiSquaredModel):
            series = np.array([chi2_gmf(u, model.k, 3).values for u in levels])
            scale = np.abs(gmfs).max(axis=1)[:, None]
            worst = max(worst, float(np.max(np.abs(series - gmfs) / scale)))
        for i in range(4):
            terms = np.array([
                [_FLAGS.get((i + j, j), 1.0) * TWO_PI ** (-j / 2.0) * lkcs[i + j] * g[j]
                 for j in range(4 - i)]
                for g in gmfs
            ])
            got = expected_ec_curve(model, box, levels, order=i).values
            gap = np.abs(got - terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
            worst = max(worst, float(gap.max()))
            checked += len(levels)
    ok = worst <= 1e-9
    _verdict(4, "chi-square, t and F expected curves vs tube-measure oracle", ok,
             f"max relative gap {worst:.3e} over {checked} (model, level, order) triples, "
             f"chi2_k k=1,3,5, t_nu nu=4,5, F(1,7), F(4,9), orders 0..3 (tolerance 1e-9)")
    assert ok


def test_criterion_4_chi2_mean_ec_curve_2d():
    # the route from sampler to kinematic formula for a non-Gaussian field:
    # chi^2_5 fields on 256^2 over the unit square, as in criterion 2
    model = ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=200.0))
    levels = np.linspace(0.0, 25.0, 101)
    reps = 200
    curves = np.empty((reps, levels.size))
    for r in range(reps):
        f = simulate_model(model, (256, 256), 1.0 / 255.0, seed=40000 + r)
        curves[r] = ec_curve(f, levels).values
    mean = curves.mean(axis=0)
    tol = np.maximum(3.0 * curves.std(axis=0, ddof=1) / math.sqrt(reps), 3.0 / reps)
    expect = expected_ec_curve(model, SQUARE, levels).values
    within = _coverage(mean, expect, tol)
    ok = within >= 96
    _verdict(4, "2-d mean chi^2_5 EC curve, 200 realisations", ok,
             f"{within}/101 levels within 3 SE (need >= 96)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: lattice EC vs an independent flood-fill oracle
# ---------------------------------------------------------------------------

def _flood_fill_ec(mask: np.ndarray) -> int:
    """Components minus holes of the closed complex, via connected labelling.

    The complex is rasterised at doubled resolution (vertex pixels on the
    even sublattice, edge/square pixels between), so 4-connectivity captures
    exactly the continuum adjacency of the closed faces.  Holes are the
    bounded complement regions: complement labels that never touch the
    padded border.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim == 1:
        m = m[np.newaxis, :]
    raster = np.zeros((2 * m.shape[0] - 1, 2 * m.shape[1] - 1), dtype=bool)
    raster[::2, ::2] = m
    raster[1::2, ::2] = m[:-1, :] & m[1:, :]
    raster[::2, 1::2] = m[:, :-1] & m[:, 1:]
    raster[1::2, 1::2] = m[:-1, :-1] & m[:-1, 1:] & m[1:, :-1] & m[1:, 1:]
    cross = ndimage.generate_binary_structure(2, 1)
    _, components = ndimage.label(raster, structure=cross)
    padded = np.pad(~raster, 1, constant_values=True)
    labels, n_regions = ndimage.label(padded, structure=cross)
    border = np.unique(
        np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
    )
    unbounded = int(np.count_nonzero(border != 0))
    holes = n_regions - unbounded
    return components - holes


def test_criterion_5_lattice_ec_oracle():
    rng = np.random.default_rng(5150)
    checked = 0
    agree = True
    first_bad = None
    for _ in range(100):
        shape = (int(rng.integers(2, 33)), int(rng.integers(2, 33)))
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        if euler_characteristic(mask) != _flood_fill_ec(mask):
            agree = False
            first_bad = mask
            break
        checked += 1
    point = np.zeros((32, 32), dtype=bool)
    point[7, 19] = True
    ring = np.zeros((8, 8), dtype=bool)
    ring[1:7, 1:7] = True
    ring[2:6, 2:6] = False
    hand = (
        euler_characteristic(point) == 1
        and euler_characteristic(np.ones((32, 32), dtype=bool)) == 1
        and euler_characteristic(ring) == 0
    )
    ok = agree and hand
    _verdict(5, "lattice EC vs flood-fill oracle", ok,
             f"{checked}/100 random masks agree exactly; "
             f"point/full/ring hand counts {'match' if hand else 'differ'}")
    assert agree, f"oracle mismatch on mask:\n{first_bad}"
    assert hand


# ---------------------------------------------------------------------------
# criterion 6: tail-probability accuracy of the expected-EC approximation
# ---------------------------------------------------------------------------

def test_criterion_6_tail_probability_heuristic():
    model = GaussianModel(cov=CovarianceModel(variance=1.0, lambda2=200.0))
    res = threshold(model, SQUARE, 0.05)
    # Independent-bisection oracle value for this solve, fixed in advance.
    assert res.u_star == pytest.approx(3.727106440805648, abs=1e-8)
    reps = 20000
    hits = 0
    for r in range(reps):
        f = simulate_model(model, (256, 256), 1.0 / 255.0, seed=60000 + r)
        if float(f.values.max()) >= res.u_star:
            hits += 1
    phat = hits / reps
    rel = abs(phat - 0.05) / 0.05
    ok = rel <= 0.15
    _verdict(6, "exceedance probability vs expected-EC level", ok,
             f"u*={res.u_star:.6f}, {hits}/{reps} exceedances, "
             f"P-hat={phat:.4f} vs 0.05, relative error {rel:.1%} (need <= 15%)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: model identification from mean EC curves
# ---------------------------------------------------------------------------

def test_criterion_7_model_identification():
    # Part 1: Gaussian data against {Gaussian, moment-matched chi-square_5}.
    truth = GaussianModel(cov=CovarianceModel(variance=1.0, lambda2=880.0))
    candidates = [
        GaussianModel(cov=CovarianceModel(variance=1.0, lambda2=880.0)),
        # Standardised chi-square_5 with component roughness 440 has mean 0,
        # variance 1 and field-level lambda2 = 880: first and second moments
        # and roughness all match the Gaussian truth.
        ChiSquaredModel(
            k=5, cov=CovarianceModel(variance=1.0, lambda2=440.0), standardized=True
        ),
    ]
    levels = np.arange(-3.0, 3.0 + 0.125, 0.25)
    wins = 0
    for j in range(20):
        acc = np.zeros(levels.size)
        for i in range(20):
            f = simulate_model(truth, (64, 64, 64), 1.0 / 63.0, seed=70000 + 100 * j + i)
            acc += ec_curve(f, levels).values
        mean_curve = ECCurve(levels, acc / 20.0, kind="empirical", meta={})
        ranked = identify_model(mean_curve, candidates, CUBE)
        if ranked[0][0].name == "gaussian":
            wins += 1
    part1_ok = wins >= 19

    # Part 2: a gaussianised chi-square_5 field has standard-normal marginals
    # but is not a Gaussian process; its mean EC curve must sit many noise
    # widths away from the Gaussian expectation at the estimated roughness.
    # Component roughness 400 puts the gaussianised field's estimated lambda2
    # near 880, matching the Gaussian reference above.
    gmodel = GaussianisedModel(
        ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=400.0))
    )
    reps = 20
    curves = np.empty((reps, levels.size))
    lam_hats = np.empty(reps)
    for r in range(reps):
        f = simulate_model(gmodel, (256, 256), 1.0 / 255.0, seed=75000 + r)
        curves[r] = ec_curve(f, levels).values
        matrix, _ = estimate_spectral_moments(f)
        lam_hats[r] = 0.5 * (matrix[0, 0] + matrix[1, 1])
    gauss_ref = expected_ec_curve(
        GaussianModel(cov=CovarianceModel(variance=1.0, lambda2=float(lam_hats.mean()))),
        SQUARE,
        levels,
    ).values
    squared_gap = float(np.mean((curves.mean(axis=0) - gauss_ref) ** 2))
    noise_floor = float(np.mean(curves.var(axis=0, ddof=1) / reps))
    ratio = squared_gap / noise_floor
    # The mean-squared gap must exceed 5x the Monte-Carlo variance of the
    # mean curve; at the pinned parameters the measured ratio is ~40, so the
    # gap clears 5x the noise even on the linear (standard-deviation) scale.
    part2_ok = ratio > 5.0

    ok = part1_ok and part2_ok
    _verdict(7, "model identification", ok,
             f"gaussian ranked first {wins}/20 (need >= 19); gaussianised-chi2 "
             f"squared gap {squared_gap:.1f} = {ratio:.0f}x Monte-Carlo floor "
             f"(need > 5x)")
    assert part1_ok
    assert part2_ok


# ---------------------------------------------------------------------------
# criterion 8: limit and scaling property suites
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites():
    notes = []

    # EEC limits: probability 1 far below, 0 far above, for several models.
    lo = float(expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, -30.0))
    hi = float(expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, 30.0))
    chi_lo = float(
        expected_ec_curve(
            ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0)),
            SQUARE,
            [0.0],
        ).values[0]
    )
    chi_hi = float(
        expected_ec_curve(
            ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0)),
            SQUARE,
            [200.0],
        ).values[0]
    )
    limits_ok = (
        abs(lo - 1.0) <= 1e-12
        and 0.0 <= hi <= 1e-180
        and abs(chi_lo - 1.0) <= 1e-15
        and 0.0 <= chi_hi <= 1e-30
    )
    notes.append(f"limits {'ok' if limits_ok else 'BAD'}")

    # LKC scaling: metric curvatures are homogeneous of degree k/2 in the
    # spectral matrix.
    rect = Rectangle((0.7, 1.3, 2.1))
    spectral = np.array([[300.0, 40.0, 0.0], [40.0, 500.0, 25.0], [0.0, 25.0, 900.0]])
    c = 3.7
    base_lkcs = metric_rectangle_lkcs(rect, spectral)
    scaled_lkcs = metric_rectangle_lkcs(rect, c * spectral)
    scaling_ok = all(
        math.isclose(scaled_lkcs[k], c ** (k / 2.0) * base_lkcs[k], rel_tol=1e-12)
        for k in range(4)
    )
    notes.append(f"lkc scaling {'ok' if scaling_ok else 'BAD'}")

    # Separation of parameters: the expectation is linear in the domain
    # curvatures, and each one-hot domain term factorises as (level factor) x
    # (domain factor) -- doubling the curvature doubles the term exactly, and
    # the u-dependence of the term matches the corresponding functional ratio.
    sep_ok = True
    for m in range(4):
        one_hot = np.zeros(4)
        one_hot[m] = 1.7
        lkcs = LKCVector(one_hot)
        doubled = LKCVector(2.0 * one_hot)
        for i in range(m + 1):
            j = m - i
            t1 = expected_lkc_general(lkcs, gaussian_gmf(1.3, 3), i)
            t2 = expected_lkc_general(doubled, gaussian_gmf(1.3, 3), i)
            sep_ok &= t2 == 2.0 * t1
            u1 = expected_lkc_general(lkcs, gaussian_gmf(0.4, 3), i)
            m1 = gaussian_gmf(1.3, 3).values[j]
            m0 = gaussian_gmf(0.4, 3).values[j]
            sep_ok &= math.isclose(t1 * m0, u1 * m1, rel_tol=1e-12)
    notes.append(f"separation {'ok' if sep_ok else 'BAD'}")

    # Hermite recurrence H_(n+1) = x H_n - n H_(n-1) on a grid.
    x = np.linspace(-4.0, 4.0, 41)
    herm_ok = all(
        np.allclose(
            hermite(n + 1, x),
            x * hermite(n, x) - n * hermite(n - 1, x),
            rtol=1e-10,
            atol=1e-10,
        )
        for n in range(11)
    )
    notes.append(f"hermite {'ok' if herm_ok else 'BAD'}")

    # Steiner formula: tube volume vs Monte-Carlo volume of the dilated set.
    rng = np.random.default_rng(88)
    steiner_ok = True
    for sides, rho in (((1.3, 0.7), 0.35), ((0.9, 0.6, 1.1), 0.25)):
        sides_arr = np.array(sides)
        box_lo = -rho
        box_hi = sides_arr + rho
        box_vol = float(np.prod(box_hi - box_lo))
        pts = rng.uniform(box_lo, box_hi, size=(200000, len(sides)))
        gaps = np.maximum(np.maximum(-pts, pts - sides_arr), 0.0)
        dist = np.sqrt((gaps ** 2).sum(axis=1))
        frac = float(np.mean(dist <= rho))
        mc_vol = frac * box_vol
        se = box_vol * math.sqrt(frac * (1.0 - frac) / 200000)
        exact = tube_volume_rectangle(Rectangle(sides), rho)
        steiner_ok &= abs(mc_vol - exact) <= 4.0 * se
    notes.append(f"steiner {'ok' if steiner_ok else 'BAD'}")

    ok = limits_ok and scaling_ok and sep_ok and herm_ok and steiner_ok
    _verdict(8, "limit and scaling property suites", ok, ", ".join(notes))
    assert ok
