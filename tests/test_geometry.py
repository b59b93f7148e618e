"""Geometry primitives: special functions, rectangle curvatures, Minkowski functionals.

Reference values in this file were produced by independent oracles: symbolic
differentiation/integration (sympy) for the chi-square functionals and flag
coefficients, hand evaluation of the Hermite sum, and rejection-sampling Monte
Carlo for the Steiner formula.

The chi-square functionals follow the tube definition.  The hitting set
``{|x|^2 >= u}`` in ``R^k`` is the complement of the ball of radius
``r = sqrt(u)``, its rho-tube is ``{|x| >= r - rho}``, and so
``sum_j rho^j/j! M_j = P{chi_k >= r - rho}``: ``M_j`` is
``(-1)^(j-1)`` times the ``(j-1)``-th radial derivative of the chi density at
``r``, not a level derivative of the chi-square density.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

import xkit.geometry as geometry_mod
from xkit.geometry import (
    GMFSeries,
    LKCVector,
    Rectangle,
    ball_volume,
    chi2_gmf,
    chi2_tail,
    flag_coefficient,
    gaussian_gmf,
    gaussian_tail,
    hermite,
    rectangle_lkcs,
    tube_volume_rectangle,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# ball volumes and flag coefficients
# ---------------------------------------------------------------------------

def test_ball_volumes_low_dimensions():
    assert ball_volume(0) == 1.0
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-15)


def test_flag_coefficients_hand_values():
    # binom(2,1) * omega_2 / omega_1^2 = 2 pi / 4
    assert flag_coefficient(2, 1) == pytest.approx(math.pi / 2.0, rel=1e-14)
    # binom(4,2) * omega_4 / omega_2^2 = 6 (pi^2/2) / pi^2 = 3 exactly
    assert flag_coefficient(4, 2) == pytest.approx(3.0, rel=1e-14)
    assert flag_coefficient(3, 1) == pytest.approx(2.0, rel=1e-14)
    for n in range(7):
        assert flag_coefficient(n, 0) == pytest.approx(1.0, rel=1e-14)
        assert flag_coefficient(n, n) == pytest.approx(1.0, rel=1e-14)


def test_flag_coefficient_rejects_bad_indices():
    with pytest.raises(ValueError):
        flag_coefficient(2, 3)
    with pytest.raises(ValueError):
        flag_coefficient(2, -1)


def test_flag_coefficient_refuses_a_float_after_an_int_call():
    # the kinematic sums read these through a cache of their own, so a call
    # with equal whole indices leaves the public function's check in place
    from xkit.expectations import expected_ec_curve
    from xkit.fields import CovarianceModel, GaussianModel

    assert flag_coefficient(2, 1) == pytest.approx(math.pi / 2.0, rel=1e-14)
    expected_ec_curve(GaussianModel(CovarianceModel(lambda2=100.0)), Rectangle((1.0, 1.0)), [0.0])
    for n, j in ((2.0, 1), (np.float64(2.0), 1)):
        with pytest.raises(ValueError, match="n must be an integer"):
            flag_coefficient(n, j)
    with pytest.raises(ValueError, match="j must be an integer"):
        flag_coefficient(2, 1.0)


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_hand_values():
    assert hermite(3, 2.0) == pytest.approx(2.0, rel=1e-14)
    assert hermite(2, 3.0) == pytest.approx(8.0, rel=1e-14)
    assert hermite(0, -7.3) == 1.0
    assert hermite(1, -7.3) == pytest.approx(-7.3, rel=1e-15)
    # from the explicit sum, evaluated by hand / symbolic algebra
    assert hermite(4, -3.0) == pytest.approx(30.0, rel=1e-13)
    assert hermite(7, 0.5) == pytest.approx(-40.0234375, rel=1e-13)


def test_hermite_minus_one_matches_tail_identity():
    for x in (-2.0, 0.0, 0.7, 3.5):
        ref = SQRT_2PI * gaussian_tail(x) * math.exp(0.5 * x * x)
        assert hermite(-1, x) == pytest.approx(ref, rel=1e-13)


def test_hermite_minus_one_far_in_the_tail():
    # Psi(x) exp(x^2 / 2) was 0 * inf = NaN from about x = 38; the true value is about 1/x
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in (38.0, 40.0, 1e3):
            want = mpmath.sqrt(2 * mpmath.pi) * mpmath.ncdf(-x) * mpmath.exp(x * x / 2)
            assert hermite(-1, x) == pytest.approx(float(want), rel=1e-14)
    assert hermite(-1, 40.0) == pytest.approx(0.0249844, rel=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermite(-1, -40.0) == math.inf  # about 1e348, past the largest double


def test_hermite_three_term_recurrence():
    # H_{n+1}(x) = x H_n(x) - n H_{n-1}(x), relative tolerance 1e-12 against
    # the magnitude of the terms entering the recurrence.
    x = np.linspace(-5.0, 5.0, 201)
    for n in range(1, 16):
        lhs = hermite(n + 1, x)
        rhs = x * hermite(n, x) - n * hermite(n - 1, x)
        scale = np.abs(x * hermite(n, x)) + n * np.abs(hermite(n - 1, x)) + 1.0
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_hermite_vectorised_matches_scalar():
    x = np.array([-1.0, 0.0, 2.5])
    vec = hermite(5, x)
    assert vec.shape == x.shape
    for xi, vi in zip(x, vec):
        assert hermite(5, float(xi)) == pytest.approx(vi, rel=1e-14)


def test_hermite_rejects_below_minus_one():
    with pytest.raises(ValueError):
        hermite(-2, 0.0)


def test_hermite_clenshaw_steps_give_hermevals_bits():
    # the same steps in the same order as numpy's hermeval, so the same bits,
    # signed zeros included, for 0-d, one-element and 2-d arguments
    from numpy.polynomial import hermite_e

    grid = np.array([[0.0, -0.0, 1.0, -1.0, 0.5], [-2.75, 3.3, 1e3, -1e3, -717.25]])
    points = [np.array(0.0), np.array(-0.0), np.array(-4.2), np.array(1e3), np.array([-0.0]),
              np.array([-37.5]), grid]
    for n in range(21):
        for x in points:
            want = np.asarray(hermite_e.hermeval(x, [0.0] * n + [1.0]))
            for got in (np.asarray(geometry_mod._hermite(n, x)), hermite(n, x)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, x)
        assert hermite(n, -0.0) == float(hermite_e.hermeval(-0.0, [0.0] * n + [1.0]))


# ---------------------------------------------------------------------------
# rectangles, LKCs, Steiner formula
# ---------------------------------------------------------------------------

def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(())
    with pytest.raises(ValueError):
        Rectangle((1.0, 0.0))
    with pytest.raises(ValueError):
        Rectangle((1.0, -2.0))
    with pytest.raises(ValueError):
        Rectangle((math.inf,))


def test_rectangle_lkcs_hand_values():
    sq = rectangle_lkcs(Rectangle((1.0, 1.0)))
    np.testing.assert_allclose(sq.values, [1.0, 2.0, 1.0], rtol=1e-14)
    cube = rectangle_lkcs(Rectangle((1.0, 1.0, 1.0)))
    np.testing.assert_allclose(cube.values, [1.0, 3.0, 3.0, 1.0], rtol=1e-14)
    rect = rectangle_lkcs(Rectangle((2.0, 3.0)))
    np.testing.assert_allclose(rect.values, [1.0, 5.0, 6.0], rtol=1e-14)
    assert rect[0] == 1.0 and rect.dim == 2


def test_rectangle_lkcs_are_elementary_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        sides = rng.uniform(0.2, 4.0, size=dim)
        lkcs = rectangle_lkcs(Rectangle(tuple(sides)))
        assert lkcs[0] == pytest.approx(1.0, rel=1e-12)
        assert lkcs[1] == pytest.approx(sides.sum(), rel=1e-12)
        assert lkcs[dim] == pytest.approx(np.prod(sides), rel=1e-12)
        # the coefficients of prod (x - T_i) alternate in sign with e_k(T)
        oracle = (-1.0) ** np.arange(dim + 1) * np.poly(sides)
        np.testing.assert_allclose(lkcs.values, oracle, rtol=1e-14, atol=0)


def test_lkc_scaling_homogeneity():
    # L_j(lam * A) = lam^j L_j(A)
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        sides = rng.uniform(0.3, 2.5, size=dim)
        lam = float(rng.uniform(0.2, 3.0))
        base = rectangle_lkcs(Rectangle(tuple(sides))).values
        scaled = rectangle_lkcs(Rectangle(tuple(lam * sides))).values
        np.testing.assert_allclose(scaled, base * lam ** np.arange(dim + 1), rtol=1e-12)


def test_tube_volume_unit_square():
    assert tube_volume_rectangle(Rectangle((1.0, 1.0)), 1.0) == pytest.approx(
        5.0 + math.pi, rel=1e-14
    )
    # rho = 0 recovers the volume
    assert tube_volume_rectangle(Rectangle((2.0, 3.0)), 0.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        tube_volume_rectangle(Rectangle((1.0,)), -0.1)


def test_tube_volume_monte_carlo():
    # Rejection sampling in the bounding box; >= 1e6 points, 3 standard errors.
    rng = np.random.default_rng(202)
    cases = [((1.0, 1.0), 1.0), ((2.0, 0.5), 0.3), ((1.0, 2.0, 3.0), 0.5)]
    n = 1_200_000
    for sides, rho in cases:
        sides_arr = np.asarray(sides)
        pts = rng.uniform(-rho, sides_arr + rho, size=(n, len(sides)))
        d2 = (np.maximum(np.maximum(-pts, pts - sides_arr), 0.0) ** 2).sum(axis=1)
        p = float((d2 <= rho * rho).mean())
        box = float(np.prod(sides_arr + 2 * rho))
        est = p * box
        se = math.sqrt(p * (1.0 - p) / n) * box
        closed = tube_volume_rectangle(Rectangle(sides), rho)
        assert abs(est - closed) <= 3.0 * se


# ---------------------------------------------------------------------------
# Gaussian Minkowski functionals
# ---------------------------------------------------------------------------

def test_gaussian_gmf_order_zero_and_one():
    s = gaussian_gmf(0.0, 3)
    assert s.k == 1 and s.max_order == 3
    assert s[0] == pytest.approx(0.5, rel=1e-14)
    assert s[1] == pytest.approx(1.0 / SQRT_2PI, rel=1e-13)
    assert s[2] == pytest.approx(0.0, abs=1e-15)  # H_1(0) = 0


def test_gaussian_gmf_matches_hermite_density_form():
    for u in (-1.5, 0.3, 2.0):
        s = gaussian_gmf(u, 5)
        assert s[0] == pytest.approx(gaussian_tail(u), rel=1e-13)
        phi = math.exp(-0.5 * u * u) / SQRT_2PI
        for j in range(1, 6):
            assert s[j] == pytest.approx(hermite(j - 1, u) * phi, rel=1e-12, abs=1e-15)


def test_gaussian_gmf_tube_taylor_expansion():
    # gamma_1(Tube([u, inf), rho)) = Psi(u - rho); the GMF series is its
    # Taylor expansion in rho, so partial sums must converge to it.
    for u in (0.5, 1.7):
        s = gaussian_gmf(u, 12)
        for rho in (0.05, 0.2):
            taylor = sum(rho ** j / math.factorial(j) * s[j] for j in range(13))
            assert taylor == pytest.approx(gaussian_tail(u - rho), abs=1e-12)


def test_gaussian_gmf_vanishes_at_infinity():
    s = gaussian_gmf(40.0, 3)
    assert s[0] < 1e-300
    assert all(abs(s[j]) < 1e-300 for j in range(1, 4))


def test_one_level_gmf_fronts_refuse_non_finite_levels():
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"level u must be finite, got {u}"):
            gaussian_gmf(u, 2)
        with pytest.raises(ValueError, match=f"level u must be finite, got {u}"):
            chi2_gmf(u, 5, 2)


# ---------------------------------------------------------------------------
# chi-square Minkowski functionals
# ---------------------------------------------------------------------------

# Frozen from sympy: M_0 = integral of the chi_k density p(r) over [sqrt(u), inf)
# and M_j = (-1)^(j-1) p^(j-1)(sqrt(u)), at 22 significant digits.  At u = k - 1
# the radial derivative p'(sqrt(u)) vanishes, so M_2 is exactly zero there.
CHI2_GMF_REFS = {
    (1, 0.7): [
        0.4027836942464756817236,
        0.5622597469682258462726,
        0.4704202548174784401844,
        -0.1686779240904677538818,
        -1.081966586080200412424,
    ],
    (3, 2.0): [
        0.5724067044708798339990,
        0.5870506526949595995773,
        0.0,
        -1.174101305389919199155,
        -0.8302149948411894066805,
    ],
    (5, 4.0): [
        0.5494159513527802326058,
        0.5759036428073392208060,
        0.0,
        -1.151807285614678441612,
        -0.5759036428073392208060,
    ],
    (8, 11.0): [
        0.2016991987025286397400,
        0.3758490961739444723257,
        0.4532910653829727640251,
        -0.06833619930435354042286,
        -1.710143564853942700640,
    ],
}


def test_chi2_gmf_symbolic_reference_values():
    for (k, u), refs in CHI2_GMF_REFS.items():
        s = chi2_gmf(u, k, 4)
        assert s.k == k
        np.testing.assert_allclose(s.values, refs, rtol=1e-12, atol=1e-15)


# The same definitions at large k, from 50-digit mpmath (the regularised upper
# gamma function and numerical differentiation of the chi_k density): here
# Gamma(k/2) and r^(k-1) each overflow a float, while their ratio does not.
CHI2_GMF_LARGE_K_REFS = {
    (400, 430.0): [
        0.1448737560442831905757,
        0.3182845057194474795695,
        0.4758202967029091871049,
        0.09770594129062108675156,
    ],
    (1000, 1050.0): [
        0.1324740568214770765006,
        0.3006391390822521626634,
        0.4731741881591299435596,
        0.1580502902603839940859,
    ],
}


def test_chi2_gmf_large_degrees_of_freedom():
    for (k, u), refs in CHI2_GMF_LARGE_K_REFS.items():
        np.testing.assert_allclose(chi2_gmf(u, k, 3).values, refs, rtol=1e-12, atol=1e-15)


def test_chi2_gmf_order_one_is_the_density():
    # M_1 is the chi_k density at r = sqrt(u): by the change of variables
    # r^2 = u, p_chi(r) = 2 sqrt(u) p_chi2(u)
    for k in (1, 2, 3, 5, 8):
        for u in (0.4, 2.0, 9.0):
            assert chi2_gmf(u, k, 1)[1] == pytest.approx(
                2.0 * math.sqrt(u) * stats.chi2(df=k).pdf(u), rel=1e-12
            )


def test_chi2_gmf_total_mass_at_zero():
    s = chi2_gmf(0.0, 3, 0)
    assert s[0] == 1.0
    # below the support everything is hit: flat series
    s = chi2_gmf(-2.0, 5, 3)
    assert s[0] == 1.0 and s[1] == 0.0 and s[2] == 0.0 and s[3] == 0.0


def test_chi2_gmf_tube_taylor_expansion():
    # The series expands the Gaussian measure of the tube in its radius:
    # sum_j rho^j/j! M_j = P{chi_k >= sqrt(u) - rho} = P{chi^2_k >= (sqrt(u) - rho)^2}.
    for k in (3, 5):
        for u in (2.0, 6.0):
            s = chi2_gmf(u, k, 14)
            for rho in (0.05, 0.25):
                taylor = sum(rho ** j / math.factorial(j) * s[j] for j in range(15))
                tube = chi2_tail((math.sqrt(u) - rho) ** 2, k)
                assert taylor == pytest.approx(tube, abs=1e-10)


def test_chi2_gmf_monotone_tail_in_u():
    # M_0 decreases in u for fixed k
    u = np.linspace(0.0, 20.0, 81)
    m0 = np.array([chi2_gmf(float(v), 5, 0)[0] for v in u])
    assert np.all(np.diff(m0) <= 0)


# ---------------------------------------------------------------------------
# F Minkowski functionals
# ---------------------------------------------------------------------------

def _mp_f_gmf(u, n: int, m: int, j: int, mp):
    """Worsley's (1994) ``M_j`` of ``{F(n, m) >= u}``, term by term in mpmath."""
    u, n, m = mp.mpf(u), mp.mpf(n), mp.mpf(m)
    x = n * u / m
    g = mp.gamma((n + m - j) / 2) / (mp.gamma(n / 2) * mp.gamma(m / 2))
    q = [
        [1],
        [-(n - 1), m - 1],
        [(n - 1) * (n - 2), -(2 * n * m - n - m - 1), (m - 1) * (m - 2)],
    ][j - 1]
    poly = sum(c * x**i for i, c in enumerate(q))
    scale = mp.mpf(2) ** (mp.mpf(2 - j) / 2) * g
    return scale * x ** ((n - j) / 2) * (1 + x) ** (-(n + m - 2) / 2) * poly


def test_f_gmfs_match_50_digit_mpmath_at_large_degrees_of_freedom():
    # Three lgamma values near 10^4 used to carry their rounding into every level
    # (1.1e-12 of the peak at F(2000, 5), 1.0e-12 at F(1000, 1000)); centred on
    # u = 1 with Stirling's form the error is below 4e-14.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        cases = ((2000, 5, np.linspace(0.1, 8.0, 80)), (1000, 1000, np.linspace(0.8, 1.25, 80)))
        for n, m, levels in cases:
            got = geometry_mod._f_gmfs(levels, n, m, 3)
            for j in (1, 2, 3):
                want = np.array([float(_mp_f_gmf(u, n, m, j, mpmath)) for u in levels])
                err = np.max(np.abs(got[j] - want)) / np.max(np.abs(want))
                assert err < 1e-13, (n, m, j, err)


def test_f_gmfs_at_levels_below_machine_epsilon_are_right_and_quiet():
    # log1p((u - 1) / (1 + x)) is log1p(-1) below u ~ 1e-16, where only the other branch is used
    mpmath = pytest.importorskip("mpmath")
    levels = np.array([1e-300, 1e-17, 1e-10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = geometry_mod._f_gmfs(levels, 3, 5, 3)
    with mpmath.workdps(50):
        for j in (1, 2, 3):
            want = np.array([float(_mp_f_gmf(u, 3, 5, j, mpmath)) for u in levels])
            # exp of a log near -690 at 1e-300 carries about 690 ulps
            np.testing.assert_allclose(got[j], want, rtol=1e-12)


def _mp_t_gmf(t, nu: int, j: int, mp):
    """Worsley's (1994) ``M_j`` of ``{T_nu >= t}``, term by term in mpmath."""
    t, nu = mp.mpf(t), mp.mpf(nu)
    ratio = mp.gamma((nu + 1) / 2) / (mp.gamma(nu / 2) * mp.sqrt(nu / 2))
    poly = [1, ratio * t, (nu - 1) / nu * t**2 - 1][j - 1]
    return poly * (1 + t**2 / nu) ** (-(nu - 1) / 2) / mp.sqrt(2 * mp.pi)


def test_t_gmfs_match_50_digit_mpmath_at_large_degrees_of_freedom():
    # lgamma's rounding and (1 + t^2/nu)'s lost digits used to reach 9.4e-12 of the
    # order-2 peak at nu = 10^4 (3e-15 at nu = 12); the Gamma ratio from Stirling's
    # series, shifted down in exact integers, and log1p keep every order within a
    # few roundings of its peak.
    mpmath = pytest.importorskip("mpmath")
    levels = np.linspace(-6.0, 6.0, 49)
    with mpmath.workdps(50):
        for nu in (4, 12, 20, 2000, 10**4):
            got = geometry_mod._t_gmfs(levels, nu, 3)
            for j in (1, 2, 3):
                want = np.array([float(_mp_t_gmf(t, nu, j, mpmath)) for t in levels])
                err = np.max(np.abs(got[j] - want)) / np.max(np.abs(want))
                assert err < 1e-15, (nu, j, err)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_gmf_series_validates_mass():
    with pytest.raises(ValueError):
        GMFSeries(k=1, values=np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        GMFSeries(k=0, values=np.array([0.5]))


def test_gmf_series_refuses_values_that_are_not_one_dimensional():
    with pytest.raises(ValueError, match="non-empty 1-d"):
        GMFSeries(k=1, values=np.array([[0.5, 0.1], [0.0, 0.0]]))


def test_ball_volume_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="ball dimension must be >= 0, got -1"):
        ball_volume(-1)


def test_gmf_series_refuses_non_finite_entries():
    # a NaN or infinite M_j would turn every kinematic sum over it into NaN
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            GMFSeries(k=1, values=np.array([0.5, bad, 0.1]))


def test_lkc_vector_validates_shape():
    with pytest.raises(ValueError):
        LKCVector(np.zeros((2, 2)))


def test_lkc_vector_refuses_infinite_entries_and_keeps_nan_as_unknown():
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LKCVector([1.0, bad])
    assert math.isnan(LKCVector([1.0, np.nan, 4.0])[1])


def test_lkc_vector_and_gmf_series_reprs():
    # six significant digits per entry; NaN, the unknown order, prints as nan
    assert repr(LKCVector([1.0, np.nan, 1 / 3])) == "LKCVector([1, nan, 0.333333])"
    assert repr(GMFSeries(k=3, values=[0.25, 1e-7])) == "GMFSeries(k=3, [0.25, 1e-07])"
