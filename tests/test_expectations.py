"""Expected excursion-set geometry: kinematic sums, closed forms, solvers.

Reference values labelled "independent" were computed from hand-written
closed forms (plain bisection, direct formula evaluation) before the module
was wired up, so the assertions do not merely re-run the implementation.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

import xkit.expectations as expectations_mod
from xkit.expectations import (
    CapabilityError,
    NoSolutionError,
    QuadratureError,
    ThresholdResult,
    excursion_probability,
    expected_ec_curve,
    expected_ec_gaussian_rectangle,
    expected_ec_stationary_rectangle,
    expected_lkc_general,
    expected_lkc_high_level,
    expected_lkc_isotropic,
    identify_model,
    metric_rectangle_lkcs,
    threshold,
    top_lkc_quadrature,
)
from xkit.fields import (
    ChiSquaredModel,
    CovarianceModel,
    FFieldModel,
    GaussianisedModel,
    GaussianModel,
    TFieldModel,
    simulate_model,
)
from xkit.geometry import (
    GMFSeries,
    LKCVector,
    Rectangle,
    chi2_gmf,
    flag_coefficient,
    gaussian_gmf,
    gaussian_tail,
    rectangle_lkcs,
)
from xkit.topology import ECCurve, ec_curve

COV200 = CovarianceModel(variance=1.0, lambda2=200.0)
COV880 = CovarianceModel(variance=1.0, lambda2=880.0)
SQUARE = Rectangle((1.0, 1.0))
CUBE = Rectangle((1.0, 1.0, 1.0))
# an anisotropic spectral-moment matrix per dimension
SPECTRAL = {
    1: np.array([[90.0]]),
    2: np.array([[100.0, 20.0], [20.0, 60.0]]),
    3: np.array([[100.0, 10.0, 0.0], [10.0, 80.0, 5.0], [0.0, 5.0, 60.0]]),
}


# ---------------------------------------------------------------------------
# kinematic sums
# ---------------------------------------------------------------------------

def _gmf_form_sum(lkcs, gmfs, i):
    """Reference E L_i: sum_j flag(i+j, j) (2 pi)^(-j/2) L_(i+j) M_j, level by level."""
    return sum(
        flag_coefficient(i + j, j) * (2.0 * math.pi) ** (-j / 2.0) * lkcs[i + j] * gmfs[j]
        for j in range(lkcs.dim - i + 1)
    )


def test_full_space_hitting_set_gives_one():
    # D = everything: M_0 = 1 and all higher functionals vanish, so the
    # expected EC of {f in D} is exactly L_0 = 1 whatever the domain.
    gmfs = GMFSeries(k=1, values=np.array([1.0, 0.0, 0.0]))
    lkcs = rectangle_lkcs(Rectangle((0.7, 1.9)))
    assert expected_lkc_isotropic(lkcs, gmfs, 123.0, 0) == 1.0


def test_unit_square_value_at_zero_level():
    # hand evaluation: 2*sqrt(200)/(2*pi) + 0.5
    gmfs = gaussian_gmf(0.0, 2)
    value = expected_lkc_isotropic(rectangle_lkcs(SQUARE), gmfs, 200.0, 0)
    assert value == pytest.approx(0.5 + 2.0 * math.sqrt(200.0) / (2.0 * math.pi), rel=1e-12)
    assert value == pytest.approx(5.0016, abs=5e-4)


@pytest.mark.parametrize("sides", [(1.0, 1.0), (0.7, 1.3), (1.0, 1.0, 1.0), (0.5, 0.8, 1.2)])
@pytest.mark.parametrize("lam", [20.0, 200.0, 880.0])
def test_isotropic_sum_matches_rectangle_closed_form(sides, lam):
    rect = Rectangle(sides)
    lkcs = rectangle_lkcs(rect)
    for u in np.linspace(-3.0, 5.0, 17):
        via_sum = expected_lkc_isotropic(lkcs, gaussian_gmf(u, rect.dim), lam, 0)
        closed = expected_ec_gaussian_rectangle(rect, 1.0, lam, u)
        assert via_sum == pytest.approx(closed, rel=1e-12)


def test_general_sum_substitution_identity():
    # feeding lambda2^(k/2)-scaled curvatures to the general sum is exactly
    # the isotropic evaluation
    rect = Rectangle((0.8, 1.1, 0.6))
    lam = 77.0
    plain = rectangle_lkcs(rect)
    scaled = LKCVector(np.array([lam ** (k / 2.0) * plain[k] for k in range(4)]))
    for u in (-1.0, 0.3, 2.7):
        gmfs = gaussian_gmf(u, 3)
        assert expected_lkc_general(scaled, gmfs, 0) == expected_lkc_isotropic(
            plain, gmfs, lam, 0
        )


def test_interval_cross_path_identity():
    # 1-d: general sum over a metric length ell = sqrt(lambda2)*T must agree
    # with the rectangle closed form on [0, T]
    lam, T = 130.0, 1.7
    metric_interval = LKCVector(np.array([1.0, math.sqrt(lam) * T]))
    for u in np.linspace(-2.0, 4.0, 13):
        via_general = expected_lkc_general(metric_interval, gaussian_gmf(u, 1), 0)
        closed = expected_ec_gaussian_rectangle(Rectangle((T,)), 1.0, lam, u)
        assert via_general == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("sides", [(1.4,), (1.4, 0.6), (1.4, 0.6, 0.9)])
def test_top_order_term_is_tail_mass(sides):
    rect = Rectangle(sides)
    lkcs = rectangle_lkcs(rect)
    n = rect.dim
    for u in (-1.0, 0.0, 2.0):
        value = expected_lkc_general(lkcs, gaussian_gmf(u, 0), n)
        assert value == pytest.approx(lkcs[n] * gaussian_tail(u), rel=1e-15)


def test_order_one_gaussian_curve_hand_formula():
    # E L_1 on a square: flag(1,0) L1 M0 + flag(2,1) (2pi)^(-1/2) L2 M1,
    # and flag(2,1) = pi/2 collapses the second term to L2 e^(-u^2/2) / 4
    lam = 200.0
    levels = np.array([-1.0, 0.0, 1.5, 3.0])
    curve = expected_ec_curve(GaussianModel(cov=COV200), SQUARE, levels, order=1)
    l1 = 2.0 * math.sqrt(lam)
    l2 = lam
    hand = l1 * gaussian_tail(levels) + 0.25 * l2 * np.exp(-0.5 * levels**2)
    np.testing.assert_allclose(curve.values, hand, rtol=1e-12)


def test_gaussian_curve_every_order_matches_per_level_kinematic_sum():
    # the vectorised Gaussian sum against the GMF-form sum written out here, one
    # level at a time: metric LKCs with the functionals of [z, inf), z = u / sigma
    levels = np.linspace(-4.0, 6.0, 41)
    for rect in (Rectangle((1.3,)), Rectangle((1.0, 0.7)), Rectangle((1.0, 0.8, 1.2))):
        dim = rect.dim
        covs = [
            COV200,
            CovarianceModel(variance=1.0, matrix=SPECTRAL[dim]),
            CovarianceModel(variance=4.0, lambda2=50.0),
            CovarianceModel(variance=0.5, matrix=SPECTRAL[dim]),
        ]
        for cov in covs:
            lkcs = metric_rectangle_lkcs(rect, cov.spectral_matrix(dim))
            z = levels / math.sqrt(cov.variance)
            for i in range(dim + 1):
                curve = expected_ec_curve(GaussianModel(cov=cov), rect, levels, order=i)
                per_level = np.array(
                    [_gmf_form_sum(lkcs, gaussian_gmf(zz, dim - i), i) for zz in z]
                )
                gap = np.abs(curve.values - per_level).max()
                assert gap <= 1e-12 * np.abs(per_level).max(), (dim, cov, i, gap)


def test_kinematic_sum_argument_errors():
    lkcs = rectangle_lkcs(SQUARE)
    with pytest.raises(ValueError, match="order i"):
        expected_lkc_general(lkcs, gaussian_gmf(0.0, 2), 3)
    with pytest.raises(ValueError, match="order"):
        expected_lkc_general(lkcs, gaussian_gmf(0.0, 1), 0)  # needs order 2
    partial = LKCVector(np.array([1.0, np.nan, 4.0]))
    with pytest.raises(ValueError, match="unavailable"):
        expected_lkc_general(partial, gaussian_gmf(0.0, 2), 0)
    # ... but the NaN entry is never touched for i = dim
    assert expected_lkc_general(partial, gaussian_gmf(0.0, 0), 2) != 0
    with pytest.raises(ValueError, match="lambda2"):
        expected_lkc_isotropic(lkcs, gaussian_gmf(0.0, 2), -5.0, 0)


def test_scaling_gmf_values_scales_output_linearly():
    # separation of parameters: the sum is linear in the functional series
    rect = Rectangle((0.9, 1.2))
    lkcs = rectangle_lkcs(rect)
    base = gaussian_gmf(1.3, 2)
    halved = GMFSeries(k=1, values=0.5 * np.asarray([base[j] for j in range(3)]))
    for i in range(3):
        assert expected_lkc_isotropic(lkcs, halved, 50.0, i) == 0.5 * expected_lkc_isotropic(
            lkcs, base, 50.0, i
        )


def test_scaling_domain_scales_each_term_polynomially():
    # L_(i+j)(c*M) = c^(i+j) L_(i+j)(M): isolate term j with a one-hot
    # functional series and compare the doubled domain term by term
    rect = Rectangle((0.9, 1.2))
    doubled = Rectangle((1.8, 2.4))
    lam = 50.0
    for i in (0, 1, 2):
        for j in range(0, 2 - i + 1):
            one_hot = np.zeros(3)
            one_hot[j] = 1.0 if j else 0.5  # M_0 must stay within [0, 1]
            gmfs = GMFSeries(k=1, values=one_hot)
            term = expected_lkc_isotropic(rectangle_lkcs(rect), gmfs, lam, i)
            term_scaled = expected_lkc_isotropic(rectangle_lkcs(doubled), gmfs, lam, i)
            assert term_scaled == 2.0 ** (i + j) * term


# ---------------------------------------------------------------------------
# anisotropic rectangles
# ---------------------------------------------------------------------------

def test_anisotropic_diagonal_hand_expansion():
    a, b = 300.0, 1200.0
    mat = np.diag([a, b])
    for u in (-0.5, 0.0, 1.0, 2.5):
        hand = (
            gaussian_tail(u)
            + (math.sqrt(a) + math.sqrt(b)) / (2.0 * math.pi) * math.exp(-0.5 * u * u)
            + math.sqrt(a * b) * u * math.exp(-0.5 * u * u) / (2.0 * math.pi) ** 1.5
        )
        assert expected_ec_stationary_rectangle(SQUARE, mat, u) == pytest.approx(
            hand, rel=1e-12
        )


def test_isotropic_matrix_reduces_to_scalar_form():
    lam = 640.0
    for u in np.linspace(-2.0, 4.0, 9):
        aniso = expected_ec_stationary_rectangle(CUBE, lam * np.eye(3), u)
        iso = expected_ec_gaussian_rectangle(CUBE, 1.0, lam, u)
        assert aniso == pytest.approx(iso, rel=1e-12)


def test_axis_permutation_invariance():
    mat = np.array([[200.0, 50.0], [50.0, 800.0]])
    rect = Rectangle((0.6, 1.4))
    perm = np.array([[800.0, 50.0], [50.0, 200.0]])
    rect_p = Rectangle((1.4, 0.6))
    for u in (-1.0, 0.0, 1.7):
        assert expected_ec_stationary_rectangle(rect, mat, u) == pytest.approx(
            expected_ec_stationary_rectangle(rect_p, perm, u), rel=1e-14
        )


def test_rectangle_closed_forms_are_the_gaussian_model_curve():
    # the public closed forms and the model route share one code path, so
    # they agree bit for bit at scalar and array levels
    levels = np.linspace(-4.0, 6.0, 51)
    for rect in (Rectangle((1.3,)), Rectangle((1.0, 0.7)), Rectangle((1.0, 0.8, 1.2))):
        for s2, lam in ((1.0, 200.0), (4.0, 80.0)):
            cov = CovarianceModel(variance=s2, lambda2=lam / s2)
            curve = expected_ec_curve(GaussianModel(cov), rect, levels).values
            scalar = [expected_ec_gaussian_rectangle(rect, s2, lam, u) for u in levels]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(scalar, curve)
            assert np.array_equal(expected_ec_gaussian_rectangle(rect, s2, lam, levels), curve)
        spectral = SPECTRAL[rect.dim]
        cov = CovarianceModel(variance=1.0, matrix=spectral)
        curve = expected_ec_curve(GaussianModel(cov), rect, levels).values
        scalar = [expected_ec_stationary_rectangle(rect, spectral, u) for u in levels]
        assert np.array_equal(scalar, curve)
        assert np.array_equal(expected_ec_stationary_rectangle(rect, spectral, levels), curve)


def test_metric_rectangle_lkcs_isotropic_scaling():
    lam = 97.0
    plain = rectangle_lkcs(CUBE)
    metric = metric_rectangle_lkcs(CUBE, lam * np.eye(3))
    for k in range(4):
        assert metric[k] == pytest.approx(lam ** (k / 2.0) * plain[k], rel=1e-12)


def test_metric_lkcs_input_validation():
    with pytest.raises(ValueError, match="shape"):
        metric_rectangle_lkcs(SQUARE, np.eye(3))
    lopsided = np.array([[200.0, 10.0], [-10.0, 800.0]])
    with pytest.raises(ValueError, match="symmetric"):
        metric_rectangle_lkcs(SQUARE, lopsided)
    with pytest.raises(ValueError, match="positive definite"):
        expected_ec_stationary_rectangle(SQUARE, np.diag([1.0, -2.0]), 0.0)


def test_variance_rescaling_equivalence():
    # a field of variance s^2 and raw derivative moment lam exceeds u exactly
    # when its unit rescaling exceeds u/s with moment lam/s^2
    s2, lam_raw = 4.0, 800.0
    for u in (-2.0, 0.0, 1.0, 3.0):
        left = expected_ec_gaussian_rectangle(SQUARE, s2, lam_raw, u)
        right = expected_ec_gaussian_rectangle(SQUARE, 1.0, lam_raw / s2, u / 2.0)
        assert left == pytest.approx(right, rel=1e-12)


def test_limits_at_extreme_levels():
    for rect, lam in ((SQUARE, 200.0), (CUBE, 880.0), (Rectangle((2.0,)), 50.0)):
        assert expected_ec_gaussian_rectangle(rect, 1.0, lam, -30.0) == pytest.approx(
            1.0, abs=1e-12
        )
        assert abs(expected_ec_gaussian_rectangle(rect, 1.0, lam, 30.0)) < 1e-50


# ---------------------------------------------------------------------------
# high-level asymptotics and quadrature
# ---------------------------------------------------------------------------

def test_quadrature_constant_metric():
    value = top_lkc_quadrature(SQUARE, lambda x: 200.0 * np.eye(2))
    assert value == pytest.approx(200.0, rel=1e-12)


def test_quadrature_smooth_metrics_exact():
    # det = (1+x0)^4 so the integrand is the polynomial (1+x0)^2
    v2 = top_lkc_quadrature(SQUARE, lambda x: (1.0 + x[0]) ** 2 * np.eye(2))
    assert v2 == pytest.approx(7.0 / 3.0, abs=1e-12)
    v1 = top_lkc_quadrature(Rectangle((1.0,)), lambda x: np.array([[(1.0 + x[0]) ** 2]]))
    assert v1 == pytest.approx(1.5, abs=1e-12)
    v3 = top_lkc_quadrature(
        Rectangle((0.5, 0.5, 0.5)),
        lambda x: (1.0 + x[0] + x[1] + x[2]) ** (2.0 / 3.0) * np.eye(3),
    )
    assert v3 == pytest.approx(0.21875, abs=1e-12)


def test_quadrature_discontinuous_metric_raises():
    with pytest.raises(QuadratureError, match="did not stabilise"):
        top_lkc_quadrature(SQUARE, lambda x: (1.0 if x[0] < 1.0 / 3.0 else 4.0) * np.eye(2))
    with pytest.raises(QuadratureError):
        top_lkc_quadrature(
            Rectangle((1.0,)), lambda x: np.array([[1.0 if x[0] < 1.0 / math.pi else 9.0]])
        )


def test_quadrature_bad_metric_and_dim():
    with pytest.raises(ValueError, match="shape"):
        top_lkc_quadrature(SQUARE, lambda x: np.eye(3))
    with pytest.raises(ValueError, match="determinant"):
        top_lkc_quadrature(SQUARE, lambda x: np.diag([1.0, -4.0]))
    with pytest.raises(ValueError, match="1..3"):
        top_lkc_quadrature(Rectangle((1.0,) * 4), lambda x: np.eye(4))


def test_high_level_ratio_approaches_one():
    # full closed form over leading term; independent reference ratios were
    # evaluated from the two hand formulas before the module existed
    frozen = {
        (2, 200.0, 6.0): 1.0599320024744852,
        (2, 200.0, 10.0): 1.0357601845292816,
        (3, 880.0, 6.0): 1.0440711288391056,
        (3, 880.0, 10.0): 1.0258225490159838,
    }
    for (dim, lam, u), expected_ratio in frozen.items():
        rect = Rectangle((1.0,) * dim)
        full = expected_ec_gaussian_rectangle(rect, 1.0, lam, u)
        lead = expected_lkc_high_level(
            u, 0, lkcs=metric_rectangle_lkcs(rect, lam * np.eye(dim))
        )
        ratio = full / lead
        assert ratio == pytest.approx(expected_ratio, rel=1e-9)
        assert abs(ratio - 1.0) <= (0.15 if u == 6.0 else 0.05)


def test_high_level_quadrature_route_matches_lkc_route():
    lam = 880.0
    lk = metric_rectangle_lkcs(CUBE, lam * np.eye(3))
    for u in (5.0, 8.0):
        via_lkcs = expected_lkc_high_level(u, 0, lkcs=lk)
        via_quad = expected_lkc_high_level(
            u, 0, rect=CUBE, metric=lambda x: lam * np.eye(3)
        )
        assert via_quad == pytest.approx(via_lkcs, rel=1e-12)


def test_high_level_top_order_is_exact():
    lk = metric_rectangle_lkcs(SQUARE, 200.0 * np.eye(2))
    for u in (4.0, 7.0):
        assert expected_lkc_high_level(u, 2, lkcs=lk) == pytest.approx(
            lk[2] * gaussian_tail(u), rel=1e-14
        )


def test_high_level_argument_errors():
    lk = metric_rectangle_lkcs(SQUARE, np.eye(2))
    with pytest.raises(ValueError, match="either"):
        expected_lkc_high_level(5.0, 0)
    with pytest.raises(ValueError, match="either"):
        expected_lkc_high_level(5.0, 0, lkcs=lk, rect=SQUARE, metric=lambda x: np.eye(2))
    with pytest.raises(ValueError, match="order i"):
        expected_lkc_high_level(5.0, 3, lkcs=lk)
    with pytest.raises(ValueError, match="NaN"):
        expected_lkc_high_level(5.0, 0, lkcs=LKCVector(np.array([1.0, 2.0, np.nan])))


# ---------------------------------------------------------------------------
# expected curves per model
# ---------------------------------------------------------------------------

def test_expected_curve_gaussian_matches_closed_form():
    levels = np.linspace(-2.0, 4.0, 25)
    curve = expected_ec_curve(GaussianModel(cov=COV200), SQUARE, levels)
    closed = expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, levels)
    np.testing.assert_allclose(curve.values, closed, rtol=1e-14)
    assert curve.kind == "expected"
    assert curve.meta["model"] == "gaussian"
    assert curve.meta["domain"] == "1.0x1.0"
    assert curve.meta["order"] == "0"
    assert curve.meta["lambda2"] == "200.0"


def test_expected_curve_level_validation():
    model = GaussianModel(cov=COV200)
    with pytest.raises(ValueError, match="non-empty"):
        expected_ec_curve(model, SQUARE, np.array([]))
    with pytest.raises(ValueError, match="increasing"):
        expected_ec_curve(model, SQUARE, np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="order"):
        expected_ec_curve(model, SQUARE, np.array([0.0, 1.0]), order=3)
    # infinite levels are refused before any closed form meets them
    for model in (GaussianModel(cov=COV200), ChiSquaredModel(k=5, cov=COV200)):
        for levels in ([0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="levels must be finite"):
                expected_ec_curve(model, SQUARE, levels)


def _worsley_chi2_densities(u, k):
    """Worsley's (1994) chi-square EC densities rho_0..rho_3 at levels u > 0,
    written out from the paper for unit-roughness components."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-0.5 * u) / (2.0 ** ((k - 2) / 2.0) * math.gamma(k / 2.0))
    return [
        stats.chi2(k).sf(u),
        u ** ((k - 1) / 2.0) * e / math.sqrt(2.0 * math.pi),
        u ** ((k - 2) / 2.0) * e * (u - (k - 1)) / (2.0 * math.pi),
        u ** ((k - 3) / 2.0) * e * (u * u - (2 * k - 1) * u + (k - 1) * (k - 2))
        / (2.0 * math.pi) ** 1.5,
    ]


def _worsley_chi2_cube(u, k, lam):
    """Expected EC of a chi^2_k field on the unit cube: L = (1, 3, 3, 1)."""
    rho = _worsley_chi2_densities(u, k)
    return sum(c * lam ** (j / 2.0) * rho[j] for j, c in enumerate((1.0, 3.0, 3.0, 1.0)))


def test_expected_curve_chisq_shape():
    # chi^2_5, lambda2=20, unit cube.  The curve is Worsley's closed form, and
    # in 3-D it has his three phases: small cavities (EC > 0) around the local
    # minima of |x|^2 at low levels, handles (EC < 0) near the density mode,
    # isolated blobs (EC > 0) above it, then decay.
    model = ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0))
    levels = np.linspace(0.15, 15.0, 100)
    values = expected_ec_curve(model, CUBE, levels).values
    want = _worsley_chi2_cube(levels, 5, 20.0)
    np.testing.assert_allclose(values, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
    d = np.diff(values)
    signs = np.sign(d)
    turns = np.nonzero(signs[1:] != signs[:-1])[0] + 1
    np.testing.assert_allclose(levels[turns], [0.45, 2.7, 8.55], atol=1e-9)
    crossings = np.nonzero(np.sign(values[1:]) != np.sign(values[:-1]))[0]
    assert len(crossings) == 2  # positive, negative around the mode, positive
    assert values[turns[1]] == pytest.approx(-5.6576, abs=1e-4)
    assert np.all(d[turns[2]:] < 0.0)  # monotone decay past the second bump
    assert values[-1] == pytest.approx(2.3633, abs=1e-4)


def test_expected_curve_chisq_dual_route():
    # the vectorised curve of every order against the per-level GMF-form sum
    # over the public chi2_gmf series, and the order-0 curve against Worsley
    model = ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0))
    levels = np.array([1.0, 3.0, 5.0, 8.0, 12.0])
    lk = metric_rectangle_lkcs(CUBE, 20.0 * np.eye(3))
    for order in range(4):
        exact = expected_ec_curve(model, CUBE, levels, order=order).values
        alt = np.array(
            [_gmf_form_sum(lk, chi2_gmf(u, 5, 3 - order), order) for u in levels]
        )
        np.testing.assert_allclose(exact, alt, rtol=1e-12)
        if order == 0:
            np.testing.assert_allclose(exact, _worsley_chi2_cube(levels, 5, 20.0), rtol=1e-12)


def test_expected_curve_chisq_standardized_level_map():
    cov = CovarianceModel(variance=1.0, lambda2=20.0)
    raw = ChiSquaredModel(k=5, cov=cov)
    std = ChiSquaredModel(k=5, cov=cov, standardized=True)
    z = np.array([-1.0, -0.5, 0.0, 1.0, 2.0])
    raw_levels = 5.0 + z * math.sqrt(10.0)
    a = expected_ec_curve(std, CUBE, z).values
    b = expected_ec_curve(raw, CUBE, raw_levels).values
    np.testing.assert_array_equal(a, b)


def test_expected_curve_t_interval_direct_formula():
    # Rice formula on an interval: E EC{T >= t} = P{T >= t} + the mean number of
    # upcrossings, whose rate per unit metric length is
    # (1 + t^2/nu)^(-(nu-1)/2) / (2 pi) for T = x_1 sqrt(nu) / |x_2..x_(nu+1)|
    # (Worsley 1994).  At t = 0, T upcrosses exactly where x_1 does, at the
    # Gaussian rate 1 / (2 pi) whatever nu.
    lam, T = 50.0, 2.0
    model = TFieldModel(k=6, cov=CovarianceModel(variance=1.0, lambda2=lam))
    levels = np.array([-2.0, -0.5, 0.0, 1.0, 2.5, 4.0])
    curve = expected_ec_curve(model, Rectangle((T,)), levels)
    rate = (1.0 + levels**2 / 5.0) ** -2.0 / (2.0 * math.pi)
    direct = stats.t(5).sf(levels) + T * math.sqrt(lam) * rate
    np.testing.assert_allclose(curve.values, direct, rtol=1e-10)
    assert curve.values[2] == pytest.approx(0.5 + T * math.sqrt(lam) / (2.0 * math.pi), rel=1e-12)


def test_expected_curve_f_interval_direct_formula():
    # Rice formula for F = (m |x_1..x_n|^2) / (n |x_(n+1)..x_(n+m)|^2): the
    # upcrossing rate of level u is, with x = n u / m (Worsley 1994),
    # Gamma((n+m-1)/2) / (Gamma(n/2) Gamma(m/2)) x^((n-1)/2) (1+x)^(-(n+m-2)/2) / sqrt(pi)
    lam, T, n, m = 50.0, 2.0, 4, 9
    model = FFieldModel(n=n, m=m, cov=CovarianceModel(variance=1.0, lambda2=lam))
    levels = np.array([0.2, 0.7, 1.5, 3.0])
    curve = expected_ec_curve(model, Rectangle((T,)), levels)
    x = n * levels / m
    gamma_ratio = math.gamma((n + m - 1) / 2.0) / (math.gamma(n / 2.0) * math.gamma(m / 2.0))
    rate = gamma_ratio * x ** ((n - 1) / 2.0) * (1.0 + x) ** (-(n + m - 2) / 2.0)
    rate /= math.sqrt(math.pi)
    direct = stats.f(n, m).sf(levels) + T * math.sqrt(lam) * rate
    np.testing.assert_allclose(curve.values, direct, rtol=1e-10)


def test_closed_forms_stop_where_their_orders_do():
    # Worsley's t and F forms reach order 3, and order j of F(n, m) needs
    # n + m > j; order 1 of F(1, 1) = T_1^2 is twice the Cauchy rate 1/(2 pi)
    cov = CovarianceModel(variance=1.0, lambda2=20.0)
    with pytest.raises(NotImplementedError, match="order 3"):
        expected_ec_curve(TFieldModel(k=5, cov=cov), Rectangle((1.0,) * 4), [1.0])
    with pytest.raises(NotImplementedError, match="order 1"):
        expected_ec_curve(FFieldModel(n=1, m=1, cov=cov), SQUARE, [1.0])
    levels = np.array([0.5, 2.0, 9.0])
    curve = expected_ec_curve(FFieldModel(n=1, m=1, cov=cov), Rectangle((1.0,)), levels)
    direct = stats.f(1, 1).sf(levels) + math.sqrt(20.0) * 2.0 / (2.0 * math.pi)
    np.testing.assert_allclose(curve.values, direct, rtol=1e-12)


def _tiny_gaussianised():
    base = ChiSquaredModel(k=3, cov=CovarianceModel(variance=1.0, lambda2=100.0))
    return GaussianisedModel(base=base), Rectangle((0.8, 0.8))


def test_gaussianised_curve_requirements():
    model, rect = _tiny_gaussianised()
    levels = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(CapabilityError, match="order 0"):
        expected_ec_curve(model, rect, levels, order=1, sim_shape=(17, 17))
    with pytest.raises(ValueError, match="sim_shape"):
        expected_ec_curve(model, rect, levels)
    with pytest.raises(ValueError, match="does not fit"):
        expected_ec_curve(model, rect, levels, sim_shape=(17,))
    with pytest.raises(ValueError, match="spacing"):
        expected_ec_curve(model, Rectangle((0.8, 0.4)), levels, sim_shape=(17, 17))
    misses = expectations_mod._simulation_average.cache_info().misses
    with pytest.raises(ValueError, match="levels must be finite"):
        expected_ec_curve(model, rect, [0.0, np.inf], sim_shape=(17, 17), sim_reps=2)
    assert expectations_mod._simulation_average.cache_info().misses == misses  # nothing simulated


def test_gaussianised_curve_needs_a_realisation():
    # no realisations would average to 0/0; both routes name the argument
    model, rect = _tiny_gaussianised()
    levels = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="sim_reps"):
        expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=0)
    curve = ECCurve(levels=levels, values=np.array([2.0, 1.0, 1.0]), kind="empirical")
    with pytest.raises(ValueError, match="sim_reps"):
        identify_model(curve, [model], rect, sim_shape=(17, 17), sim_reps=-1)


def test_gaussianised_curve_cached_and_reproducible(monkeypatch):
    model, rect = _tiny_gaussianised()
    levels = np.array([-1.5, -0.5, 0.5, 1.5])
    calls = []
    real = expectations_mod.simulate_model

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(expectations_mod, "simulate_model", counting)
    expectations_mod._simulation_average.cache_clear()
    first = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=3)
    assert len(calls) == 3
    again = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=3)
    assert len(calls) == 3  # served from the cache
    np.testing.assert_array_equal(first.values, again.values)
    assert first.meta["model"] == "gaussianised-chisq:3"
    assert first.meta["sim_shape"] == "17x17"
    assert first.meta["sim_reps"] == "3"

    # worker count must not change the averaged curve (ordered reduction)
    expectations_mod._simulation_average.cache_clear()
    parallel = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=3, jobs=2)
    np.testing.assert_array_equal(first.values, parallel.values)


def test_gaussianised_curve_cache_is_bounded_and_hits_are_copies():
    model, rect = _tiny_gaussianised()
    cache = expectations_mod._simulation_average
    cache.cache_clear()
    maxsize = cache.cache_info().maxsize
    for i in range(maxsize + 3):
        levels = np.array([-1.0, 0.0, 1.0 + 0.01 * i])  # a new key each time
        expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=1)
        assert cache.cache_info().currsize <= maxsize
    assert cache.cache_info().currsize == maxsize
    levels = np.array([-1.0, 0.0, 1.0])
    expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=1)
    hit = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=1)
    kept = hit.values.copy()
    hit.values[:] = 99.0  # a caller scribbling on its result
    again = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=1)
    np.testing.assert_array_equal(again.values, kept)


def test_gaussianised_curve_cache_tells_standardized_chi_square_apart():
    # the plain and the standardized chi-square share a name, but only the
    # plain one is gaussianised through its exact CDF; a warm cache must not
    # hand either the other's curve, whatever the order of the requests
    cov = CovarianceModel(variance=1.0, lambda2=100.0)
    plain = GaussianisedModel(ChiSquaredModel(k=3, cov=cov))
    standard = GaussianisedModel(ChiSquaredModel(k=3, cov=cov, standardized=True))
    rect = Rectangle((1.6, 1.6))
    levels = np.linspace(-3.0, 3.0, 25)
    cache = expectations_mod._simulation_average

    def curve(model):
        return expected_ec_curve(model, rect, levels, sim_shape=(33, 33), sim_reps=3).values

    fresh = []
    for model in (plain, standard):
        cache.cache_clear()
        fresh.append(curve(model))
    assert not np.array_equal(fresh[0], fresh[1])
    for first, second, wanted in ((plain, standard, fresh[1]), (standard, plain, fresh[0])):
        cache.cache_clear()
        curve(first)
        np.testing.assert_array_equal(curve(second), wanted)
    cache.cache_clear()


# ---------------------------------------------------------------------------
# excursion probability
# ---------------------------------------------------------------------------

def test_error_bound_uses_squared_exponential_curvature():
    # sigma_c^2 = sup Var(f(s) | f(t), grad f(t)) / (1 - r)^2; for
    # r = exp(-x), x = lambda2 |s - t|^2 / 2, the ratio below does not involve
    # lambda2 and tends to its supremum 2 = lambda4 / lambda2^2 - 1 as x -> 0
    x = np.logspace(-4.0, 2.0, 2001)
    ratio = (-np.expm1(-2.0 * x) - 2.0 * x * np.exp(-2.0 * x)) / np.expm1(-x) ** 2
    assert ratio.max() <= 2.0
    assert ratio.max() == pytest.approx(2.0, abs=1e-3)
    approx, bound = excursion_probability(GaussianModel(cov=COV200), SQUARE, 3.0)
    assert bound == pytest.approx(math.exp(-0.5 * 9.0 * (1.0 + 1.0 / 2.0)), rel=1e-15)
    assert approx == pytest.approx(expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, 3.0))


def test_probability_positive_and_decreasing_in_tail():
    model = GaussianModel(cov=COV200)
    grid = np.linspace(2.5, 6.0, 15)
    values = [excursion_probability(model, SQUARE, u)[0] for u in grid]
    tail = [v for v in values if v < 0.1]
    assert all(v > 0.0 for v in tail)
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_error_bound_ratio_vanishes():
    # the bound loses a factor ~u (and an extra exponential sliver) against
    # the leading EC term, so the relative error shrinks steadily with u
    model = GaussianModel(cov=COV200)
    ratios = []
    for u in (4.0, 6.0, 8.0, 12.0):
        approx, bound = excursion_probability(model, SQUARE, u)
        ratios.append(bound / approx)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.01


def test_warns_below_peak_and_bound_availability():
    with pytest.warns(UserWarning, match="peak"):
        excursion_probability(GaussianModel(cov=COV880), CUBE, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        excursion_probability(GaussianModel(cov=COV880), CUBE, 5.0)
    aniso = GaussianModel(cov=CovarianceModel(variance=1.0, matrix=np.diag([200.0, 800.0])))
    _, bound = excursion_probability(aniso, SQUARE, 4.0)
    assert bound is None
    chisq = ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0))
    _, bound = excursion_probability(chisq, SQUARE, 12.0)
    assert bound is None


# ---------------------------------------------------------------------------
# threshold solving
# ---------------------------------------------------------------------------

def test_threshold_matches_independent_bisection():
    # reference root of the 2-d closed form at alpha=0.05, from a standalone
    # 200-step interval bisection
    result = threshold(GaussianModel(cov=COV200), SQUARE, 0.05)
    assert result.u_star == pytest.approx(3.727106440805648, abs=1e-8)
    assert abs(result.eec_at_u - 0.05) <= 1e-10
    assert result.alpha == 0.05
    z2 = result.u_star**2
    assert result.error_bound == pytest.approx(
        math.exp(-0.5 * z2 * (1.0 + 1.0 / 2.0)), rel=1e-12
    )


def test_rescaled_domain_leaves_curve_threshold_and_bound_unchanged():
    # sides x c with lambda2 / c^2 is the same field in other length units
    gauss_levels = np.linspace(-3.0, 5.0, 17)
    positive_levels = np.linspace(0.5, 20.5, 17)
    cases = [
        (lambda cov: GaussianModel(cov=cov), gauss_levels),
        (lambda cov: ChiSquaredModel(k=5, cov=cov), positive_levels),
        (lambda cov: ChiSquaredModel(k=5, cov=cov, standardized=True), gauss_levels),
        (lambda cov: TFieldModel(k=5, cov=cov), gauss_levels),
        (lambda cov: FFieldModel(n=1, m=7, cov=cov), positive_levels),
        (lambda cov: FFieldModel(n=4, m=9, cov=cov), positive_levels),
    ]
    for make, levels in cases:
        base = make(COV200)
        base_curve = expected_ec_curve(base, SQUARE, levels).values
        base_result = threshold(base, SQUARE, 0.05)
        level = base_result.u_star  # above the expected-EC peak, so no warning
        base_approx, base_bound = excursion_probability(base, SQUARE, level)
        for c in (1.0, 2.0, 10.0):
            model = make(CovarianceModel(variance=1.0, lambda2=200.0 / c**2))
            rect = Rectangle((c, c))
            curve = expected_ec_curve(model, rect, levels).values
            np.testing.assert_allclose(curve, base_curve, rtol=1e-12, atol=0.0)
            result = threshold(model, rect, 0.05)
            assert result.u_star == pytest.approx(base_result.u_star, rel=1e-9)
            approx, bound = excursion_probability(model, rect, level)
            assert approx == pytest.approx(base_approx, rel=1e-12)
            if base_bound is None:
                assert result.error_bound is None and bound is None
            else:
                assert result.error_bound == pytest.approx(base_result.error_bound, rel=1e-9)
                assert bound == pytest.approx(base_bound, rel=1e-9)


def test_threshold_solver_consistency():
    model = GaussianModel(cov=COV200)
    u0 = 3.2
    alpha = expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, u0)
    assert 0.0 < alpha < 0.5
    result = threshold(model, SQUARE, alpha)
    assert result.u_star == pytest.approx(u0, abs=1e-8)


def test_threshold_monotone_in_alpha():
    model = GaussianModel(cov=COV200)
    r5 = threshold(model, SQUARE, 0.05)
    r1 = threshold(model, SQUARE, 0.01)
    assert r1.u_star > r5.u_star
    assert r1.u_star == pytest.approx(4.160698675732805, abs=1e-8)


def test_threshold_alpha_domain():
    model = GaussianModel(cov=COV200)
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError, match="alpha"):
            threshold(model, SQUARE, bad)


def test_threshold_chisq_tail_root():
    model = ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0))
    result = threshold(model, CUBE, 0.05)
    assert result.u_star > 4.0  # beyond the bump near the density mode
    assert abs(result.eec_at_u - 0.05) <= 1e-10
    assert result.error_bound is None
    check = expected_ec_curve(model, CUBE, np.array([result.u_star])).values[0]
    assert check == pytest.approx(result.eec_at_u, rel=1e-12)


# Worsley's (1994) expected EC on the unit square at lambda2 = 20, L = (1, 2
# sqrt(20), 20), with its EC densities written in the level u, set equal to
# 0.05 and solved past the last peak in 50-digit mpmath.  Gamma(200) and
# r^399 overflow a float, so these need the densities in log form.
LARGE_DF_THRESHOLDS = {"chisq:400": 498.27258995372559133, "f:400:400": 1.3883801336792780775}


def test_threshold_large_degrees_of_freedom_matches_worsley():
    cov = CovarianceModel(variance=1.0, lambda2=20.0)
    for model in (ChiSquaredModel(k=400, cov=cov), FFieldModel(n=400, m=400, cov=cov)):
        result = threshold(model, SQUARE, 0.05)
        assert result.u_star == pytest.approx(LARGE_DF_THRESHOLDS[model.name], rel=1e-12)


def test_threshold_anisotropic_has_no_bound():
    aniso = GaussianModel(cov=CovarianceModel(variance=1.0, matrix=np.diag([200.0, 800.0])))
    result = threshold(aniso, SQUARE, 0.05)
    assert result.error_bound is None
    assert abs(result.eec_at_u - 0.05) <= 1e-10


def test_threshold_gaussianised_is_a_capability_error():
    model, rect = _tiny_gaussianised()
    with pytest.raises(CapabilityError, match="simulation"):
        threshold(model, rect, 0.05)


def test_excursion_probability_gaussianised_is_a_capability_error():
    model, rect = _tiny_gaussianised()
    with pytest.raises(CapabilityError, match="simulation"):
        excursion_probability(model, rect, 3.0)


def test_threshold_unattainable_alpha_reports_peak(monkeypatch):
    # no supported model/domain pushes its final EC peak below 0.5 within
    # alpha's admissible range, so exercise the guard on a synthetic curve
    def fake(model, lkcs, levels, order=0):
        return 0.03 * np.exp(-0.5 * (levels - 3.0) ** 2)

    monkeypatch.setattr(expectations_mod, "_closed_form", fake)
    with pytest.raises(NoSolutionError, match="0.03"):
        threshold(GaussianModel(cov=COV200), SQUARE, 0.05)


def test_threshold_plateau_never_reaches_alpha(monkeypatch):
    def fake(model, lkcs, levels, order=0):
        return 0.2 + np.exp(-levels)

    monkeypatch.setattr(expectations_mod, "_closed_form", fake)
    with pytest.raises(NoSolutionError, match="never falls"):
        threshold(GaussianModel(cov=COV200), SQUARE, 0.05)


def test_threshold_root_near_the_end_of_the_search_window():
    # this t_5 curve first falls below alpha between 512 and 1000 marginal
    # scales past its peak: past the last doubling of the bracket, inside
    # the window, whose end the bracket must reach
    model = TFieldModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=50.0))
    box = Rectangle((1.0, 0.7, 1.3))
    result = threshold(model, box, 0.05)
    assert abs(result.eec_at_u - 0.05) <= 1e-10
    check = expected_ec_curve(model, box, np.array([result.u_star])).values[0]
    assert abs(check - 0.05) <= 1e-10
    peak, _ = expectations_mod._peak(model, expectations_mod._metric_lkcs(model, box))
    _, scale = model._window()
    assert peak + 512.0 * scale < result.u_star <= peak + 1000.0 * scale


def test_threshold_result_serialization():
    result = ThresholdResult(alpha=0.05, u_star=3.5, eec_at_u=0.05, error_bound=None)
    d = result.as_dict()
    assert d == {"alpha": 0.05, "u_star": 3.5, "eec_at_u": 0.05, "error_bound": None}
    text = result.as_text()
    lines = text.strip().split("\n")
    # full-precision decimal rendering: keys fixed, values round-trip exactly
    assert [line.split("=")[0] for line in lines] == [
        "alpha",
        "u_star",
        "eec_at_u",
        "error_bound",
    ]
    assert float(lines[0].split("=")[1]) == 0.05
    assert float(lines[1].split("=")[1]) == 3.5
    assert lines[3] == "error_bound=unavailable"
    with_bound = ThresholdResult(alpha=0.05, u_star=3.5, eec_at_u=0.05, error_bound=1e-3)
    assert float(with_bound.as_text().strip().split("\n")[3].split("=")[1]) == 1e-3


# ---------------------------------------------------------------------------
# Monte-Carlo agreement (anisotropic) and identification
# ---------------------------------------------------------------------------

def test_anisotropic_expected_ec_agrees_with_simulation():
    mat = np.array([[200.0, 60.0], [60.0, 800.0]])
    model = GaussianModel(cov=CovarianceModel(variance=1.0, matrix=mat))
    n, spacing, reps = 64, 1.0 / 128.0, 60
    rect = Rectangle(((n - 1) * spacing,) * 2)
    levels = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    curves = np.empty((reps, levels.size))
    for r in range(reps):
        f = simulate_model(model, (n, n), spacing, seed=9000 + r)
        curves[r] = ec_curve(f, levels).values
    mean = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1) / math.sqrt(reps)
    expected = expected_ec_stationary_rectangle(rect, mat, levels)
    for i in range(levels.size):
        # rule-of-three floor keeps the check meaningful when the sample SD
        # underestimates at rarely-varying levels
        assert abs(mean[i] - expected[i]) <= max(3.0 * se[i], 3.0 / reps)


def test_identify_zero_noise_recovers_generator():
    gaussian = GaussianModel(cov=COV200)
    chisq = ChiSquaredModel(
        k=5, cov=CovarianceModel(variance=1.0, lambda2=100.0), standardized=True
    )
    levels = np.linspace(-2.0, 4.0, 31)
    synthetic = ECCurve(
        levels=levels,
        values=expected_ec_curve(gaussian, SQUARE, levels).values,
        kind="empirical",
    )
    ranked = identify_model(synthetic, [chisq, gaussian], SQUARE)
    assert ranked[0][0] is gaussian
    assert ranked[0][1] == 0.0
    assert ranked[1][1] > 0.0


def test_identify_single_candidate_and_empty():
    model = GaussianModel(cov=COV200)
    levels = np.linspace(-1.0, 3.0, 11)
    curve = ECCurve(levels=levels, values=np.zeros(11), kind="empirical")
    ranked = identify_model(curve, [model], SQUARE)
    assert len(ranked) == 1 and ranked[0][0] is model
    with pytest.raises(ValueError, match="empty"):
        identify_model(curve, [], SQUARE)


def test_identify_tie_keeps_candidate_order():
    first = GaussianModel(cov=COV200)
    second = GaussianModel(cov=CovarianceModel(variance=1.0, lambda2=200.0))
    levels = np.linspace(-1.0, 3.0, 11)
    curve = ECCurve(levels=levels, values=np.zeros(11), kind="empirical")
    ranked = identify_model(curve, [first, second], SQUARE)
    assert ranked[0][0] is first
    assert ranked[1][0] is second
    assert ranked[0][1] == ranked[1][1]


def test_identify_gaussianised_candidate_uses_curve_shape():
    model, rect = _tiny_gaussianised()
    expectations_mod._simulation_average.cache_clear()
    levels = np.array([-1.0, 0.0, 1.0])
    curve = ECCurve(
        levels=levels,
        values=np.array([2.0, 1.0, 1.0]),
        kind="empirical",
        meta={"shape": "17x17"},
    )
    ranked = identify_model(curve, [model, GaussianModel(cov=COV200)], rect, sim_reps=3)
    assert len(ranked) == 2
    assert all(math.isfinite(d) for _, d in ranked)
