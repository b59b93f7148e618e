"""Expected excursion-set geometry: kinematic sums, closed forms, solvers.

Reference values labelled "independent" were computed from hand-written
closed forms (plain bisection, direct formula evaluation) before the module
was wired up, so the assertions do not merely re-run the implementation.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

import xkit.expectations as expectations_mod
import xkit.fields as fields_mod
import xkit.topology as topology_mod
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
    component_seed,
    simulate_model,
)
from xkit.geometry import (
    GMFSeries,
    LKCVector,
    Rectangle,
    _chi2_quantiles,
    _chi2_scores,
    chi2_gmf,
    flag_coefficient,
    gaussian_gmf,
    gaussian_tail,
    hermite,
    rectangle_lkcs,
    tube_volume_rectangle,
)
from xkit.topology import ECCurve, _ranks, ec_curve

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
    with pytest.raises(ValueError, match="positive definite"):
        metric_rectangle_lkcs(SQUARE, np.diag([1.0, -2.0]))


def test_an_overflowed_metric_curvature_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            metric_rectangle_lkcs(Rectangle((1e10,) * 3), 1e308 * np.eye(3))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quadrature_refuses_a_non_finite_metric_at_the_first_node(bad):
    # a NaN metric used to run the node doublings to their cap (2 s, ~300k
    # calls in 3-D) and end in QuadratureError
    calls = []

    def metric(x):
        calls.append(x)
        return np.full((3, 3), bad)

    with pytest.raises(ValueError, match="metric must be finite") as info:
        top_lkc_quadrature(Rectangle((1.0, 1.0, 1.0)), metric)
    assert len(calls) == 1
    assert str(calls[0]) in str(info.value)


def test_quadrature_refuses_a_bad_tolerance_before_any_metric_call():
    # a NaN or negative tolerance can never be met: it ran to the node cap
    calls = []

    def metric(x):
        calls.append(x)
        return np.eye(2)

    for rel_tol in (math.nan, -1e-8, 0.0, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            top_lkc_quadrature(SQUARE, metric, rel_tol=rel_tol)
    assert calls == []


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
    for half in ({"rect": SQUARE}, {"metric": lambda x: np.eye(2)}):
        with pytest.raises(ValueError, match="rect and metric must be supplied together"):
            expected_lkc_high_level(5.0, 0, **half)


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


def test_closed_form_fronts_refuse_non_finite_levels():
    # a non-finite level has no expected EC: the sums would give NaN, or warn at infinity
    lkcs = metric_rectangle_lkcs(SQUARE, SPECTRAL[2])
    for u in (math.nan, math.inf, -math.inf):
        message = f"levels must be finite, got {u}"
        with pytest.raises(ValueError, match=message):
            expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, u)
        with pytest.raises(ValueError, match=message):
            expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, np.array([3.0, u, -1.0]))
        with pytest.raises(ValueError, match=message):
            expected_ec_stationary_rectangle(SQUARE, SPECTRAL[2], np.array([2.0, u]))
        with pytest.raises(ValueError, match=message):
            expected_lkc_high_level(u, 0, lkcs=lkcs)
        with pytest.raises(ValueError, match=message):
            expected_lkc_high_level(u, 1, rect=SQUARE, metric=lambda x: SPECTRAL[2])
        with pytest.raises(ValueError, match=f"tube radius must be finite and >= 0, got {u}"):
            tube_volume_rectangle(SQUARE, u)
    # unsorted arrays and scalars stay accepted
    values = expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, np.array([3.0, -1.0]))
    assert values[0] == expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, 3.0)


def test_expected_curve_metadata_holds_python_floats():
    # provenance holds plain floats, "80.0" and not "np.float64(80.0)"
    matrix = np.array([[80.0, 10.0], [10.0, 60.0]])
    curve = expected_ec_curve(GaussianModel(CovarianceModel(matrix=matrix)), SQUARE, [0.0, 1.0])
    assert curve.meta["spectral_matrix"] == "80.0,10.0;10.0,60.0"
    cov = CovarianceModel(variance=np.float64(2.0), lambda2=np.float64(20.0))
    curve = expected_ec_curve(GaussianModel(cov), SQUARE, [0.0, 1.0])
    assert (curve.meta["lambda2"], curve.meta["variance"]) == ("20.0", "2.0")


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
    # both are CapabilityErrors, the one type a caller catches for a missing closed form
    assert issubclass(CapabilityError, NotImplementedError)
    with pytest.raises(CapabilityError, match="order 3"):
        expected_ec_curve(TFieldModel(k=5, cov=cov), Rectangle((1.0,) * 4), [1.0])
    with pytest.raises(CapabilityError, match="order 1"):
        threshold(FFieldModel(n=1, m=1, cov=cov), SQUARE, 0.05)
    levels = np.array([0.5, 2.0, 9.0])
    curve = expected_ec_curve(FFieldModel(n=1, m=1, cov=cov), Rectangle((1.0,)), levels)
    direct = stats.f(1, 1).sf(levels) + math.sqrt(20.0) * 2.0 / (2.0 * math.pi)
    np.testing.assert_allclose(curve.values, direct, rtol=1e-12)


# (the argument's name in the refusal, a call with a fractional value for it)
NON_INTEGER_ARGUMENTS = {
    "expected_lkc_general": ("order i", lambda: expected_lkc_general(
        rectangle_lkcs(SQUARE), gaussian_gmf(1.0, 2), 1.5)),
    "expected_lkc_isotropic": ("order i", lambda: expected_lkc_isotropic(
        rectangle_lkcs(SQUARE), gaussian_gmf(1.0, 2), 200.0, 1.5)),
    "expected_lkc_high_level": ("order i", lambda: expected_lkc_high_level(
        3.0, 1.5, lkcs=rectangle_lkcs(SQUARE))),
    "gaussian_gmf": ("max_order", lambda: gaussian_gmf(1.0, 1.5)),
    "chi2_gmf order": ("max_order", lambda: chi2_gmf(1.0, 3, 1.5)),
    "chi2_gmf k": ("degrees of freedom", lambda: chi2_gmf(1.0, 2.5, 2)),
    "flag_coefficient": ("n", lambda: flag_coefficient(2.5, 1)),
    "hermite": ("Hermite index", lambda: hermite(1.5, 0.3)),
    "Rectangle.cube": ("dim", lambda: Rectangle.cube(1.0, 1.5)),
    "GMFSeries": ("ambient Gaussian dimension", lambda: GMFSeries(k=1.5, values=[0.5])),
}


@pytest.mark.parametrize("what, call", NON_INTEGER_ARGUMENTS.values(), ids=NON_INTEGER_ARGUMENTS)
def test_non_integer_orders_and_counts_are_refused_by_name(what, call):
    # a fraction is refused by name, not accepted or left to a bare TypeError
    with pytest.raises(ValueError, match=rf"^{what} must be an integer, got \d\.5$"):
        call()


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
    # no realisations would average to 0/0; both routes name the argument, and
    # a closed-form model, which draws nothing, is held to the same rule
    gaussianised, rect = _tiny_gaussianised()
    levels = np.array([-1.0, 0.0, 1.0])
    curve = ECCurve(levels=levels, values=np.array([2.0, 1.0, 1.0]), kind="empirical")
    for model in (gaussianised, GaussianModel(cov=COV200)):
        with pytest.raises(ValueError, match="sim_reps must be >= 1, got 0"):
            expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=0)
        with pytest.raises(ValueError, match="sim_reps must be >= 1, got -1"):
            identify_model(curve, [model], rect, sim_shape=(17, 17), sim_reps=-1)


def test_gaussianised_curve_refuses_a_bad_worker_count():
    # a count below 1 or not an integer is refused by name, before any draw,
    # for a closed-form model as for a gaussianised one
    gaussianised, rect = _tiny_gaussianised()
    levels = np.array([-1.0, 0.0, 1.0])
    curve = ECCurve(levels=levels, values=np.array([2.0, 1.0, 1.0]), kind="empirical")
    misses = expectations_mod._simulation_average.cache_info().misses
    for model in (gaussianised, GaussianModel(cov=COV200)):
        for jobs in (0, -2, 1.5):
            with pytest.raises(ValueError, match="jobs must be"):
                expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=1, jobs=jobs)
            with pytest.raises(ValueError, match="jobs must be"):
                identify_model(curve, [model], rect, sim_shape=(17, 17), sim_reps=1, jobs=jobs)
    assert expectations_mod._simulation_average.cache_info().misses == misses


def test_a_sim_shape_is_checked_on_every_route():
    # a closed form draws nothing, but a lattice it is given is held to the
    # gaussianised curve's rule: whole entries, one per axis, each at least 2
    gaussianised, rect = _tiny_gaussianised()
    levels = np.array([-1.0, 0.0, 1.0])
    curve = ECCurve(levels=levels, values=np.array([2.0, 1.0, 1.0]), kind="empirical",
                    meta={"shape": "17x17"})
    misses = expectations_mod._simulation_average.cache_info().misses
    for model in (gaussianised, GaussianModel(cov=COV200)):
        with pytest.raises(ValueError, match=r"^each sim_shape entry must be an integer, got 1\.5$"):
            expected_ec_curve(model, rect, levels, sim_shape=(1.5,))
        for shape in ((5,), (17, 1), (17, 17, 17)):
            with pytest.raises(ValueError, match=r"does not fit a 2-d domain$"):
                expected_ec_curve(model, rect, levels, sim_shape=shape)
            with pytest.raises(ValueError, match=r"does not fit a 2-d domain$"):
                identify_model(curve, [model], rect, sim_shape=shape, sim_reps=1)
    assert expectations_mod._simulation_average.cache_info().misses == misses
    # a closed-form candidate is handed the curve's own lattice, which fits
    ranked = identify_model(curve, [GaussianModel(cov=COV200)], rect)
    assert len(ranked) == 1 and math.isfinite(ranked[0][1])


def test_expected_curve_refuses_non_integer_arguments_by_name():
    # a float order, repetition count or lattice size is refused, not truncated
    model, rect = _tiny_gaussianised()
    levels = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="order must be an integer"):
        expected_ec_curve(GaussianModel(cov=COV200), rect, levels, order=1.5)
    misses = expectations_mod._simulation_average.cache_info().misses
    with pytest.raises(ValueError, match="sim_reps must be an integer"):
        expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=1.5)
    with pytest.raises(ValueError, match="sim_shape entry must be an integer"):
        expected_ec_curve(model, rect, levels, sim_shape=(17.7, 17), sim_reps=1)
    assert expectations_mod._simulation_average.cache_info().misses == misses


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


def test_gaussianised_curve_cache_ignores_the_worker_count():
    # the curve is the same for any worker count, so asking again with
    # another one is a hit, not a second simulation
    model, rect = _tiny_gaussianised()
    levels = np.array([-1.5, -0.5, 0.5, 1.5])
    cache = expectations_mod._simulation_average
    cache.cache_clear()
    one = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=3, jobs=1)
    two = expected_ec_curve(model, rect, levels, sim_shape=(17, 17), sim_reps=3, jobs=2)
    assert (cache.cache_info().misses, cache.cache_info().hits) == (1, 1)
    assert one.values.tobytes() == two.values.tobytes()


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


def _planted_curve(monkeypatch, k, levels, values):
    """Count one gaussianised chi-square(``k``) draw whose chi-square values
    are ``values`` and check it against the rule: a value counts at each level
    whose running-maximum pulled level is at or below it.

    The values are shuffled with a fixed seed and repeated to fill a
    64-column lattice, so each site's rank moves the curve.  Returns the
    lattice and its ranks by the rule."""
    shuffled = np.random.default_rng(7).permutation(np.ravel(values))
    planted = np.resize(shuffled, (-(-shuffled.size // 64), 64))
    monkeypatch.setattr(fields_mod, "_sum_of_squares", lambda *args: planted.copy())
    counted, real = [], topology_mod._rank_curve
    monkeypatch.setattr(topology_mod, "_rank_curve",
                        lambda ranks, size: counted.append(ranks) or real(ranks, size))
    model = GaussianisedModel(ChiSquaredModel(k=k, cov=CovarianceModel(lambda2=100.0)))
    rect = Rectangle(tuple((n - 1) / 63 for n in planted.shape))
    expectations_mod._simulation_average.cache_clear()
    curve = expected_ec_curve(model, rect, levels, sim_shape=planted.shape, sim_reps=1)
    expectations_mod._simulation_average.cache_clear()
    wanted = np.searchsorted(np.maximum.accumulate(_chi2_quantiles(levels, k)), planted, side="right")
    (ranks,) = counted
    assert ranks.dtype == np.min_scalar_type(levels.size)
    assert np.array_equal(ranks, wanted)
    assert curve.values.tobytes() == real(wanted, levels.size).astype(float).tobytes()
    return planted, wanted


@pytest.mark.parametrize("k", [1, 5, 20])
def test_pulled_chi2_ranks_match_the_scores_around_each_pulled_level(monkeypatch, k):
    # values on each pulled level and within +-3000 ULPs of it count at the
    # running maximum of the pulled levels, whatever their computed scores.
    # Beside 81 levels are 1e-17, which pulls back to the value of 0, and each
    # level's upper neighbour that pulls back below that level's value
    levels = np.linspace(-4.0, 4.0, 81)
    close = np.nextafter(levels, np.inf)
    flipped = close[_chi2_quantiles(close, k) < _chi2_quantiles(levels, k)]
    levels = np.union1d(levels, np.append(flipped, 1e-17))
    pulled = _chi2_quantiles(levels, k)
    values = pulled + np.arange(-3000, 3001)[:, None] * np.spacing(pulled)
    planted, wanted = _planted_curve(monkeypatch, k, levels, values)
    # the scores, which the rule no longer computes, place some of these
    # values on the other side of a level
    assert np.any(_ranks(_chi2_scores(planted, k), levels) != wanted)


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("levels, top", [
    (np.array([-40.0, -30.0, 30.0, 40.0]), 3),  # 40 pulls back to inf
    (np.linspace(-36.0, 36.0, 255), 255),  # levels past both ends, a uint8 rank of 255
], ids=["outer", "255"])
def test_pulled_chi2_ranks_past_the_pull_limit(monkeypatch, k, levels, top):
    # values on a grid of scores to the last finite one, about the values
    # pulled from +-25 and about each finite pulled level, kept where their
    # scores are finite, as a draw's must be
    ends = _chi2_quantiles(np.array([-25.0, 25.0]), k)
    pulled = _chi2_quantiles(levels, k)
    pulled = pulled[np.isfinite(pulled)]
    ulps = np.arange(-3000, 3001)[:, None]
    values = np.concatenate([
        _chi2_quantiles(np.linspace(-39.0, 39.0, 4001), k),
        (ends + ulps * np.spacing(ends)).ravel(),
        (pulled + ulps * np.spacing(pulled)).ravel(),
    ])
    values = values[(special.gammainc(k / 2.0, values / 2.0) > 0)
                    & (special.gammaincc(k / 2.0, values / 2.0) > 0)]  # finite scores
    _, wanted = _planted_curve(monkeypatch, k, levels, values)
    assert wanted.max() == top


def test_pulled_chi2_ranks_score_only_the_values_beside_a_pulled_level(monkeypatch):
    # a chi-square(5) draw with each pulled level, +-3000 ULPs, planted in it
    # counts at the pulled levels, and only its minimum and maximum are scored
    k = 5
    levels = np.concatenate([[-40.0, -30.0, -25.0], np.linspace(-4.0, 4.0, 81), [25.0, 30.0, 40.0]])
    cov = CovarianceModel(lambda2=100.0)
    draw = simulate_model(ChiSquaredModel(k=k, cov=cov), (64, 64), 1 / 63, 11).values
    pulled = _chi2_quantiles(levels, k)
    pulled = pulled[(pulled > 0) & np.isfinite(pulled)]
    values = np.append(draw, pulled + np.arange(-3000, 3001)[:, None] * np.spacing(pulled))
    scored = []

    def counted(v, k):
        scored.append(v.size)
        return _chi2_scores(v, k)

    monkeypatch.setattr(expectations_mod, "_chi2_scores", counted)
    _planted_curve(monkeypatch, k, levels, values)
    assert scored == [2]
    # every level pulls back to 0, at or below every draw: the whole lattice,
    # whose EC is 1; or every level pulls back to inf, above every draw: EC 0
    monkeypatch.undo()
    model = GaussianisedModel(ChiSquaredModel(k=1, cov=cov))
    for grid, wanted in ((np.arange(-40.0, -29.0), 1.0), (np.array([38.0, 39.0, 40.0]), 0.0)):
        assert np.all(_chi2_quantiles(grid, 1) == (0.0 if wanted else np.inf))
        expectations_mod._simulation_average.cache_clear()
        curve = expected_ec_curve(model, Rectangle((1.0, 1.0)), grid, sim_shape=(33, 33), sim_reps=2)
        assert np.all(curve.values == wanted)
    expectations_mod._simulation_average.cache_clear()


CURVE_EDGE_LEVELS = [-40.0, -38.6, -38.0, -3.0, 0.0, 1e-17, 3.0, 38.0, 40.0]


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("sim_shape, side", [((33, 33), 1.6), ((14, 14, 14), 0.65)])
def test_gaussianised_chi2_curve_is_the_mean_of_its_draws_curves(k, sim_shape, side):
    # levels past every finite score (|u| > 38.47), two just inside it and
    # two, 0 and 1e-17, that pull back to one chi-square value
    cov = CovarianceModel(variance=1.0, lambda2=100.0)
    model = GaussianisedModel(ChiSquaredModel(k=k, cov=cov))
    rect = Rectangle((side,) * len(sim_shape))
    spacing = side / (sim_shape[0] - 1)
    expectations_mod._simulation_average.cache_clear()
    curve = expected_ec_curve(model, rect, CURVE_EDGE_LEVELS, sim_shape=sim_shape, sim_reps=3)
    draws = [
        simulate_model(model, sim_shape, spacing, component_seed(expectations_mod._CURVE_SEED_BASE, r))
        for r in range(3)
    ]
    total = sum((ec_curve(f, CURVE_EDGE_LEVELS).values for f in draws), np.zeros(9))
    assert curve.values.tobytes() == (total / 3).tobytes()


@pytest.mark.parametrize("value, message", [
    (0.0, r"cannot map 0\.0: its chi-square\(1\) lower tail"),
    (2e4, r"cannot map 20000\.0: its chi-square\(1\) upper tail"),
    (-1.0, r"needs nonnegative values"),
])
def test_gaussianised_chi2_curve_refuses_what_gaussianise_refuses(monkeypatch, value, message):
    real = fields_mod._sum_of_squares

    def with_one_value(*args):
        total = real(*args)
        total[3, 5] = value
        return total

    monkeypatch.setattr(fields_mod, "_sum_of_squares", with_one_value)
    model = GaussianisedModel(ChiSquaredModel(k=1, cov=CovarianceModel(lambda2=100.0)))
    expectations_mod._simulation_average.cache_clear()
    with pytest.raises(ValueError, match=message):
        expected_ec_curve(model, Rectangle((1.6, 1.6)), [-1.0, 0.0, 1.0],
                          sim_shape=(33, 33), sim_reps=1)


def test_gaussianised_curve_checks_the_dimension_before_drawing(monkeypatch):
    # the same rule and message as euler_characteristic, and no field drawn;
    # the closed-form 4-D Gaussian curve needs no lattice and is kept
    draws = []
    real = expectations_mod.simulate_model
    monkeypatch.setattr(expectations_mod, "simulate_model",
                        lambda *args: draws.append(args) or real(*args))
    cov = CovarianceModel(lambda2=10.0)  # a lattice the sampler would resolve
    cube = Rectangle.cube(1.0, 4)
    expectations_mod._simulation_average.cache_clear()
    with pytest.raises(ValueError, match="unsupported dimension 4: Euler characteristics are "
                                         "implemented for 1 to 3 dimensions"):
        expected_ec_curve(GaussianisedModel(ChiSquaredModel(k=3, cov=cov)), cube, [0.0, 1.0],
                          sim_shape=(9, 9, 9, 9), sim_reps=2)
    assert draws == []
    assert np.isfinite(expected_ec_curve(GaussianModel(cov=cov), cube, [0.0, 1.0]).values).all()


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
    assert bound == math.exp(-0.5 * 16.0 * (1.0 + 1.0 / 2.0))
    chisq = ChiSquaredModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=20.0))
    _, bound = excursion_probability(chisq, SQUARE, 12.0)
    assert bound is None


def test_excursion_probability_refuses_non_finite_levels():
    model = GaussianModel(cov=COV200)
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"levels must be finite, got {u}"):
            excursion_probability(model, SQUARE, u)


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
    # (the t_5 cube's threshold lies thousands of marginal scales out)
    gauss_levels = np.linspace(-3.0, 5.0, 17)
    positive_levels = np.linspace(0.5, 20.5, 17)
    cases = [
        (lambda cov: GaussianModel(cov=cov), gauss_levels, 2),
        (lambda cov: ChiSquaredModel(k=5, cov=cov), positive_levels, 2),
        (lambda cov: ChiSquaredModel(k=5, cov=cov, standardized=True), gauss_levels, 2),
        (lambda cov: TFieldModel(k=5, cov=cov), gauss_levels, 2),
        (lambda cov: FFieldModel(n=1, m=7, cov=cov), positive_levels, 2),
        (lambda cov: FFieldModel(n=4, m=9, cov=cov), positive_levels, 2),
        (lambda cov: TFieldModel(k=5, cov=cov), gauss_levels, 3),
    ]
    for make, levels, dim in cases:
        base, unit = make(COV200), Rectangle.cube(1.0, dim)
        base_curve = expected_ec_curve(base, unit, levels).values
        base_result = threshold(base, unit, 0.05)
        level = base_result.u_star  # above the expected-EC peak, so no warning
        base_approx, base_bound = excursion_probability(base, unit, level)
        for c in (1.0, 2.0, 10.0):
            model = make(CovarianceModel(variance=1.0, lambda2=200.0 / c**2))
            rect = Rectangle.cube(c, dim)
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


def test_error_bound_does_not_depend_on_how_lambda_is_written():
    # x -> Lambda^(1/2) x makes every squared-exponential field isotropic, so
    # sigma_c^2 = 2 and the bound at a level u is exp(-3 u^2 / 4) for every
    # spectral matrix: lambda2 or lambda2 * I, rotated, or rescaled with the domain.
    def bound_at(u):
        return math.exp(-0.5 * u * u * (1.0 + 1.0 / 2.0))

    def rotated(matrix, angle):
        c, s = math.cos(angle), math.sin(angle)
        q = np.array([[c, -s], [s, c]])
        return q @ matrix @ q.T

    scalar = threshold(GaussianModel(cov=COV200), SQUARE, 0.05)
    assert scalar.error_bound == bound_at(scalar.u_star)
    matrices = [200.0 * np.eye(2), np.diag([200.0, 800.0])]
    matrices += [rotated(m, angle) for m in matrices for angle in (0.3, 1.1)]
    for matrix in matrices:
        model = GaussianModel(cov=CovarianceModel(variance=1.0, matrix=matrix))
        assert excursion_probability(model, SQUARE, 4.0)[1] == bound_at(4.0)
        result = threshold(model, SQUARE, 0.05)
        assert abs(result.eec_at_u - 0.05) <= 1e-10
        assert result.error_bound == bound_at(result.u_star)
        if np.allclose(matrix, 200.0 * np.eye(2), rtol=1e-14, atol=0.0):
            assert result.u_star == pytest.approx(scalar.u_star, rel=1e-14)
            assert result.error_bound == pytest.approx(scalar.error_bound, rel=1e-13)
        for c in (2.0, 10.0):
            scaled = GaussianModel(cov=CovarianceModel(variance=1.0, matrix=matrix / c**2))
            again = threshold(scaled, Rectangle((c, c)), 0.05)
            assert again.u_star == pytest.approx(result.u_star, rel=1e-12)
            assert again.error_bound == pytest.approx(result.error_bound, rel=1e-10)


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


def test_threshold_refuses_a_root_that_misses_alpha(monkeypatch):
    # the curve drops from 0.097 to 0.01 at level 4.5, past alpha, so Brent's
    # method closes in on the drop, where the EC is not alpha
    def fake(model, lkcs, levels, order=0):
        return np.where(levels < 4.5, 0.3 * np.exp(-0.5 * (levels - 3.0) ** 2),
                        0.01 * np.exp(4.5 - levels))

    monkeypatch.setattr(expectations_mod, "_closed_form", fake)
    with pytest.raises(NoSolutionError, match=r"\|EEC - alpha\| <= 1e-10 \(last 0\.0"):
        threshold(GaussianModel(cov=COV200), SQUARE, 0.05)


@pytest.mark.parametrize("far", [np.nan, 1.0], ids=["nan", "rise"])
def test_threshold_stops_where_the_curve_stops_falling(monkeypatch, far):
    # the curve peaks at 0 and the bracket ends 1, 2, 4, ..., 32; past level
    # 30 the curve is `far`
    def fake(model, lkcs, levels, order=0):
        return np.where(levels > 30.0, far, 0.2 + 0.1 * np.exp(-levels / 5.0))

    monkeypatch.setattr(expectations_mod, "_closed_form", fake)
    with pytest.raises(NoSolutionError, match=f"stops falling at level 32, where it is {far:g}"):
        threshold(GaussianModel(cov=COV200), SQUARE, 0.05)


def test_threshold_root_far_past_the_peak():
    # this t_5 curve first falls below alpha between 512 and 1024 marginal
    # scales past its peak, so the bracket doubles ten times
    model = TFieldModel(k=5, cov=CovarianceModel(variance=1.0, lambda2=50.0))
    box = Rectangle((1.0, 0.7, 1.3))
    result = threshold(model, box, 0.05)
    assert abs(result.eec_at_u - 0.05) <= 1e-10
    check = expected_ec_curve(model, box, np.array([result.u_star])).values[0]
    assert abs(check - 0.05) <= 1e-10
    peak, _ = expectations_mod._peak(model, expectations_mod._metric_lkcs(model, box))
    _, scale = model._window()
    assert peak + 512.0 * scale < result.u_star < peak + 1024.0 * scale


# heavy-tailed fields whose expected EC falls as a power of u: the root lies
# from two thousand to sixteen million marginal scales past the peak
COV100 = CovarianceModel(variance=1.0, lambda2=100.0)
FAR_ROOTS = [
    (TFieldModel(k=5, cov=COV100), CUBE, 3040.5753666870391),
    (FFieldModel(n=2, m=3, cov=COV100), SQUARE, 608684.9),
    (FFieldModel(n=3, m=4, cov=COV100), CUBE, 49288159.9),
]


@pytest.mark.parametrize(
    "model, domain, u_star", FAR_ROOTS, ids=["t5-cube", "f23-square", "f34-cube"]
)
def test_heavy_tailed_threshold_solves_however_far_its_root(model, domain, u_star):
    result = threshold(model, domain, 0.05)
    assert result.u_star == pytest.approx(u_star, rel=1e-8)
    assert abs(result.eec_at_u - 0.05) <= 1e-10
    check = expected_ec_curve(model, domain, np.array([result.u_star])).values[0]
    assert abs(check - 0.05) <= 1e-10
    peak, _ = expectations_mod._peak(model, expectations_mod._metric_lkcs(model, domain))
    _, scale = model._window()
    assert result.u_star > peak + 1000.0 * scale


@pytest.mark.parametrize("k, domain", [(3, SQUARE), (4, CUBE)], ids=["t3-square", "t4-cube"])
def test_threshold_refuses_a_curve_that_flattens_above_alpha(k, domain):
    # with nu = k - 1 = D the t field's expected EC tends to a positive
    # constant (7.958 on the square, 50.66 on the cube) instead of 0
    with pytest.raises(NoSolutionError, match="never falls below alpha=0.05: it stops falling"):
        threshold(TFieldModel(k=k, cov=COV100), domain, 0.05)


ANISO = np.array([[300.0, 50.0, 0.0], [50.0, 200.0, 20.0], [0.0, 20.0, 100.0]])
CHI5 = ChiSquaredModel(k=5, cov=CovarianceModel(lambda2=20.0))
# float.hex of u_star at alpha = 0.05 and the closed-form evaluations each solve
# makes (one scan, the bracket and Brent's steps): the seven thresholds of the
# calibrate benchmark, then a t and an F case.  Evaluating a level faster must
# move neither a bit nor a Brent iterate.
THRESHOLD_PINS = {
    "gaussian 2-D": (GaussianModel(cov=COV200), SQUARE, "0x1.dd11d2e7fc51dp+1", 17),
    "gaussian 3-D": (GaussianModel(cov=COV880), CUBE, "0x1.430cf1312fae5p+2", 19),
    "anisotropic 3-D": (GaussianModel(CovarianceModel(matrix=ANISO)), CUBE,
                        "0x1.20e6e08a09825p+2", 17),
    "gaussian 2-D c=2": (GaussianModel(CovarianceModel(lambda2=50.0)), Rectangle((2.0, 2.0)),
                         "0x1.dd11d2e7fc51ep+1", 17),
    "gaussian 2-D c=10": (GaussianModel(CovarianceModel(lambda2=2.0)), Rectangle((10.0, 10.0)),
                          "0x1.dd11d2e7fc51ep+1", 17),
    "chisq:5 2-D": (CHI5, SQUARE, "0x1.5065a1442e8e7p+4", 20),
    "chisq:5 3-D": (CHI5, CUBE, "0x1.a7369fa57a27dp+4", 17),
    "t:5 3-D": (TFieldModel(k=5, cov=COV100), CUBE, "0x1.7c12696766015p+11", 29),
    "f:3:9 3-D": (FFieldModel(n=3, m=9, cov=COV100), CUBE, "0x1.bdd67ede60f15p+6", 22),
}


@pytest.mark.parametrize("model, domain, u_hex, calls", THRESHOLD_PINS.values(),
                         ids=THRESHOLD_PINS)
def test_threshold_bits_and_evaluation_count_are_pinned(monkeypatch, model, domain, u_hex, calls):
    made = []
    closed_form = expectations_mod._closed_form

    def counted(*args, **kwargs):
        made.append(args[2].size)
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(expectations_mod, "_closed_form", counted)
    result = threshold(model, domain, 0.05)
    assert (result.u_star.hex(), len(made)) == (u_hex, calls)
    assert made[0] > 2000 and set(made[1:]) == {1}  # one scan, then one level a call


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
