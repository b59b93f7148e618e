"""Field simulation: exact sampler, derived models, transforms, estimators, file format.

Statistical tolerances below were calibrated by running the checks over many
seeds before freezing the seeds used here; analytic targets (lag correlations,
moments, marginal laws) come straight from the covariance model.
"""

import math
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import special, stats

import xkit.fields as fields_mod
from xkit.fields import (
    ChiSquaredModel,
    CovarianceModel,
    FFieldModel,
    FieldFormatError,
    GaussianModel,
    GaussianisedModel,
    LatticeField,
    SimulationError,
    TFieldModel,
    component_seed,
    estimate_spectral_moments,
    gaussianise,
    read_field,
    simulate_gaussian,
    simulate_model,
    write_field,
)

COV20 = CovarianceModel(variance=1.0, lambda2=20.0)
COV200 = CovarianceModel(variance=1.0, lambda2=200.0)
COV2000 = CovarianceModel(variance=1.0, lambda2=2000.0)


# ---------------------------------------------------------------------------
# covariance model
# ---------------------------------------------------------------------------

def test_covariance_model_validation():
    with pytest.raises(ValueError):
        CovarianceModel(variance=0.0, lambda2=1.0)
    with pytest.raises(ValueError):
        CovarianceModel(variance=1.0)  # neither lambda2 nor matrix
    with pytest.raises(ValueError):
        CovarianceModel(variance=1.0, lambda2=1.0, matrix=np.eye(2))
    with pytest.raises(ValueError):
        CovarianceModel(variance=1.0, lambda2=-3.0)
    with pytest.raises(ValueError):
        CovarianceModel(variance=1.0, matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CovarianceModel(variance=1.0, matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_covariance_correlation_values():
    cov = CovarianceModel(variance=4.0, lambda2=8.0)
    assert cov.correlation(np.zeros(2)) == pytest.approx(1.0, abs=0.0)
    # exp(-lambda2 * |x|^2 / 2) at |x|^2 = 0.25
    assert cov.correlation(np.array([0.5, 0.0])) == pytest.approx(math.exp(-1.0), rel=1e-14)
    aniso = CovarianceModel(variance=1.0, matrix=np.diag([2.0, 18.0]))
    assert aniso.correlation(np.array([1.0, 0.0])) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert aniso.correlation(np.array([0.0, 1.0])) == pytest.approx(math.exp(-9.0), rel=1e-14)


def test_spectral_matrix_dimension_guard():
    aniso = CovarianceModel(variance=1.0, matrix=np.diag([2.0, 3.0]))
    with pytest.raises(ValueError):
        aniso.spectral_matrix(3)
    assert np.array_equal(COV20.spectral_matrix(3), 20.0 * np.eye(3))


def test_spectral_matrix_must_be_square():
    for matrix in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="spectral-moment matrix must be square"):
            CovarianceModel(matrix=matrix)


def test_covariance_models_compare_and_hash_by_value():
    spectral = np.array([[200.0, 50.0], [50.0, 300.0]])
    a = CovarianceModel(variance=1.0, matrix=spectral)
    b = CovarianceModel(variance=1.0, matrix=spectral.copy())
    assert a == b and hash(a) == hash(b)
    assert a != CovarianceModel(variance=1.0, matrix=np.diag([200.0, 300.0]))
    assert a != CovarianceModel(variance=2.0, matrix=spectral)
    assert COV20 != CovarianceModel(variance=1.0, matrix=20.0 * np.eye(2))
    assert GaussianModel(a) == GaussianModel(b) and hash(GaussianModel(a)) == hash(GaussianModel(b))
    assert ChiSquaredModel(k=3, cov=a) != ChiSquaredModel(k=3, cov=b, standardized=True)
    assert len({GaussianModel(a), GaussianModel(b), GaussianModel(COV20)}) == 2
    # equal covariances share one embedding amplitude
    fields_mod._amplitude.cache_clear()
    first = simulate_gaussian(a, (32, 32), 0.02, 3)
    second = simulate_gaussian(b, (32, 32), 0.02, 3)
    assert fields_mod._amplitude.cache_info().currsize == 1
    np.testing.assert_array_equal(first.values, second.values)


def test_covariance_model_keeps_its_own_read_only_matrix():
    spectral = np.array([[200.0, 50.0], [50.0, 300.0]])
    cov = CovarianceModel(matrix=spectral)
    before = hash(cov)
    assert not cov.matrix.flags.writeable
    spectral[0, 0] = -5.0  # the caller's array, not the model's
    assert cov.matrix[0, 0] == 200.0
    assert hash(cov) == before
    assert cov == CovarianceModel(matrix=[[200.0, 50.0], [50.0, 300.0]])
    with pytest.raises(ValueError):
        cov.matrix[0, 0] = -5.0


def test_f_window_scale_is_the_f_law_standard_deviation():
    # the closed form sqrt(2 m^2 (n+m-2) / (n (m-2)^2 (m-4))) is scipy's, bit for bit
    for n in range(1, 30):
        for m in range(5, 60):
            _, scale = FFieldModel(n=n, m=m, cov=COV20)._window()
            assert scale == max(1.0, float(stats.f(n, m).std())), (n, m)
    assert FFieldModel(n=3, m=4, cov=COV20)._window() == (1.0, 3.0)


def test_model_name_strings_and_guards():
    assert GaussianModel(COV20).name == "gaussian"
    assert ChiSquaredModel(k=5, cov=COV20).name == "chisq:5"
    assert TFieldModel(k=6, cov=COV20).name == "t:6"
    assert FFieldModel(n=4, m=7, cov=COV20).name == "f:4:7"
    assert GaussianisedModel(ChiSquaredModel(k=5, cov=COV20)).name == "gaussianised-chisq:5"
    with pytest.raises(ValueError):
        ChiSquaredModel(k=0, cov=COV20)
    with pytest.raises(ValueError):
        TFieldModel(k=1, cov=COV20)
    with pytest.raises(ValueError):
        FFieldModel(n=0, m=1, cov=COV20)
    with pytest.raises(ValueError):
        GaussianisedModel(GaussianisedModel(ChiSquaredModel(k=3, cov=COV20)))


def test_degrees_of_freedom_must_be_integers():
    # a fractional count names a model that can be neither simulated nor evaluated
    for build in (
        lambda: ChiSquaredModel(k=2.5, cov=COV20),
        lambda: TFieldModel(k=2.5, cov=COV20),
        lambda: FFieldModel(n=2.5, m=7, cov=COV20),
        lambda: FFieldModel(n=2, m=7.0, cov=COV20),
        lambda: GaussianisedModel(ChiSquaredModel(k=3.5, cov=COV20)),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            build()
    # numpy integers are accepted and stored as int
    chisq = ChiSquaredModel(k=np.int64(3), cov=COV20)
    t = TFieldModel(k=np.int32(5), cov=COV20)
    f = FFieldModel(n=np.int64(2), m=np.uint8(7), cov=COV20)
    assert (type(chisq.k), type(t.k), type(f.n), type(f.m)) == (int, int, int, int)
    assert (chisq.name, t.name, f.name) == ("chisq:3", "t:5", "f:2:7")
    assert chisq == ChiSquaredModel(k=3, cov=COV20)


def test_numeric_parameters_are_stored_as_python_floats():
    cov = CovarianceModel(variance=np.float64(2.0), lambda2=np.float32(20.0))
    assert (type(cov.variance), type(cov.lambda2)) == (float, float)
    assert repr(cov) == "CovarianceModel(variance=2.0, lambda2=20.0)"
    assert cov == CovarianceModel(variance=2.0, lambda2=20.0)
    field = LatticeField(values=np.zeros((3, 3)), spacing=np.float64(0.05))
    assert type(field.spacing) is float
    assert repr(field) == "LatticeField(shape=(3, 3), spacing=0.05)"


def test_gaussian_related_models_force_unit_variance():
    noisy = CovarianceModel(variance=7.0, lambda2=20.0)
    assert ChiSquaredModel(k=3, cov=noisy).cov.variance == 1.0
    assert TFieldModel(k=3, cov=noisy).cov.variance == 1.0
    assert FFieldModel(n=2, m=2, cov=noisy).cov.variance == 1.0


# ---------------------------------------------------------------------------
# Gaussian sampler
# ---------------------------------------------------------------------------

def test_simulation_is_bit_reproducible():
    a = simulate_gaussian(COV200, (32, 32), 1 / 64, seed=9)
    b = simulate_gaussian(COV200, (32, 32), 1 / 64, seed=9)
    assert a.values.tobytes() == b.values.tobytes()
    c = simulate_gaussian(COV200, (32, 32), 1 / 64, seed=10)
    assert not np.array_equal(a.values, c.values)


def _half_spectrum_shares(cov, shape, spacing):
    # Torus sizes, eigenvalues and the share of the variance (times the torus
    # size N) each half-spectrum mode carries: irfftn pairs every mode with its
    # conjugate except on last-axis planes 0 and m / 2, where it keeps only the
    # Hermitian part.
    sizes, lam = fields_mod._torus_spectrum(cov, shape, spacing)
    m = sizes[-1]
    halves = np.full(m // 2 + 1, 2.0)
    halves[0] = 1.0
    if m % 2 == 0:
        halves[-1] = 1.0
    return sizes, lam, halves, lam * halves


def _kept_modes(share):
    # The documented rule: the smallest modes whose shares sum to at most 1e-14
    # of the variance go undrawn, and every mode at least as large as the
    # smallest one beyond that budget is kept.
    ascending = np.sort(share, axis=None)
    budget = np.cumsum(ascending)
    return share >= ascending[np.searchsorted(budget, 1e-14 * budget[-1], side="right")]


def _plain_circulant_draw(cov, shape, spacing, seed):
    # the sampler as plain formulas: complex noise on the kept half-spectrum
    # modes in C order, its real and imaginary parts alternating in one normal
    # draw, times the square root of lam / 2N (lam / N on last-axis planes 0 and
    # m / 2), zero on every other mode, one unnormalised irfftn, cropped to the grid
    sizes, lam, halves, share = _half_spectrum_shares(cov, shape, spacing)
    keep = _kept_modes(share)
    amplitude = np.sqrt(lam / (halves * math.prod(sizes)))[keep]
    z = np.random.default_rng(seed).standard_normal((amplitude.size, 2))
    noise = np.zeros(lam.shape, dtype=complex)
    noise[keep] = z[:, 0] * amplitude + 1j * (z[:, 1] * amplitude)
    crop = tuple(slice(0, n) for n in shape)
    return sp_fft.irfftn(noise, s=sizes, norm="forward")[crop]


ANISO3 = CovarianceModel(variance=1.0, matrix=np.array(
    [[300.0, 50.0, 0.0], [50.0, 200.0, 20.0], [0.0, 20.0, 100.0]]
))

# (covariance, grid, spacing, torus the embedding settles on)
SAMPLER_CASES = [
    (COV200, (50,), 1 / 64, (96,)),  # 1-D
    (COV20, (1,), 0.1, (1,)),  # single site
    (COV200, (33, 20), 1 / 64, (64, 63)),  # 2-D, unequal sides, odd last axis
    (COV20, (16, 16), 0.05, (64, 64)),  # embedding doubled once
    (COV20, (16, 16), 0.03, (128, 128)),  # embedding doubled twice
    (ANISO3, (12, 10, 9), 0.02, (128, 128, 64)),  # 3-D anisotropic
    (COV200, (48, 1, 40), 1 / 64, (90, 1, 81)),  # a length-1 axis
    (COV20, (20, 1, 7), 0.1, (80, 2, 32)),  # a length-1 axis padded to 2
]


def test_sampler_matches_plain_circulant_formula_bit_for_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the doubled grids are short
        for cov, shape, spacing, torus in SAMPLER_CASES:
            sizes, _ = fields_mod._torus_spectrum(cov, shape, spacing)
            assert sizes == torus
            for seed in (0, 7, 12345, 2**63):
                expected = _plain_circulant_draw(cov, shape, spacing, seed)
                got = simulate_gaussian(cov, shape, spacing, seed).values
                assert np.array_equal(got, expected), (shape, spacing, seed)


def test_compact_torus_is_never_larger_than_the_power_of_two_torus(monkeypatch):
    # An unbounded fast length leaves the power-of-two start of twice the lags,
    # which is the torus every grid embedded on before the compact start.
    grids = [case[:3] for case in SAMPLER_CASES] + [
        (COV200, (256, 256), 1 / 255),
        (CovarianceModel(variance=1.0, lambda2=100.0), (256, 256), 1 / 255),
        (COV2000, (256, 256), 1 / 256),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        compact = [fields_mod._torus_spectrum(*grid)[0] for grid in grids]
        monkeypatch.setattr(fields_mod.sp_fft, "next_fast_len", lambda n: 2**62)
        for grid, sizes in zip(grids, compact):
            padded, _ = fields_mod._torus_spectrum(*grid)
            assert all(a <= b for a, b in zip(sizes, padded)), (grid[1:], sizes, padded)
    assert compact[-3:] == [(420, 420), (486, 486), (308, 308)]


def test_amplitude_cache_holds_eight_kept_spectra():
    # The memory bound stated beside the cache: at most 8 entries, each an intp
    # index and a float64 amplitude per kept mode; the 64**3 grid of criterion
    # 7 keeps 82% of its half spectrum in 4.0 MB, a 256**2 draw of mc-study 1.6%
    # in 23 kB.
    assert fields_mod._amplitude.cache_parameters()["maxsize"] == 8
    cov = CovarianceModel(variance=1.0, lambda2=880.0)
    sizes, width, kept, amplitude = fields_mod._amplitude(cov, (64, 64, 64), 1 / 63)
    assert sizes == (84, 84, 84) and width == 43
    assert kept.dtype == np.intp and amplitude.dtype == np.float64
    assert kept.nbytes + amplitude.nbytes == 3_981_248
    sizes, width, kept, amplitude = fields_mod._amplitude(COV200, (256, 256), 1 / 255)
    assert sizes == (420, 420) and width == 30
    assert kept.nbytes + amplitude.nbytes == 22_880


UNDRAWN_GRIDS = [case[:3] for case in SAMPLER_CASES] + [
    (COV200, (256, 256), 1 / 255),  # mc-study's Gaussian field
    (CovarianceModel(variance=1.0, lambda2=100.0), (256, 256), 1 / 255),  # its chi^2_5 field
    (CovarianceModel(variance=1.0, lambda2=100.0), (128, 128), 1 / 127),  # calibrate's miss,
    (CovarianceModel(variance=1.0, lambda2=120.0), (128, 128), 1 / 127),  # both ends
]


def test_undrawn_modes_carry_at_most_1e_14_of_the_variance():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cov, shape, spacing in UNDRAWN_GRIDS:
            sizes, lam, halves, share = _half_spectrum_shares(cov, shape, spacing)
            _, width, kept, amplitude = fields_mod._amplitude(cov, shape, spacing)
            slab = np.zeros(lam.shape[:-1] + (width,), dtype=bool)
            slab.reshape(-1)[kept] = True
            drawn = np.zeros(lam.shape, dtype=bool)
            drawn[..., :width] = slab
            assert drawn[..., width - 1].any(), shape  # the width is the least that holds them
            assert share[~drawn].sum() <= 1e-14 * cov.variance * math.prod(sizes), shape
            assert np.all(share[~drawn] <= share[drawn].min()), shape  # the smallest go
            expected = np.sqrt(lam / (halves * math.prod(sizes)))[drawn]
            np.testing.assert_array_equal(amplitude, expected)
    # the gain: the 256**2 draws of mc-study keep under 2% of their half spectrum
    for cov, shape, spacing in UNDRAWN_GRIDS[len(SAMPLER_CASES) : len(SAMPLER_CASES) + 2]:
        sizes, _, kept, _ = fields_mod._amplitude(cov, shape, spacing)
        assert kept.size < 0.02 * math.prod(sizes[:-1]) * (sizes[-1] // 2 + 1), cov


def _draw_map(cov, shape, spacing, monkeypatch):
    # The draw as a matrix: column i is the field drawn when the normal deviates
    # are the i-th unit vector (the seed picks the vector); two per kept mode.
    _, _, kept, _ = fields_mod._amplitude(cov, shape, spacing)
    count = 2 * kept.size

    class UnitNormals:
        def __init__(self, index):
            self.index = index

        def standard_normal(self, size):
            unit = np.zeros(count)
            unit[self.index] = 1.0
            return unit.reshape(size)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", UnitNormals)
        columns = [simulate_gaussian(cov, shape, spacing, i).values for i in range(count)]
    return np.stack([c.ravel() for c in columns], axis=1)


def test_draw_has_the_exact_target_covariance(monkeypatch):
    # The draw is linear in its unit normal inputs, x = A z, so its covariance
    # is A A^T exactly.  The embedding zeroes eigenvalues that fall below 0 by
    # at most 1e-9 of the largest, which shifts the covariance by their mass /
    # N (at most 3.8e-12 on these grids), the compact torus drops covariance
    # below e^-40, and the undrawn modes carry at most 1e-14 of the variance;
    # all sit below the 1e-11 asserted here.  A map costs one draw per input,
    # so the grids whose torus has over 10,000 sites (the twice-doubled one,
    # and the 3-D anisotropic one) are left to the formula test above.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cov, shape, spacing, torus in SAMPLER_CASES:
            if math.prod(torus) > 10000:
                continue
            a = _draw_map(cov, shape, spacing, monkeypatch)
            sites = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), axis=-1)
            sites = sites.reshape(-1, len(shape)) * spacing
            target = cov.variance * cov.correlation(sites[:, None, :] - sites[None, :, :])
            assert np.abs(a @ a.T - target).max() <= 1e-11 * cov.variance, shape


def test_single_site_grid_gives_standard_normal_marginal():
    one = simulate_gaussian(COV20, (1,), 0.1, seed=3)
    assert one.shape == (1,)
    again = simulate_gaussian(COV20, (1,), 0.1, seed=3)
    assert one.values[0] == again.values[0]
    draws = np.array(
        [simulate_gaussian(COV20, (1,), 0.1, seed=s).values[0] for s in range(2000)]
    )
    assert abs(draws.mean()) < 0.1
    assert abs(draws.var() - 1.0) < 0.15
    assert stats.kstest(draws, "norm").pvalue > 1e-3


def test_sample_variance_near_unity_over_seeds():
    # Mean sample variance over 50 fixed seeds; the small deficit below 1 is
    # the usual effect of subtracting the (correlated) grid mean.
    variances = [
        np.var(simulate_gaussian(COV200, (256, 256), 1 / 256, seed=100 + s).values)
        for s in range(50)
    ]
    assert abs(np.mean(variances) - 1.0) <= 0.05


def test_lag_one_correlation_matches_covariance():
    spacing = 1 / 128
    for lam2 in (200.0, 2000.0):
        cov = CovarianceModel(variance=1.0, lambda2=lam2)
        expected = math.exp(-lam2 * spacing**2 / 2.0)
        estimates = []
        for s in range(40):
            v = simulate_gaussian(cov, (64, 64), spacing, seed=4000 + s).values
            estimates.append(np.mean(v[1:, :] * v[:-1, :]))
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - expected) <= 3.0 * se
    # the lam2=2000 case decays visibly, so the check has teeth
    assert expected < 0.95


def test_anisotropic_axis_correlations():
    cov = CovarianceModel(variance=1.0, matrix=np.diag([500.0, 2000.0]))
    spacing = 1 / 128
    exp0 = math.exp(-500.0 * spacing**2 / 2.0)
    exp1 = math.exp(-2000.0 * spacing**2 / 2.0)
    est = np.zeros((30, 2))
    for s in range(30):
        v = simulate_gaussian(cov, (64, 64), spacing, seed=4600 + s).values
        est[s, 0] = np.mean(v[1:, :] * v[:-1, :])
        est[s, 1] = np.mean(v[:, 1:] * v[:, :-1])
    for axis, expected in enumerate((exp0, exp1)):
        se = est[:, axis].std(ddof=1) / math.sqrt(est.shape[0])
        assert abs(est[:, axis].mean() - expected) <= 3.0 * se
    assert est[:, 0].mean() > est[:, 1].mean()


def test_gaussian_marginals_on_thinned_grid():
    f = simulate_gaussian(COV2000, (256, 256), 1 / 256, seed=11)
    thinned = f.values[::20, ::20].ravel()
    assert stats.kstest(thinned, "norm").pvalue > 0.01


def test_stationarity_of_lag_moments_across_blocks():
    f = simulate_gaussian(COV2000, (256, 256), 1 / 256, seed=61)
    centred = f.values - f.values.mean()
    block_lag = []
    for bi in range(4):
        for bj in range(4):
            b = centred[bi * 64 : (bi + 1) * 64, bj * 64 : (bj + 1) * 64]
            block_lag.append(np.mean(b[1:, :] * b[:-1, :]))
    block_lag = np.asarray(block_lag)
    spread = block_lag.std(ddof=1)
    assert np.abs(block_lag - block_lag.mean()).max() <= 4.0 * spread
    expected = math.exp(-2000.0 * (1 / 256) ** 2 / 2.0)
    # A t statistic on 16 correlated blocks whose null is skewed: over seeds
    # 0-2999 of the exact sampler its 0.1% and 99.9% quantiles are -4.58 and
    # +3.29, so this cut fails a correct field about 0.2% of the time.  It
    # checks the lag covariance, which moves with the variance far more than
    # with lambda2.
    t = (block_lag.mean() - expected) / (spread / math.sqrt(block_lag.size))
    assert -4.6 <= t <= 3.3


def test_resolution_guard_and_shape_validation():
    with pytest.raises(ValueError):
        # spacing * sqrt(lambda2) = 0.05 * sqrt(2000) = 2.24 > 0.5
        simulate_gaussian(COV2000, (16, 16), 0.05, seed=1)
    with pytest.raises(ValueError):
        simulate_gaussian(COV20, (), 0.1, seed=1)
    with pytest.raises(ValueError):
        simulate_gaussian(COV20, (0, 4), 0.1, seed=1)
    with pytest.raises(ValueError, match="each grid size must be an integer, got 17.7"):
        simulate_gaussian(COV20, (17.7, 17), 0.1, seed=1)  # not truncated to 17
    with pytest.raises(ValueError):
        simulate_gaussian(COV20, (4, 4), -0.1, seed=1)


def test_short_extent_warns():
    # corr length 1/sqrt(4) = 0.5; extent 15*0.1 = 1.5 < 6*0.5 = 3
    smooth = CovarianceModel(variance=1.0, lambda2=4.0)
    with pytest.warns(UserWarning, match="correlation lengths") as record:
        simulate_gaussian(smooth, (16, 16), 0.1, seed=2)
    assert record[0].filename == __file__  # the warning names the caller


def test_embedding_failure_raises_with_diagnostic():
    # A 4x4 grid of a field whose correlation length dwarfs the extent: the
    # wrapped covariance stays indefinite up to the 8x padding cap.
    with pytest.warns(UserWarning), pytest.raises(SimulationError, match="eigenvalue"):
        simulate_gaussian(COV20, (4, 4), 0.05, seed=1)


def test_lattice_field_validation():
    with pytest.raises(ValueError):
        LatticeField(values=np.array([1.0, np.nan]), spacing=0.1)
    with pytest.raises(ValueError):
        LatticeField(values=np.array([]), spacing=0.1)
    with pytest.raises(ValueError):
        LatticeField(values=np.array([1.0]), spacing=0.0)


# ---------------------------------------------------------------------------
# derived models
# ---------------------------------------------------------------------------

def test_component_seed_is_frozen():
    # These literals pin the documented seed-derivation rule; changing them
    # would silently break reproducibility of every multi-component model.
    assert component_seed(0, 0) == 15793235383387715774
    assert component_seed(0, 1) == 5836529245451711556
    assert component_seed(123, 7) == 11002349382382457685
    assert component_seed(2**63, 2) == component_seed(np.uint64(2**63), 2) == 1129379982339236933


def test_float_seeds_are_refused_for_every_model():
    # a fractional seed is refused, not truncated to the seed of another field
    models = (
        GaussianModel(cov=COV20),
        ChiSquaredModel(k=3, cov=COV20),
        TFieldModel(k=3, cov=COV20),
        FFieldModel(n=1, m=2, cov=COV20),
    )
    for model in models:
        for seed in (1.5, 1.0, -1):
            with pytest.raises(ValueError, match="seed must be"):
                simulate_model(model, (20, 20), 0.05, seed)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        component_seed(1.5, 0)


def test_component_index_is_refused_unless_a_whole_number():
    # a fractional index was truncated to another component's seed
    with pytest.raises(ValueError, match="component index must be an integer, got 1.7"):
        component_seed(5, 1.7)
    with pytest.raises(ValueError, match="component index must be >= 0, got -1"):
        component_seed(5, -1)
    assert component_seed(5, np.int64(1)) == component_seed(5, np.uint8(1)) == component_seed(5, 1)


def test_chi_square_is_exact_sum_of_component_squares():
    # component i is the draw seeded component_seed(seed, i)
    shape, spacing, seed = (32, 32), 0.05, 77
    comps = [
        _plain_circulant_draw(COV20, shape, spacing, component_seed(seed, i)) for i in range(7)
    ]

    def squares(parts):
        total = np.zeros(shape)
        for c in parts:
            total += c * c
        return total

    for k in (3, 5):
        chi = simulate_model(ChiSquaredModel(k=k, cov=COV20), shape, spacing, seed)
        assert np.array_equal(chi.values, squares(comps[:k]))
    t = simulate_model(TFieldModel(k=5, cov=COV20), shape, spacing, seed)
    assert np.array_equal(t.values, comps[0] * 2.0 / np.sqrt(squares(comps[1:5])))
    f = simulate_model(FFieldModel(n=3, m=4, cov=COV20), shape, spacing, seed)
    assert np.array_equal(f.values, (4 * squares(comps[:3])) / (3 * squares(comps[3:7])))


def test_every_component_is_one_simulate_gaussian_draw(monkeypatch):
    # Component i is a simulate_gaussian call seeded component_seed(seed, i),
    # in index order; a Gaussian model is the draw seeded seed itself.
    seeds = []
    draw = fields_mod.simulate_gaussian

    def counting(cov, shape, spacing, seed):
        seeds.append(seed)
        return draw(cov, shape, spacing, seed)

    monkeypatch.setattr(fields_mod, "simulate_gaussian", counting)
    cases = [
        (ChiSquaredModel(k=5, cov=COV20), 5),
        (ChiSquaredModel(k=5, cov=COV20, standardized=True), 5),
        (TFieldModel(k=4, cov=COV20), 4),
        (FFieldModel(n=2, m=3, cov=COV20), 5),
        (GaussianisedModel(ChiSquaredModel(k=3, cov=COV20)), 3),
    ]
    for model, count in cases:
        seeds.clear()
        simulate_model(model, (32, 32), 0.05, seed=8)
        assert seeds == [component_seed(8, i) for i in range(count)], model
    seeds.clear()
    simulate_model(GaussianModel(COV20), (32, 32), 0.05, seed=8)
    assert seeds == [8]


def test_chi_square_memory_does_not_grow_with_k():
    # Squares are added as their components are drawn, so a draw holds the
    # running total and one component however many there are.
    shape, spacing = (64, 64), 1 / 64
    grid = 8 * math.prod(shape)

    def peak(k):
        tracemalloc.start()
        try:
            simulate_model(ChiSquaredModel(k=k, cov=COV200), shape, spacing, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_model(ChiSquaredModel(k=1, cov=COV200), shape, spacing, seed=3)  # warms the cache
    assert peak(40) - peak(2) < 2 * grid


def test_chi_square_nonnegative_with_correct_mean():
    model = ChiSquaredModel(k=5, cov=COV20)
    f = simulate_model(model, (128, 128), 0.05, seed=21)
    assert f.values.min() >= 0.0
    means = [
        simulate_model(model, (64, 64), 0.05, seed=500 + s).values.mean()
        for s in range(30)
    ]
    means = np.asarray(means)
    se = means.std(ddof=1) / math.sqrt(means.size)
    assert abs(means.mean() - 5.0) <= 3.0 * se


def test_chi_square_marginals_on_thinned_grid():
    f = simulate_model(ChiSquaredModel(k=5, cov=COV20), (128, 128), 0.05, seed=21)
    thinned = f.values[::14, ::14].ravel()
    assert stats.kstest(thinned, stats.chi2(5).cdf).pvalue > 0.01


def test_standardized_chi_square_moments():
    model = ChiSquaredModel(k=5, cov=COV20, standardized=True)
    f = simulate_model(model, (256, 256), 0.05, seed=71)
    assert abs(f.values.mean()) < 0.1
    assert abs(f.values.var() - 1.0) < 0.2
    raw = simulate_model(ChiSquaredModel(k=5, cov=COV20), (256, 256), 0.05, seed=71)
    assert np.allclose(f.values, (raw.values - 5.0) / math.sqrt(10.0), atol=1e-12)


def test_t_field_marginals_on_thinned_grid():
    # k components give a Student-T with k-1 degrees of freedom
    f = simulate_model(TFieldModel(k=6, cov=COV20), (128, 128), 0.05, seed=31)
    thinned = f.values[::14, ::14].ravel()
    assert stats.kstest(thinned, stats.t(5).cdf).pvalue > 0.01


def test_f_field_median_and_marginals():
    f = simulate_model(FFieldModel(n=4, m=4, cov=COV20), (256, 256), 0.05, seed=41)
    assert f.values.min() >= 0.0
    assert abs(np.median(f.values) - 1.0) < 0.1
    thinned = f.values[::14, ::14].ravel()
    assert stats.kstest(thinned, stats.f(4, 4).cdf).pvalue > 0.01


def test_ratio_denominator_guard(monkeypatch):
    shape = (4, 4)

    def zeros(cov, shape, spacing, seed):
        return LatticeField(values=np.zeros(shape), spacing=spacing)

    monkeypatch.setattr(fields_mod, "simulate_gaussian", zeros)
    with pytest.raises(SimulationError):
        simulate_model(TFieldModel(k=3, cov=COV20), shape, 0.05, seed=1)
    with pytest.raises(SimulationError):
        simulate_model(FFieldModel(n=1, m=2, cov=COV20), shape, 0.05, seed=1)


def test_gaussianised_model_marginals_and_rank_preservation():
    base_model = ChiSquaredModel(k=5, cov=COV20)
    base = simulate_model(base_model, (128, 128), 0.05, seed=51)
    trans = simulate_model(GaussianisedModel(base_model), (128, 128), 0.05, seed=51)
    thinned = trans.values[::14, ::14].ravel()
    assert stats.kstest(thinned, "norm").pvalue > 0.01
    # the transform is strictly monotone, so orderings agree site-for-site
    assert np.array_equal(
        np.argsort(base.values.ravel()), np.argsort(trans.values.ravel())
    )


# ---------------------------------------------------------------------------
# gaussianise
# ---------------------------------------------------------------------------

def test_gaussianise_empirical_requirements():
    small = LatticeField(values=np.arange(9.0).reshape(3, 3), spacing=0.1)
    with pytest.raises(ValueError):
        gaussianise(small, mode="empirical")
    constant = LatticeField(values=np.ones((20, 20)), spacing=0.1)
    with pytest.raises(ValueError):
        gaussianise(constant, mode="empirical")
    with pytest.raises(ValueError):
        gaussianise(small, mode="no-such-mode")


def test_gaussianise_exact_chi2_domain_and_args():
    f = LatticeField(values=np.array([-1.0, 2.0]), spacing=0.1)
    with pytest.raises(ValueError):
        gaussianise(f, mode="exact-chi2", k=3)
    ok = LatticeField(values=np.array([1.0, 2.0]), spacing=0.1)
    with pytest.raises(ValueError):
        gaussianise(ok, mode="exact-chi2")


def test_gaussianise_exact_chi2_matches_quantiles():
    u = np.array([0.5, 2.0, 5.0, 11.0])
    f = LatticeField(values=u, spacing=0.1)
    out = gaussianise(f, mode="exact-chi2", k=5).values
    expected = stats.norm.ppf(stats.chi2(5).cdf(u))
    assert np.allclose(out, expected, atol=1e-10)


def test_gaussianise_exact_chi2_takes_the_smaller_tail_bit_for_bit():
    # the upper tail is evaluated only where the lower one passes 1/2; the
    # bits are those of evaluating both tails everywhere
    for k in (1, 3, 5, 40):
        u = np.random.default_rng(k).chisquare(k, 4000)
        u[:3] = [1e-6, 80.0 + k, k]  # both far tails and the middle
        out = gaussianise(LatticeField(values=u, spacing=0.1), mode="exact-chi2", k=k).values
        lower = special.gammainc(k / 2.0, u / 2.0)
        upper = special.gammaincc(k / 2.0, u / 2.0)
        both = np.where(lower <= 0.5, special.ndtri(lower), -special.ndtri(upper))
        assert np.array_equal(out, both), k
        assert np.any(lower > 0.5) and np.any(lower <= 0.5)


def test_gaussianise_exact_chi2_refuses_a_value_with_no_finite_score():
    # a legal 0, a lower tail that underflows and an upper tail that underflows
    for values, k, message in (
        ([0.0, 1.0], 1, r"cannot map 0\.0: its chi-square\(1\) lower tail"),
        ([1e-300, 1.0], 3, r"cannot map 1e-300: its chi-square\(3\) lower tail"),
        ([1.0, 2e4], 1, r"cannot map 20000\.0: its chi-square\(1\) upper tail"),
    ):
        f = LatticeField(values=np.array(values), spacing=0.1)
        with pytest.raises(ValueError, match=message):
            gaussianise(f, mode="exact-chi2", k=k)


@pytest.mark.parametrize("k", [2.5, math.nan, "3"])
def test_gaussianise_exact_chi2_refuses_degrees_of_freedom_that_are_not_whole(k):
    f = LatticeField(values=np.array([1.0, 2.0]), spacing=0.1)
    with pytest.raises(ValueError, match=r"^degrees of freedom must be an integer, got "):
        gaussianise(f, mode="exact-chi2", k=k)


def test_gaussianise_exact_chi2_reads_true_degrees_of_freedom_as_one():
    # as ChiSquaredModel does: True is the integer 1, and errors name it so
    f = LatticeField(values=np.array([0.5, 2.0, 7.0]), spacing=0.1)
    one = gaussianise(f, mode="exact-chi2", k=1).values
    assert gaussianise(f, mode="exact-chi2", k=True).values.tobytes() == one.tobytes()
    zero = LatticeField(values=np.array([0.0, 1.0]), spacing=0.1)
    with pytest.raises(ValueError, match=r"chi-square\(1\) lower tail"):
        gaussianise(zero, mode="exact-chi2", k=True)


def test_gaussianise_twice_preserves_ranks():
    chi = simulate_model(ChiSquaredModel(k=5, cov=COV20), (64, 64), 0.05, seed=81)
    once = gaussianise(chi, mode="exact-chi2", k=5)
    twice = gaussianise(once, mode="empirical")
    rho = stats.spearmanr(once.values.ravel(), twice.values.ravel()).statistic
    assert rho == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# spectral-moment estimation
# ---------------------------------------------------------------------------

def test_estimate_spectral_moments_on_a_ramp():
    # f = 3 x_1: the centred difference recovers the slope exactly, so the
    # unnormalized second derivative moment is a^2 = 9 (the variance division
    # is undone by multiplying sigma^2 back).
    x = np.arange(32) * 0.25
    ramp = np.broadcast_to(3.0 * x[:, None], (32, 32)).copy()
    lam, sigma2 = estimate_spectral_moments(LatticeField(values=ramp, spacing=0.25))
    assert lam[0, 0] * sigma2 == pytest.approx(9.0, rel=1e-12)
    assert lam[1, 1] == 0.0
    assert lam[0, 1] == 0.0


def test_estimate_spectral_moments_simulated_field():
    diag_means = []
    cross = []
    for s in range(20):
        f = simulate_gaussian(COV200, (512, 512), 1 / 512, seed=300 + s)
        lam, _ = estimate_spectral_moments(f)
        diag_means.append(0.5 * (lam[0, 0] + lam[1, 1]))
        cross.append(lam[0, 1])
    diag_means = np.asarray(diag_means)
    cross = np.asarray(cross)
    assert abs(diag_means.mean() - 200.0) <= 20.0  # within 10%
    se = cross.std(ddof=1) / math.sqrt(cross.size)
    assert abs(cross.mean()) <= 3.0 * se
    # symmetric output
    assert lam[0, 1] == lam[1, 0]


def test_estimate_spectral_moments_keep_the_bits_of_the_plain_formula():
    # np.mean(d_i * d_j) / np.var(f) with d = (fwd - bwd) / (2 h), written out
    # here; a BLAS or einsum rewrite would move the last digit that identify prints
    rng = np.random.default_rng(25)
    for shape, spacing in [((200,), 0.03), ((40, 33), 0.0123), ((12, 9, 17), 1 / 7)]:
        values = rng.standard_normal(shape) + 0.3
        dim, inner = len(shape), (slice(1, -1),) * len(shape)
        derivs = [
            (values[inner[:a] + (slice(2, None),) + inner[a + 1:]]
             - values[inner[:a] + (slice(0, -2),) + inner[a + 1:]]) / (2.0 * spacing)
            for a in range(dim)
        ]
        sigma2 = float(np.var(values))
        want = np.array([[float(np.mean(derivs[i] * derivs[j])) / sigma2 for j in range(dim)]
                         for i in range(dim)])
        lam, got_sigma2 = estimate_spectral_moments(LatticeField(values=values, spacing=spacing))
        assert np.array_equal(lam, want) and got_sigma2 == sigma2, shape


def test_estimate_spectral_moments_guards():
    with pytest.raises(ValueError):
        estimate_spectral_moments(LatticeField(values=np.ones((2, 5)), spacing=0.1))
    flat = LatticeField(values=np.ones((8, 8)), spacing=0.1)
    with pytest.raises(ValueError):
        estimate_spectral_moments(flat)


# ---------------------------------------------------------------------------
# binary field format
# ---------------------------------------------------------------------------

def _arbitrary_field(shape, spacing=0.05, seed=13):
    values = np.random.default_rng(seed).standard_normal(shape)
    return LatticeField(values=values, spacing=spacing)


def test_field_file_round_trip_is_bit_exact(tmp_path):
    f = _arbitrary_field((16, 8))
    path = tmp_path / "field.xkf"
    write_field(f, path)
    g = read_field(path)
    assert g.values.tobytes() == f.values.tobytes()
    assert g.spacing == f.spacing
    assert g.shape == (16, 8)


def test_field_file_size_arithmetic(tmp_path):
    f = _arbitrary_field((16, 8))
    path = tmp_path / "field.xkf"
    write_field(f, path)
    header = 4 + 4 + 4 * 2 + 8
    assert path.stat().st_size == header + 8 * 16 * 8


def test_read_field_returns_its_own_writable_array(tmp_path):
    # the payload is read straight into the array returned: float64, C order,
    # writable and owning its memory, not a read-only view of a byte buffer
    f = _arbitrary_field((5, 7, 3))
    path = tmp_path / "field.xkf"
    write_field(f, path)
    values = read_field(path).values
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert values.flags.writeable and values.flags.owndata
    assert values.tobytes() == f.values.tobytes()


def test_write_field_writes_the_array_without_a_payload_copy(tmp_path):
    # the array's buffer goes to the file as it is: no payload-sized bytes
    # object is made, and the file holds the header and the little-endian values
    f = _arbitrary_field((64, 64, 64))
    path = tmp_path / "field.xkf"
    tracemalloc.start()
    try:
        write_field(f, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes / 4
    header = b"XKF1" + struct.pack("<4I", 3, 64, 64, 64) + struct.pack("<d", 0.05)
    assert path.read_bytes() == header + f.values.astype("<f8").tobytes()


@pytest.mark.parametrize("shape", [(128, 128, 128), (2**32 - 1,) * 3])
def test_read_field_refuses_a_huge_grid_before_allocating_it(tmp_path, shape):
    # a header announcing 16 MB, or more sites than an int64 counts, over an
    # 8-byte payload is refused on the file's size before any payload-sized
    # allocation
    path = tmp_path / "huge.xkf"
    path.write_bytes(b"XKF1" + struct.pack("<4I", 3, *shape) + struct.pack("<dd", 0.1, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(FieldFormatError, match="payload size 8 bytes does not match"):
            read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_read_field_reads_and_refuses_through_a_pipe(tmp_path):
    # a pipe has no size to check up front: it is read whole before the array
    # is made, so a huge header over a short payload is still refused by name
    good = tmp_path / "good.xkf"
    write_field(_arbitrary_field((6, 5)), good)
    huge = b"XKF1" + struct.pack("<4I", 3, 2048, 2048, 2048) + struct.pack("<dd", 0.1, 0.0)
    for data in (good.read_bytes(), huge):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            if data is huge:
                with pytest.raises(FieldFormatError, match="payload size 8 bytes does not match"):
                    read_field(fifo)
            else:
                assert read_field(fifo).values.tobytes() == read_field(good).values.tobytes()
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


def test_field_file_rejects_malformed_inputs(tmp_path):
    f = _arbitrary_field((4, 4))
    good = tmp_path / "good.xkf"
    write_field(f, good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.xkf"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FieldFormatError, match="magic"):
        read_field(bad_magic)

    truncated = tmp_path / "trunc.xkf"
    truncated.write_bytes(raw[:30])
    with pytest.raises(FieldFormatError):
        read_field(truncated)

    short_header = tmp_path / "head.xkf"
    short_header.write_bytes(raw[:12])  # the grid sizes but not the spacing
    with pytest.raises(FieldFormatError, match="truncated header"):
        read_field(short_header)

    trailing = tmp_path / "trail.xkf"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(FieldFormatError, match="payload"):
        read_field(trailing)

    huge_dim = tmp_path / "dim.xkf"
    huge_dim.write_bytes(raw[:4] + struct.pack("<I", 65) + raw[8:])
    with pytest.raises(FieldFormatError, match="dimension"):
        read_field(huge_dim)

    nonfinite = tmp_path / "nan.xkf"
    header = 4 + 4 + 8 + 8
    payload = bytearray(raw)
    payload[header : header + 8] = struct.pack("<d", math.nan)
    nonfinite.write_bytes(bytes(payload))
    with pytest.raises(FieldFormatError, match="non-finite"):
        read_field(nonfinite)

    bad_spacing = tmp_path / "spacing.xkf"
    payload = bytearray(raw)
    payload[4 + 4 + 8 : 4 + 4 + 8 + 8] = struct.pack("<d", -1.0)
    bad_spacing.write_bytes(bytes(payload))
    with pytest.raises(FieldFormatError, match="spacing"):
        read_field(bad_spacing)
