"""Tests of the benchmark's oracles; run with ``python3 perfbench/test_oracles.py``."""

import math
import os
import sys
import tempfile
import unittest

import numpy as np
from scipy import stats

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


class ECDensities(unittest.TestCase):
    def test_chi2_1_is_twice_gaussian_at_root(self):
        # chi^2_1 = Z^2, so {Z^2 >= u} = {Z >= sqrt u} + {Z <= -sqrt u}
        u = np.linspace(0.05, 30.0, 200)
        chi = oracles.chi2_ec_densities(u, 1)
        gauss = 2.0 * oracles.gaussian_ec_densities(np.sqrt(u))
        np.testing.assert_allclose(chi, gauss, rtol=1e-12, atol=1e-300)

    def test_chi2_whole_domain_below_zero(self):
        rho = oracles.chi2_ec_densities(np.array([-1.0, 0.0]), 5)
        np.testing.assert_array_equal(rho, [[1.0, 1.0], [0, 0], [0, 0], [0, 0]])

    def test_chi2_tail_is_chi2_survival(self):
        u = np.linspace(0.1, 40.0, 50)
        np.testing.assert_allclose(
            oracles.chi2_ec_densities(u, 5)[0], stats.chi2(5).sf(u), rtol=1e-12
        )

    def test_t_tends_to_gaussian(self):
        t = np.linspace(-6.0, 6.0, 121)
        gauss = oracles.gaussian_ec_densities(t)
        gaps = [
            float(np.max(np.abs(oracles.t_ec_densities(t, nu) - gauss)))
            for nu in (5.0, 50.0, 500.0, 5e4)
        ]
        self.assertTrue(all(b < a for a, b in zip(gaps, gaps[1:])), gaps)
        self.assertLess(gaps[-1], 1e-4)

    def test_f1m_is_squared_t(self):
        u = np.linspace(0.1, 30.0, 60)
        rho = oracles.f1m_ec_densities(u, 7)
        np.testing.assert_allclose(rho[0], stats.f(1, 7).sf(u), rtol=1e-10)
        np.testing.assert_allclose(rho, 2.0 * oracles.t_ec_densities(np.sqrt(u), 7))


class GaussianForms(unittest.TestCase):
    u = np.linspace(-5.0, 5.0, 101)

    def test_hand_expanded_match_metric_form(self):
        for sides, fn in (((1.0, 2.5), oracles.gaussian_ec_2d),
                          ((1.0, 0.5, 2.0), oracles.gaussian_ec_3d)):
            lk = oracles.metric_lkcs(sides, 37.0 * np.eye(len(sides)))
            via_lkcs = oracles.ec_from_densities(lk, oracles.gaussian_ec_densities(self.u))
            np.testing.assert_allclose(fn(self.u, 37.0, sides), via_lkcs, rtol=1e-13)

    def test_anisotropic_diagonal_is_axis_scaling(self):
        # Lambda = diag(a, b) on [0, T1] x [0, T2] is the isotropic unit field
        # on [0, T1 sqrt a] x [0, T2 sqrt b]
        lk = oracles.metric_lkcs((1.0, 2.0), np.diag([4.0, 9.0]))
        np.testing.assert_allclose(lk, [1.0, 2.0 + 6.0, 12.0])

    def test_flag_coefficients(self):
        omega = [math.pi ** (j / 2) / math.gamma(1 + j / 2) for j in range(4)]

        def flag(n, j):
            return math.comb(n, j) * omega[n] / (omega[n - j] * omega[j])

        self.assertAlmostEqual(oracles.FLAG_1_0, flag(1, 0), places=14)
        self.assertAlmostEqual(oracles.FLAG_2_1, flag(2, 1), places=14)
        self.assertAlmostEqual(oracles.FLAG_3_2, flag(3, 2), places=14)

    def test_l1_low_level_is_domain_l1(self):
        # far below the field the excursion set is the whole rectangle
        sides = (1.0, 2.0, 0.5)
        value = oracles.gaussian_l1_curve(np.array([-40.0]), 25.0, sides)[0]
        self.assertAlmostEqual(value, 5.0 * sum(sides), places=10)


class FaceCount(unittest.TestCase):
    def test_known_shapes(self):
        point = np.zeros((5, 5), dtype=bool)
        point[2, 2] = True
        box = np.ones((4, 6, 3), dtype=bool)
        ring = np.ones((5, 5), dtype=bool)
        ring[1:4, 1:4] = False
        ring[2, 2] = False
        hollow = np.ones((5, 5, 5), dtype=bool)
        hollow[1:4, 1:4, 1:4] = False
        self.assertEqual(oracles.face_count_euler(point), 1)
        self.assertEqual(oracles.face_count_euler(box), 1)
        self.assertEqual(oracles.face_count_euler(ring), 0)
        self.assertEqual(oracles.face_count_euler(hollow), 2)
        self.assertEqual(oracles.face_count_euler(np.zeros((3, 3), dtype=bool)), 0)

    def test_curve_matches_per_level_count(self):
        rng = np.random.default_rng(3)
        levels = np.linspace(-2.0, 2.0, 17)
        for shape in ((40, 33), (12, 10, 9)):
            values = rng.standard_normal(shape)
            curve = oracles.face_count_curve(values, levels)
            per_level = [oracles.face_count_euler(values >= u) for u in levels]
            np.testing.assert_array_equal(curve, per_level)

    def test_face_total(self):
        self.assertEqual(oracles.face_total((3, 3)), 9 + 2 * 6 + 4)
        box = np.ones((4, 6, 3), dtype=bool)
        total = sum(
            int(np.count_nonzero(np.logical_and.reduce(oracles._face_corner_views(box, axes))))
            for _, axes in oracles._face_types(3)
        )
        self.assertEqual(oracles.face_total(box.shape), total)


class Moments(unittest.TestCase):
    def test_linear_field_is_exact(self):
        h = 0.1
        x, y = np.meshgrid(np.arange(30) * h, np.arange(20) * h, indexing="ij")
        f = 2.0 * x - 3.0 * y
        lam, var = oracles.central_difference_moments(f, h)
        self.assertAlmostEqual(var, float(np.var(f)), places=12)
        np.testing.assert_allclose(lam, np.array([[4.0, -6.0], [-6.0, 9.0]]) / var, rtol=1e-12)


class FieldFile(unittest.TestCase):
    def test_round_trip(self):
        values = np.random.default_rng(1).standard_normal((4, 5, 6))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.bin")
            oracles.write_xkf(path, values, 0.125)
            back, spacing = oracles.read_xkf(path)
        np.testing.assert_array_equal(back, values)
        self.assertEqual(spacing, 0.125)


if __name__ == "__main__":
    unittest.main()
