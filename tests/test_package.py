"""The package's public surface."""

import subprocess
import sys

import xkit
from xkit import expectations, fields, geometry, topology

MODULES = (geometry, fields, topology, expectations)

PUBLIC = {
    # geometry
    "GMFSeries", "LKCVector", "Rectangle", "ball_volume", "chi2_gmf",
    "density_derivative_gmf", "flag_coefficient", "gaussian_gmf", "gaussian_tail",
    "hermite", "rectangle_lkcs", "tube_volume_rectangle",
    # fields
    "ChiSquaredModel", "CovarianceModel", "FFieldModel", "FieldFormatError",
    "GaussianModel", "GaussianisedModel", "LatticeField", "SimulationError",
    "TFieldModel", "component_seed", "estimate_spectral_moments", "gaussianise",
    "read_field", "simulate_gaussian", "simulate_model", "write_field",
    # topology
    "CurveFormatError", "ECCurve", "ec_curve", "euler_characteristic",
    "excursion_mask", "face_counts", "geometric_measures", "read_ec_csv", "write_ec_csv",
    # expectations
    "CapabilityError", "NoSolutionError", "QuadratureError", "ThresholdResult",
    "excursion_probability", "expected_ec_curve", "expected_ec_gaussian_rectangle",
    "expected_ec_stationary_rectangle", "expected_lkc_general", "expected_lkc_high_level",
    "expected_lkc_isotropic", "identify_model", "metric_rectangle_lkcs", "threshold",
    "top_lkc_quadrature",
    "__version__",
}


def test_public_names_are_pinned():
    assert len(xkit.__all__) == len(set(xkit.__all__))
    assert set(xkit.__all__) == PUBLIC
    for name in xkit.__all__:
        assert hasattr(xkit, name), name


def test_package_names_come_from_the_module_lists():
    exported = set().union(*(m.__all__ for m in MODULES))
    assert set(xkit.__all__) == exported | {"__version__"}
    assert sum(len(m.__all__) for m in MODULES) == len(exported)  # pairwise disjoint
    for module in MODULES:
        for name in module.__all__:
            assert getattr(xkit, name) is getattr(module, name), name


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats, scipy.integrate and scipy.optimize load on first use only
    slow = ("scipy.stats", "scipy.integrate", "scipy.optimize")
    code = f"import sys, xkit, xkit.cli; print(*[m for m in {slow!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
