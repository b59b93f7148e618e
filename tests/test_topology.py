"""Excursion topology: cubical face counts, EC curves, boundary measures, CSV.

The Euler-characteristic implementation is cross-checked against a completely
independent oracle: the closed complex of a 2-D mask is rasterised at double
resolution (vertex/edge/square pixels) and scipy.ndimage flood fills count
connected components of the set and bounded components of its complement;
their difference is the Euler characteristic of a planar set.
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from xkit.fields import LatticeField
from xkit.topology import (
    CurveFormatError,
    ECCurve,
    ec_curve,
    euler_characteristic,
    excursion_mask,
    face_counts,
    geometric_measures,
    read_ec_csv,
    write_ec_csv,
)

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def flood_fill_euler(mask: np.ndarray) -> int:
    """Components minus holes of the closed cubical complex of a 2-D mask.

    The complex (vertices at mask sites, edges between orthogonal neighbour
    sites, squares for full 2x2 blocks) is drawn onto a (2m-1)x(2n-1) pixel
    raster where 4-adjacency of true pixels is exactly the connectivity of
    the complex, and bounded 4-connected false regions are exactly its holes.
    """
    m, n = mask.shape
    fine = np.zeros((2 * m - 1, 2 * n - 1), dtype=bool)
    fine[::2, ::2] = mask
    fine[::2, 1::2] = mask[:, :-1] & mask[:, 1:]
    fine[1::2, ::2] = mask[:-1, :] & mask[1:, :]
    fine[1::2, 1::2] = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
    _, components = ndimage.label(fine, structure=CROSS)
    padded = np.pad(fine, 1, constant_values=False)
    inverse_labels, regions = ndimage.label(~padded, structure=CROSS)
    outside = inverse_labels[0, 0]
    holes = regions - (1 if outside else 0)
    return components - holes


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_excursion_mask_limits_and_median():
    values = np.arange(25.0).reshape(5, 5)
    f = LatticeField(values=values, spacing=0.1)
    assert excursion_mask(f, -1.0).all()
    assert not excursion_mask(f, 25.0).any()
    median = float(np.median(values))
    assert excursion_mask(f, median).sum() == 13  # ceil(25/2) under >=
    with pytest.raises(ValueError):
        excursion_mask(f, math.inf)


def test_masks_are_nested_in_the_level():
    rng = np.random.default_rng(5)
    f = LatticeField(values=rng.standard_normal((12, 12)), spacing=0.1)
    low = excursion_mask(f, -0.5)
    high = excursion_mask(f, 0.8)
    assert np.all(low[high])  # high-level mask contained in low-level one


# ---------------------------------------------------------------------------
# face counts and Euler characteristic
# ---------------------------------------------------------------------------

def test_face_counts_of_full_grids():
    # N_k for full occupancy: sum over axis subsets S, |S|=k, of
    # prod_(i in S) (m_i - 1) * prod_(i not in S) m_i
    counts = face_counts(np.ones((4, 6), dtype=bool))
    assert counts.tolist() == [24, 3 * 6 + 4 * 5, 3 * 5]
    counts3 = face_counts(np.ones((3, 4, 5), dtype=bool))
    assert counts3.tolist() == [
        60,
        2 * 4 * 5 + 3 * 3 * 5 + 3 * 4 * 4,
        2 * 3 * 5 + 2 * 4 * 4 + 3 * 3 * 4,
        2 * 3 * 4,
    ]


def test_face_counts_rejects_bad_masks():
    with pytest.raises(ValueError):
        face_counts(np.ones((3, 3)))  # not boolean
    with pytest.raises(ValueError):
        face_counts(np.ones((2, 2, 2, 2), dtype=bool))


def test_euler_characteristic_hand_cases():
    point = np.zeros((5, 5), dtype=bool)
    point[2, 2] = True
    assert euler_characteristic(point) == 1

    assert euler_characteristic(np.ones((7, 7), dtype=bool)) == 1

    ring = np.ones((3, 3), dtype=bool)
    ring[1, 1] = False
    assert euler_characteristic(ring) == 0

    two_points = np.zeros((5, 5), dtype=bool)
    two_points[0, 0] = two_points[4, 4] = True
    assert euler_characteristic(two_points) == 2

    assert euler_characteristic(np.ones(6, dtype=bool)) == 1
    broken = np.array([True, True, False, True], dtype=bool)
    assert euler_characteristic(broken) == 2

    assert euler_characteristic(np.ones((5, 5, 5), dtype=bool)) == 1
    shell = np.ones((3, 3, 3), dtype=bool)
    shell[1, 1, 1] = False
    assert euler_characteristic(shell) == 2  # hollow ball

    solid_torus = np.ones((3, 3, 3), dtype=bool)
    solid_torus[1, 1, :] = False
    assert euler_characteristic(solid_torus) == 0

    assert euler_characteristic(np.zeros((4, 4), dtype=bool)) == 0


def test_euler_characteristic_matches_flood_fill_oracle():
    rng = np.random.default_rng(42)
    for case in range(100):
        m = int(rng.integers(2, 33))
        n = int(rng.integers(2, 33))
        density = rng.uniform(0.2, 0.8)
        mask = rng.random((m, n)) < density
        assert euler_characteristic(mask) == flood_fill_euler(mask), (
            f"case {case}: {m}x{n} at density {density:.2f}"
        )


def test_additivity_on_separated_masks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.random((8, 8)) < 0.5
        b = rng.random((8, 8)) < 0.5
        combined = np.zeros((8, 20), dtype=bool)
        combined[:, :8] = a
        combined[:, 12:] = b
        assert euler_characteristic(combined) == euler_characteristic(
            a
        ) + euler_characteristic(b)


# ---------------------------------------------------------------------------
# EC curves
# ---------------------------------------------------------------------------

def test_ec_curve_matches_per_level_recount():
    rng = np.random.default_rng(3)
    f = LatticeField(values=rng.standard_normal((20, 20)), spacing=0.1)
    levels = np.linspace(-2.5, 2.5, 21)
    curve = ec_curve(f, levels)
    direct = [euler_characteristic(excursion_mask(f, u)) for u in levels]
    assert curve.values.tolist() == direct
    assert curve.kind == "empirical"
    assert curve.meta["shape"] == "20x20"


def test_ec_curve_endpoints():
    rng = np.random.default_rng(4)
    f = LatticeField(values=rng.standard_normal((16, 16, 4)), spacing=0.1)
    lo = f.values.min() - 1.0
    hi = f.values.max() + 1.0
    curve = ec_curve(f, np.array([lo, hi]))
    assert curve.values[0] == 1.0  # full rectangle
    assert curve.values[1] == 0.0  # empty set


def test_two_bump_field_has_euler_characteristic_two():
    x = np.linspace(0.0, 1.0, 81)
    X, Y = np.meshgrid(x, x, indexing="ij")
    bumps = np.exp(-(((X - 0.3) ** 2 + (Y - 0.3) ** 2) / 0.005)) + np.exp(
        -(((X - 0.7) ** 2 + (Y - 0.7) ** 2) / 0.005)
    )
    f = LatticeField(values=bumps, spacing=x[1] - x[0])
    assert euler_characteristic(excursion_mask(f, 0.5)) == 2


def test_ec_curve_level_validation():
    f = LatticeField(values=np.zeros((4, 4)) + np.arange(4.0), spacing=0.1)
    with pytest.raises(ValueError):
        ec_curve(f, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ec_curve(f, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        ec_curve(f, np.array([]))
    with pytest.raises(ValueError, match="levels must be finite"):
        ec_curve(f, [np.nan])
    with pytest.raises(ValueError, match="levels must be finite"):
        ec_curve(f, [0.0, np.inf])


def test_ec_curve_dataclass_validation():
    levels = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        ECCurve(levels=levels, values=np.array([1.0]))
    with pytest.raises(ValueError, match="values must be finite"):
        ECCurve(levels=levels, values=np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match="levels must be finite"):
        ECCurve(levels=np.array([0.0, math.inf]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ECCurve(levels=levels[::-1].copy(), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ECCurve(levels=levels, values=np.array([1.0, 2.0]), kind="guessed")
    curve = ECCurve(levels=levels, values=np.array([1.0, 2.0]), meta={"seed": 7})
    assert curve.meta == {"seed": "7"}  # coerced to strings


def test_ec_curve_stable_under_grid_refinement():
    # A fixed band-limited field sampled at spacing d and d/2; with
    # d*sqrt(lambda2) well under 0.25 the two lattice EC curves may differ
    # only at a couple of near-critical levels.
    def trig_field(seed: int, n: int):
        rng = np.random.default_rng(seed)
        modes = []
        while len(modes) < 3:
            k = rng.integers(-2, 3, size=2)
            if k[0] == 0 and k[1] == 0:
                continue
            modes.append((k.copy(), float(rng.normal()), float(rng.uniform(0, 2 * np.pi))))
        x = np.arange(n + 1) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        f = np.zeros_like(X)
        for k, a, ph in modes:
            f += a * np.cos(2 * np.pi * (k[0] * X + k[1] * Y) + ph)
        variance = sum(a * a / 2 for _, a, _ in modes)
        lam2 = max(
            sum(a * a / 2 * (2 * np.pi * k[axis]) ** 2 for k, a, _ in modes) / variance
            for axis in range(2)
        )
        return f, variance, lam2

    for seed in range(10):
        coarse, variance, lam2 = trig_field(seed, 128)
        fine, _, _ = trig_field(seed, 256)
        assert math.sqrt(lam2) / 128 <= 0.25
        sd = math.sqrt(variance)
        levels = np.linspace(-3 * sd, 3 * sd, 101)
        c1 = ec_curve(LatticeField(values=coarse, spacing=1 / 128), levels).values
        c2 = ec_curve(LatticeField(values=fine, spacing=1 / 256), levels).values
        assert int(np.sum(c1 != c2)) <= 2


# ---------------------------------------------------------------------------
# geometric measures
# ---------------------------------------------------------------------------

def test_geometric_measures_of_a_sub_rectangle():
    spacing = 0.01
    mask = np.zeros((101, 101), dtype=bool)
    mask[10:41, 20:71] = True  # 31 x 51 sites -> extent 0.30 x 0.50
    lkcs = geometric_measures(mask, spacing)
    assert lkcs[2] == pytest.approx(0.30 * 0.50, rel=1e-12)
    assert lkcs[1] == pytest.approx(0.30 + 0.50, rel=1e-12)
    assert math.isnan(lkcs[0])


def test_geometric_measures_full_grid_and_empty():
    spacing = 0.01
    full = geometric_measures(np.ones((101, 101), dtype=bool), spacing)
    assert full[2] == pytest.approx(1.0, rel=1e-12)
    assert full[1] == pytest.approx(2.0, rel=1e-12)
    empty = geometric_measures(np.zeros((9, 9), dtype=bool), spacing)
    assert empty[2] == 0.0
    assert empty[1] == 0.0


def test_geometric_measures_box_in_three_dimensions():
    spacing = 0.05
    mask = np.zeros((21, 21, 21), dtype=bool)
    mask[2:13, 4:17, 5:10] = True  # extents 0.50, 0.60, 0.20
    lkcs = geometric_measures(mask, spacing)
    assert lkcs[3] == pytest.approx(0.50 * 0.60 * 0.20, rel=1e-12)
    half_area = 0.50 * 0.60 + 0.60 * 0.20 + 0.50 * 0.20
    assert lkcs[2] == pytest.approx(half_area, rel=1e-12)
    assert math.isnan(lkcs[1]) and math.isnan(lkcs[0])


def test_geometric_measures_guards():
    with pytest.raises(ValueError):
        geometric_measures(np.ones((4, 4), dtype=bool), 0.0)
    with pytest.raises(ValueError):
        geometric_measures(np.ones((4, 4)), 0.1)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_preserves_everything(tmp_path):
    curve = ECCurve(
        levels=np.array([-1.0, 0.0, 2.5]),
        values=np.array([3.0, -7.0, 0.0]),
        kind="expected",
        meta={"model": "gaussian", "lambda2": "200.0"},
    )
    path = tmp_path / "curve.csv"
    write_ec_csv(curve, path)
    back = read_ec_csv(path)
    assert np.array_equal(back.levels, curve.levels)
    assert np.array_equal(back.values, curve.values)
    assert back.kind == "expected"
    assert back.meta == curve.meta


def test_csv_serialisation_is_deterministic(tmp_path):
    rng = np.random.default_rng(12)
    f = LatticeField(values=rng.standard_normal((16, 16)), spacing=1 / 16)
    curve = ec_curve(f, np.linspace(-2, 2, 11), meta={"seed": "12"})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_ec_csv(curve, a)
    write_ec_csv(curve, b)
    assert a.read_bytes() == b.read_bytes()
    # 17-significant-digit floats survive the round trip bit-for-bit
    assert np.array_equal(read_ec_csv(a).levels, curve.levels)


def test_csv_rejects_malformed_files(tmp_path):
    def attempt(text):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(CurveFormatError):
            read_ec_csv(p)

    attempt("")  # empty
    attempt("u,ec\n0,1\n")  # wrong header
    attempt("u,ec,kind\n")  # no rows
    attempt("u,ec,kind\n0.0,1.0\n")  # missing column
    attempt("u,ec,kind\nzero,1.0,empirical\n")  # non-numeric
    attempt("u,ec,kind\n0,1,empirical\n1,2,expected\n")  # mixed kinds
    attempt("u,ec,kind\n1,1,empirical\n0,2,empirical\n")  # decreasing levels
    attempt("u,ec,kind\n0,1,guessed\n")  # unknown kind
    attempt("u,ec,kind\n0,1,empirical\ninf,2,empirical\n")  # non-finite level
    attempt("u,ec,kind\n0,nan,empirical\n")  # non-finite value
