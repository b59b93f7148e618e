"""Excursion topology: cubical face counts, EC curves, boundary measures, CSV.

The Euler-characteristic implementation is cross-checked against a completely
independent oracle: the closed complex of a 2-D mask is rasterised at double
resolution (vertex/edge/square pixels) and scipy.ndimage flood fills count
connected components of the set and bounded components of its complement;
their difference is the Euler characteristic of a planar set.
"""

import math
import re

import numpy as np
import pytest
from scipy import ndimage

import xkit.topology as topology_mod
from xkit.fields import LatticeField
from xkit.geometry import Rectangle, rectangle_lkcs
from xkit.topology import (
    CurveFormatError,
    ECCurve,
    ec_curve,
    euler_characteristic,
    excursion_mask,
    face_counts,
    geometric_measures,
    _ec_at,
    _ranks,
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


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2,) * 5])
def test_ec_curve_refuses_a_dimension_before_ranking(monkeypatch, shape):
    # the same rule and message as euler_characteristic, and no site ranked
    calls = []
    monkeypatch.setattr(topology_mod, "_ranks", lambda *args: calls.append(args))
    message = f"unsupported dimension {len(shape)}: Euler characteristics are implemented for"
    with pytest.raises(ValueError, match=message):
        euler_characteristic(np.ones(shape, dtype=bool))
    with pytest.raises(ValueError, match=message):
        ec_curve(LatticeField(values=np.zeros(shape), spacing=0.1), [0.0, 1.0])
    assert calls == []


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


def test_ec_curve_counts_ties_exactly_against_per_level_recount():
    # Values and levels on a quarter grid, so many sites sit exactly on a level,
    # where a face is present because its corner minimum is >= u.
    rng = np.random.default_rng(11)
    shapes = [(1,), (9,), (1, 1), (7, 5), (1, 6), (1, 1, 1), (4, 5, 3), (3, 1, 4)]
    level_sets = [
        np.arange(-2.5, 2.75, 0.25),  # from below the minimum to above the maximum
        np.array([0.0]),  # a single level
        np.array([-10.0, 10.0]),  # below the minimum and above the maximum only
        np.arange(-320, 321) / 128.0,  # 641 levels: ranks no longer fit a uint8
    ]
    for shape in shapes:
        f = LatticeField(values=rng.integers(-8, 9, size=shape) / 4.0, spacing=0.1)
        before = f.values.copy()
        for levels in level_sets:
            direct = [euler_characteristic(excursion_mask(f, u)) for u in levels]
            assert ec_curve(f, levels).values.tolist() == direct, (shape, levels.size)
        assert np.array_equal(f.values, before)


def _recount(f, levels):
    """``euler_characteristic`` at every level, counted once per distinct mask."""
    seen = {}
    for u in levels:
        mask = excursion_mask(f, u)
        key = mask.tobytes()
        if key not in seen:
            seen[key] = euler_characteristic(mask)
        yield seen[key]


def test_ec_curve_ranks_any_increasing_levels():
    # The bucketed rank is exact for any strictly increasing levels, not only
    # evenly spaced ones: many levels in one bucket, a single level, a span
    # that overflows to inf and more levels than a uint16 holds.
    rng = np.random.default_rng(21)
    cases = [
        (np.array([0.0, 1e-12, 2e-12, 1.0]),
         lambda shape: rng.choice([-1.0, 0.0, 5e-13, 1e-12, 1.5e-12, 2e-12, 3e-12, 1.0, 2.0], shape)),
        (np.geomspace(1e-6, 1e6, 61), lambda shape: 10.0 ** rng.uniform(-7.0, 7.0, shape)),
        (np.unique(rng.standard_normal(300) ** 3), lambda shape: 2.0 * rng.standard_normal(shape) ** 3),
        (None, rng.standard_normal),  # the levels are the field's own values
        (np.array([0.25]), lambda shape: rng.choice([-1.0, 0.25, 1.0], shape)),
        # 255 levels, the top 32 in one bucket: the search looks past index 255
        (np.append(np.linspace(-1e3, -1.0, 223), np.linspace(0.0, 1e-3, 32)),
         lambda shape: rng.choice([-2e3, -500.0, 5e-4, 1.0], shape)),
        (np.array([-1e308, 1e308]),
         lambda shape: 1e308 * rng.choice([-1.7, -1.0, -0.5, 0.0, 0.5, 1.0, 1.7], shape)),
        (np.arange(-35_000, 35_000) / 4096.0,
         lambda shape: rng.integers(-40_000, 40_000, shape) / 4096.0),
    ]
    for shape in [(9,), (7, 5), (4, 5, 3)]:
        for levels, draw in cases:
            f = LatticeField(values=draw(shape), spacing=0.1)
            if levels is None:
                levels = np.unique(f.values)
            rank = _ranks(f.values, levels)
            assert rank.dtype == np.min_scalar_type(levels.size)
            assert np.array_equal(rank, np.searchsorted(levels, f.values, side="right"))
            assert ec_curve(f, levels).values.tolist() == list(_recount(f, levels)), (shape, levels[:3])
    assert rank.dtype == np.uint32  # the last case's 70,000 levels


def test_ranks_take_nondecreasing_levels():
    # A gaussianised chi-square curve ranks its draws against the running
    # maximum of its pulled-back levels, so equal levels must rank as
    # searchsorted ranks them: every copy at or below a value counts.
    rng = np.random.default_rng(26)
    spread = np.linspace(-3.0, 3.0, 41)
    level_sets = [
        np.append(np.zeros(27), np.geomspace(1e-3, 50.0, 30)),
        np.full(9, 1.5),
        np.array([5e-324, 5e-324, 1e-323, 1e-323, 1e-323, 1.5e-323]),
        np.sort(rng.choice(spread, 255)),
        np.array([0.0]),
    ]
    for levels in level_sets:
        values = np.concatenate([
            [0.0, 5e-324, 1e-323, 1e300, -1e300, -1.0],
            levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf),
            rng.choice(spread, 500), 3.0 * rng.standard_normal(500),
        ])
        rank = _ranks(values, levels)
        assert rank.dtype == np.min_scalar_type(levels.size)
        assert np.array_equal(rank, np.searchsorted(levels, values, side="right")), levels[:3]


def _even_shape(sites, dim):
    """A ``dim``-axis shape of exactly ``sites`` sites, its axes as even as the factors allow."""
    factors, d = [], 2
    while d * d <= sites:
        while sites % d == 0:
            factors.append(d)
            sites //= d
        d += 1
    shape = [1] * dim
    for p in sorted(factors + [sites] * (sites > 1), reverse=True):
        shape[shape.index(min(shape))] *= p
    return tuple(shape)


def test_ranks_and_curves_are_exact_across_block_boundaries():
    # The sites are ranked and their face histograms counted _BLOCK at a time:
    # a partial last block, a block that ends on the last site and several
    # blocks must each give searchsorted's ranks and the per-level recount.
    # The 255 levels end in 32 that share a bucket, so their rank search
    # looks past index 255 in a wider type than the uint8 ranks it returns.
    block = topology_mod._BLOCK
    rng = np.random.default_rng(25)
    level_sets = [
        np.linspace(-2.5, 2.5, 21),
        np.concatenate([[-1.0], 0.25 + np.arange(24) * 1e-4, [1.5]]),
        np.append(np.linspace(-3.0, -0.1, 223), np.linspace(0.0, 1e-3, 32)),
    ]
    for sites in (block - 1, block, block + 1, 3 * block + 7):
        for dim in (1, 2, 3):
            shape = _even_shape(sites, dim)
            values = rng.standard_normal(shape)
            pick = rng.integers(0, 3, shape)  # a third each among the two clusters
            values[pick == 1] = 0.25 + rng.uniform(-2e-4, 2.5e-3, np.count_nonzero(pick == 1))
            values[pick == 2] = rng.uniform(-1e-4, 1.1e-3, np.count_nonzero(pick == 2))
            f = LatticeField(values=values, spacing=0.1)
            for levels in level_sets:
                rank = _ranks(values, levels)
                assert rank.dtype == np.min_scalar_type(levels.size)
                assert np.array_equal(rank, np.searchsorted(levels, values, side="right"))
                got = ec_curve(f, levels).values.tolist()
                assert got == list(_recount(f, levels)), (shape, levels.size)
    view = values.T  # the last field transposed: not contiguous, ranked in its own order
    assert not view.flags.c_contiguous
    assert np.array_equal(_ranks(view, levels), np.searchsorted(levels, view, side="right"))
    g = LatticeField(values=view, spacing=0.1)
    assert ec_curve(g, levels).values.tolist() == list(_recount(g, levels))


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


def test_ec_curve_len_and_repr():
    curve = ECCurve(levels=np.array([-1.5, 0.0, 2.25]), values=np.array([3.0, 1.0, 0.0]))
    assert len(curve) == 3
    assert repr(curve) == "ECCurve(kind='empirical', n=3, levels=[-1.5..2.25])"


def test_ec_at_counts_repeated_empty_and_infinite_levels():
    # a nondecreasing level array may repeat a level, be empty, or end in
    # +inf levels, which no finite value reaches: their EC is 0
    values = np.random.default_rng(3).standard_normal((9, 11))
    finite = np.array([-0.5, -0.5, 0.0, 0.75])
    wanted = [euler_characteristic(values >= u) for u in finite]
    for levels in (finite, np.append(finite, [np.inf, np.inf])):
        counted = _ec_at(values, levels)
        assert counted.dtype == np.int64
        assert counted.tolist() == wanted + [0] * (levels.size - finite.size)
    for levels in (np.array([]), np.array([np.inf, np.inf])):
        assert _ec_at(values, levels).tolist() == [0] * levels.size


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
    assert lkcs[0] == 1


def test_geometric_measures_full_grid_and_empty():
    spacing = 0.01
    full = geometric_measures(np.ones((101, 101), dtype=bool), spacing)
    assert full[2] == pytest.approx(1.0, rel=1e-12)
    assert full[1] == pytest.approx(2.0, rel=1e-12)
    assert full[0] == 1
    empty = geometric_measures(np.zeros((9, 9), dtype=bool), spacing)
    assert empty[2] == 0.0
    assert empty[1] == 0.0
    assert empty[0] == 0.0


def test_geometric_measures_box_in_three_dimensions():
    spacing = 0.05
    mask = np.zeros((21, 21, 21), dtype=bool)
    mask[2:13, 4:17, 5:10] = True  # extents 0.50, 0.60, 0.20
    lkcs = geometric_measures(mask, spacing)
    assert lkcs[3] == pytest.approx(0.50 * 0.60 * 0.20, rel=1e-12)
    half_area = 0.50 * 0.60 + 0.60 * 0.20 + 0.50 * 0.20
    assert lkcs[2] == pytest.approx(half_area, rel=1e-12)
    assert lkcs[1] == pytest.approx(0.50 + 0.60 + 0.20, rel=1e-12)
    assert lkcs[0] == 1


def test_geometric_measures_of_irregular_masks_against_brute_force():
    rng = np.random.default_rng(11)
    for shape in [(40,), (1,), (12, 9), (1, 6), (7, 6, 5), (2, 3, 2)]:
        for p in (0.3, 0.7, 0.9):
            mask = rng.random(shape) < p
            dim = mask.ndim
            spacing = 0.25
            # a cell is a site whose 2^d corners are all set
            cells = set()
            for site in np.ndindex(*(n - 1 for n in shape)):
                corners = (
                    tuple(s + o for s, o in zip(site, offset))
                    for offset in np.ndindex(*(2,) * dim)
                )
                if all(mask[c] for c in corners):
                    cells.add(site)
            # a boundary facet belongs to one occupied cell only
            boundary = 0
            for site in cells:
                for axis in range(dim):
                    for step in (-1, 1):
                        neighbour = list(site)
                        neighbour[axis] += step
                        boundary += tuple(neighbour) not in cells
            # a stray facet has all its corners set but lies in no occupied cell
            stray = 0
            for axis in range(dim):
                for site in np.ndindex(*(n - (a != axis) for a, n in enumerate(shape))):
                    corners = [
                        tuple(s + o for s, o in zip(site, offset))
                        for offset in np.ndindex(*(1 if a == axis else 2 for a in range(dim)))
                    ]
                    cells_here = []
                    for step in (-1, 0):
                        cell = list(site)
                        cell[axis] += step
                        cells_here.append(tuple(cell))
                    stray += all(mask[c] for c in corners) and not any(
                        c in cells for c in cells_here
                    )
            lkcs = geometric_measures(mask, spacing)
            assert lkcs[dim] == spacing ** dim * len(cells), (shape, p)
            assert lkcs[dim - 1] == (
                0.5 * spacing ** (dim - 1) * boundary + spacing ** (dim - 1) * stray
            ), (shape, p)
            assert lkcs[0] == euler_characteristic(mask), (shape, p)
            assert np.all(np.isfinite(lkcs.values)), (shape, p)


def test_geometric_measures_count_lower_dimensional_pieces():
    # a lone edge: one component, half its length, no area
    edge = np.zeros((3, 3), dtype=bool)
    edge[1, 0:2] = True
    np.testing.assert_array_equal(geometric_measures(edge, 0.5).values, [1.0, 0.5, 0.0])
    # a ring of 12 sites around an empty 2x2 middle: one loop, no area
    ring = np.ones((4, 4), dtype=bool)
    ring[1:3, 1:3] = False
    np.testing.assert_array_equal(geometric_measures(ring, 1.0).values, [0.0, 12.0, 0.0])
    # an L of three unit cells
    ell = np.ones((3, 3), dtype=bool)
    ell[2, 2] = False
    np.testing.assert_array_equal(geometric_measures(ell, 1.0).values, [1.0, 4.0, 3.0])


@pytest.mark.parametrize("sites", [(7,), (1,), (6, 9), (1, 7), (5, 4, 3), (1, 1, 9), (2, 1, 4)])
def test_geometric_measures_of_full_boxes_match_rectangle_lkcs(sites):
    spacing = 0.3
    mask = np.zeros(tuple(n + 2 for n in sites), dtype=bool)
    mask[tuple(slice(1, n + 1) for n in sites)] = True
    positive = [spacing * (n - 1) for n in sites if n > 1]
    want = np.zeros(len(sites) + 1)
    if positive:
        want[: len(positive) + 1] = rectangle_lkcs(Rectangle(tuple(positive))).values
    else:
        want[0] = 1.0
    np.testing.assert_allclose(geometric_measures(mask, spacing).values, want, rtol=1e-12, atol=1e-12)


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
        meta={"model": "gaussian", "lambda2": "200.0", "k": "x=v", "p": "a,b #c",
              "note": "  # a,b=c  ünï \u2028 日本"},
    )
    path = tmp_path / "curve.csv"
    write_ec_csv(curve, path)
    back = read_ec_csv(path)
    assert np.array_equal(back.levels, curve.levels)
    assert np.array_equal(back.values, curve.values)
    assert back.kind == "expected"
    assert back.meta == curve.meta


@pytest.mark.parametrize("meta, key", [
    ({"note": "a\nb"}, "note"),
    ({"note": "a\rb"}, "note"),
    ({"a\nb": "v"}, "a\nb"),
    ({"model": "gaussian", "k=x": "v"}, "k=x"),
    ({" k": "v"}, " k"),
    ({"k ": "v"}, "k "),
    ({"note": "v "}, "note"),
    ({"note": "v\t"}, "note"),
    ({"note": "a\udcffb"}, "note"),
    ({"k\udcff": "v"}, "k\udcff"),
])
def test_csv_refuses_metadata_that_would_not_read_back(tmp_path, meta, key):
    # a line break would split the comment, an '=' in a key would move into
    # the value, the reader strips a key's ends and a value's tail, and UTF-8
    # cannot encode a lone surrogate (a non-UTF-8 byte of a path); the key is
    # named and no file is left behind
    curve = ECCurve(levels=np.array([0.0, 1.0]), values=np.array([1.0, 0.0]), meta=meta)
    path = tmp_path / "curve.csv"
    with pytest.raises(ValueError, match=f"curve metadata {re.escape(repr(key))}"):
        write_ec_csv(curve, path)
    assert not path.exists()


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
