"""Excursion-set topology on lattices: masks, Euler characteristics, EC curves.

An excursion mask is interpreted as a closed cubical complex: a k-face of
the grid belongs to the set exactly when all ``2^k`` of its corner sites do.
The Euler characteristic is then the alternating sum of face counts

    ``chi = N_0 - N_1 + N_2 - N_3``

with the sign convention anchored so that a single occupied site counts +1.
Face counting is done with shifted array reductions, never by materialising
face lists, so memory stays proportional to the grid.  Every reduction is a
minimum over a face's corners: over a mask's corners for one level, and for
a whole EC curve over each site's level rank (the number of levels at or
below its value, found without a sort from an order-keeping bucket map),
after which the curve is a histogram of small integers.
The face counts also give every Lipschitz-Killing curvature of the complex
(:func:`geometric_measures`).

The count is exact for the lattice complex, but as an estimate of the
continuum EC of ``{f >= u}`` it carries a bias that depends on the grid
step ``h``.  Its expectation is ``sum_k (-1)^k N_k P_k(u)``, where ``N_k``
counts the k-faces and ``P_k(u)`` is the probability that all corners of
one k-face are ``>= u``; that sum tends to the Gaussian-kinematic-formula
curve roughly as ``h^2``.  For a unit-variance squared-exponential field on
the unit cube with ``h * sqrt(lambda2) = 0.47`` (a 64**3 grid at
``lambda2 = 880``) the lattice expectation exceeds the continuum curve by
about 55 near ``u = +1``; at 128**3 and 256**3 the largest gap is about 13
and 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from xkit.fields import LatticeField
from xkit.geometry import LKCVector, _check_dim, _check_levels, _finite_levels, _positive

__all__ = [
    "ECCurve",
    "CurveFormatError",
    "excursion_mask",
    "face_counts",
    "euler_characteristic",
    "ec_curve",
    "geometric_measures",
    "write_ec_csv",
    "read_ec_csv",
]

_FLOAT = np.finfo(float)
# Sites ranked and counted at a time, so a block's temporaries stay in cache
# (64^3 curves: about as fast from 2^14 to 2^17, slower at 2^13 and 2^18).
_BLOCK = 1 << 15


class CurveFormatError(ValueError):
    """An EC-curve file does not conform to the CSV schema."""


def excursion_mask(field: LatticeField, u: float) -> np.ndarray:
    """Boolean mask of the excursion set ``{x : f(x) >= u}`` on the grid."""
    return field.values >= _finite_levels(u, "threshold")


def _reduce_along(arr: np.ndarray, axis: int) -> np.ndarray:
    """The minimum of each pair of neighbours along ``axis``."""
    lead = (slice(None),) * axis
    return np.minimum(arr[lead + (slice(0, -1),)], arr[lead + (slice(1, None),)])


def _corner_reductions(arr: np.ndarray):
    """Yield ``(bits, reduced)`` for every axis subset ``bits``.

    ``reduced`` is the minimum over the ``2^|bits|`` corners of each face
    spanning the axes in ``bits``: on a mask, the AND (the face is present);
    on level ranks, the rank of the level where the face appears.  Subsets
    are enumerated by bitmask and reuse the reduction of their largest
    proper prefix.
    """
    reduced = {0: arr}
    for bits in range(1 << arr.ndim):
        if bits:
            low = bits & -bits
            reduced[bits] = _reduce_along(reduced[bits ^ low], low.bit_length() - 1)
        yield bits, reduced[bits]


def face_counts(mask: np.ndarray) -> np.ndarray:
    """Counts ``(N_0, ..., N_dim)`` of k-faces present in the closed complex.

    A k-face spanning axis subset ``S`` is present when all its corners are.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"mask must be boolean, got dtype {mask.dtype}")
    _check_dim(mask.ndim)
    counts = np.zeros(mask.ndim + 1, dtype=np.int64)
    for bits, present in _corner_reductions(mask):
        counts[bits.bit_count()] += int(present.sum())
    return counts


def euler_characteristic(mask: np.ndarray) -> int:
    """Euler characteristic of the excursion mask's closed cubical complex."""
    counts = face_counts(mask)
    signs = (-1) ** np.arange(counts.size)
    return int(np.dot(signs, counts))


@dataclass(frozen=True)
class ECCurve:
    """Euler characteristic as a function of the excursion level.

    ``kind`` distinguishes lattice measurements ("empirical") from
    closed-form or simulation-averaged expectations ("expected").  ``meta``
    carries the parameter provenance (model, grid, seed, ...) as strings and
    is embedded in the CSV serialisation.
    """

    levels: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    kind: str = "empirical"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        levels = _check_levels(self.levels)
        values = np.asarray(self.values, dtype=float)
        if values.shape != levels.shape:
            raise ValueError("levels and values must have matching shapes")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if self.kind not in ("empirical", "expected"):
            raise ValueError(f"kind must be 'empirical' or 'expected', got {self.kind!r}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "meta", {str(k): str(v) for k, v in dict(self.meta).items()}
        )

    def __len__(self):
        return self.levels.size

    def __repr__(self):
        return (
            f"ECCurve(kind={self.kind!r}, n={len(self)}, "
            f"levels=[{self.levels[0]:g}..{self.levels[-1]:g}])"
        )


def _ranks(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The number of ``levels`` at or below each of the finite ``values``.

    ``np.searchsorted(levels, values, side="right")`` for nondecreasing levels
    (equal ones included), as ``np.min_scalar_type(levels.size)``, without a
    sort.  One map,
    ``trunc(clip((x - levels[0]) * scale, 0, 2 * levels.size))``, puts levels
    and values into buckets.  A rounded subtraction, a product with a positive
    constant, a clip and a truncation each keep order, so whatever the scale,
    a level in a lower bucket than a value is at or below it and a level in a
    higher bucket is above it.  The rank is the count of levels in lower
    buckets, from a table, plus those in the value's own bucket at or below
    it, found in halving steps (one step for evenly spaced levels).  The scale
    is clipped to the positive finite floats: a single level (a span of 0) or
    a span that overflows would give ``inf * 0 = nan`` for a far-away value.

    The values are ranked ``_BLOCK`` at a time in buffers made once, and each
    block's ranks are written into the one array returned, so no temporary
    grows with the field.
    """
    buckets = 2 * levels.size
    with np.errstate(divide="ignore", over="ignore"):
        scale = np.clip(buckets / (levels[-1] - levels[0]), _FLOAT.tiny, _FLOAT.max)
        level_buckets = np.clip((levels - levels[0]) * scale, 0, buckets).astype(np.intp)
    most = int(np.bincount(level_buckets).max())  # the most levels in one bucket
    # room for the last comparison's index, up to levels.size + most - 1
    dtype = np.min_scalar_type(levels.size + most)
    below = np.searchsorted(level_buckets, np.arange(buckets + 1)).astype(dtype)
    padded = np.append(levels, np.full(most, np.inf))
    steps = [dtype.type(1 << k) for k in reversed(range(most.bit_length()))]

    ranks = np.empty(np.shape(values), dtype=np.min_scalar_type(levels.size))
    flat, out = np.ravel(values), ranks.reshape(-1)
    buffers = [np.empty(min(_BLOCK, flat.size), t) for t in (float, np.intp, dtype, dtype, bool)]
    for start in range(0, flat.size, _BLOCK):
        x = flat[start:start + _BLOCK]
        scaled, index, rank, step_up, hit = (b[:x.size] for b in buffers)
        with np.errstate(over="ignore"):
            np.multiply(np.subtract(x, levels[0], out=scaled), scale, out=scaled)
        np.copyto(index, np.clip(scaled, 0, buckets, out=scaled), casting="unsafe")  # truncates
        # every index is in range; "clip" spares the copy that "raise" makes of out=
        np.take(below, index, out=rank, mode="clip")
        for step in steps:
            np.take(padded, np.add(rank, step - 1, out=index), out=scaled, mode="clip")
            rank += np.multiply(np.greater_equal(x, scaled, out=hit), step, out=step_up)
        out[start:start + x.size] = rank
    return ranks


def _rank_curve(ranks: np.ndarray, size: int) -> np.ndarray:
    """The EC at each of ``size`` levels from the sites' level ranks, as int64.

    Each face type's histogram of minimum ranks is summed ``_BLOCK`` sites at
    a time, so ``bincount`` widens only a block to its index type."""
    faces = np.zeros(size + 1, dtype=np.int64)
    for bits, minima in _corner_reductions(ranks):
        flat = minima.reshape(-1)
        counts = sum(np.bincount(flat[start:start + _BLOCK], minlength=faces.size)
                     for start in range(0, flat.size, _BLOCK))
        faces += (-1) ** bits.bit_count() * counts
    # faces present at levels[k] are those whose minimum rank exceeds k
    return np.cumsum(faces[:0:-1])[::-1]


def _ec_at(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The EC of ``{values >= u}`` at each of the nondecreasing ``levels``, as int64:
    the one counting entry.  ``levels`` may repeat, be empty, or end in ``+inf``
    levels, whose EC is 0, as no finite value reaches them."""
    reached = levels[:np.searchsorted(levels, np.inf)]
    ranks = _ranks(values, reached) if reached.size else np.zeros(values.shape, np.uint8)
    return _rank_curve(ranks, levels.size)


def ec_curve(field: LatticeField, levels: np.ndarray, meta: dict | None = None) -> ECCurve:
    """Empirical EC curve of a lattice field over strictly increasing levels.

    Rather than rebuilding a mask per level, the sites are ranked against the
    levels once, without a sort: each site's rank is the number of levels at
    or below its value (a uint8 for up to 255 levels), read from a bucket
    table (:func:`_ranks`; one comparison for evenly spaced levels).  The
    rank does not decrease with the value, so the minimum of a face's corner
    ranks is the rank of its corner minimum, and the face is present at
    ``levels[k]`` exactly when that rank exceeds ``k``.  Each face type, the
    sites included, adds its signed histogram of minimum ranks into one, and
    the curve is that histogram's reverse cumulative sum: exact integers,
    ties included.  That count is :func:`_ec_at`, shared with simulated
    expected curves, which takes any nondecreasing levels (empty, repeated,
    or ending in ``+inf`` ones, whose EC is 0); ``_check_dim`` is in
    :mod:`xkit.geometry`.

    Each value is the exact EC of the lattice's closed cubical complex.  As
    an estimate of the continuum EC it is biased by an amount that depends
    on the grid step (+55 near ``u = +1`` for a 3-D field at
    ``spacing * sqrt(lambda2) = 0.47``; see the module docstring).  The
    ``spacing * sqrt(lambda) <= 0.5`` guard of
    :func:`xkit.fields.simulate_gaussian` is a condition of the sampler, not
    a bound on this bias.
    """
    levels = _check_levels(levels)
    _check_dim(field.dim)
    chi = _ec_at(field.values, levels)
    base_meta = {"shape": "x".join(str(n) for n in field.shape), "spacing": repr(field.spacing)}
    if meta:
        base_meta.update(meta)
    return ECCurve(levels=levels, values=chi.astype(float), kind="empirical", meta=base_meta)


def geometric_measures(mask: np.ndarray, spacing: float) -> LKCVector:
    """Lipschitz-Killing curvatures ``(L_0, ..., L_N)`` of a mask's closed complex.

    With ``N_k`` the k-face counts of :func:`face_counts` and grid step ``h``,
    ``L_j = h^j sum_(k >= j) (-1)^(k-j) binom(k, j) N_k`` (the voxel "resel"
    formulas of Worsley, Marrett, Neelin, Vandal, Friston & Evans 1996,
    Hum. Brain Mapp. 4:58-73).  ``L_N`` is the volume of the occupied N-cells,
    ``L_0`` is :func:`euler_characteristic`, and a box of sides ``T_i`` gets
    the elementary symmetric polynomials of the ``T_i``, as in
    :func:`xkit.geometry.rectangle_lkcs`.
    """
    counts = face_counts(mask).tolist()
    spacing = _positive(spacing, "spacing")
    dim = len(counts) - 1
    return LKCVector([
        spacing ** j * sum((-1) ** (k - j) * math.comb(k, j) * counts[k] for k in range(j, dim + 1))
        for j in range(dim + 1)
    ])


# ---------------------------------------------------------------------------
# CSV serialisation
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _meta_text(pairs) -> str:
    """``# key=value`` lines, in order: the one writer for CSV headers and CLI echoes.

    Refuses by key a pair that :func:`read_ec_csv` would not return as written,
    such as a lone surrogate (a non-UTF-8 byte of a path) that UTF-8 cannot encode."""
    lines = []
    for key, value in pairs:
        text = key + value
        if ("=" in key or key != key.strip() or value != value.rstrip()
                or "\n" in text or "\r" in text
                or text.encode("utf-8", "replace").decode("utf-8") != text):
            raise ValueError(f"curve metadata {key!r} would not read back: it has a line "
                             "break, an '=' in its key, whitespace at an end, or a "
                             "character UTF-8 cannot encode")
        lines.append(f"# {key}={value}\n")
    return "".join(lines)


def ec_csv_text(curve: ECCurve) -> str:
    """The CSV serialisation of a curve as a string.

    Deterministic (sorted metadata, 17-significant-digit floats), so
    identical curves serialise to identical bytes.  Metadata that would not
    read back as written is refused (:func:`_meta_text`).
    """
    lines = ["u,ec,kind"]
    for u, v in zip(curve.levels, curve.values):
        lines.append(f"{_fmt(u)},{_fmt(v)},{curve.kind}")
    return _meta_text(sorted(curve.meta.items())) + "\n".join(lines) + "\n"


def write_ec_csv(curve: ECCurve, path) -> None:
    """Write an EC curve as CSV with `# key=value` metadata comments."""
    text = ec_csv_text(curve)  # refused before the file is opened
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_ec_csv(path) -> ECCurve:
    """Read an EC curve written by :func:`write_ec_csv`."""
    meta: dict[str, str] = {}
    rows: list[tuple[float, float, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            text = ln[1:].strip()
            if "=" in text:
                key, _, value = text.partition("=")
                meta[key.strip()] = value
        elif ln.strip():
            body.append(ln)
    if not body or body[0].strip() != "u,ec,kind":
        raise CurveFormatError(f"{path}: missing 'u,ec,kind' header")
    for ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise CurveFormatError(f"{path}: malformed row {ln!r}")
        try:
            rows.append((float(parts[0]), float(parts[1]), parts[2].strip()))
        except ValueError as exc:
            raise CurveFormatError(f"{path}: non-numeric row {ln!r}") from exc
    if not rows:
        raise CurveFormatError(f"{path}: no data rows")
    kinds = {r[2] for r in rows}
    if len(kinds) != 1:
        raise CurveFormatError(f"{path}: mixed curve kinds {sorted(kinds)}")
    try:
        return ECCurve(
            levels=np.array([r[0] for r in rows]),
            values=np.array([r[1] for r in rows]),
            kind=rows[0][2],
            meta=meta,
        )
    except ValueError as exc:
        raise CurveFormatError(f"{path}: {exc}") from exc
