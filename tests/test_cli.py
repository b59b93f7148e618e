"""Command-line interface: subcommands, exit codes, config files, reproducibility."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

import xkit.expectations as expectations_mod
from xkit.cli import main, parse_levels, parse_model, parse_shape
from xkit.expectations import expected_ec_gaussian_rectangle
from xkit.fields import (
    CovarianceModel,
    LatticeField,
    estimate_spectral_moments,
    read_field,
    simulate_model,
    write_field,
)
from xkit.geometry import Rectangle
from xkit.topology import read_ec_csv

# 64 sites at 1/128 spacing: fine enough for lambda2=200 and wide enough
# (0.49 > six correlation lengths) to avoid the small-extent warning
SIM_ARGS = [
    "simulate",
    "--model",
    "gaussian",
    "--shape",
    "64,64",
    "--spacing",
    "0.0078125",
    "--lambda2",
    "200",
    "--seed",
    "7",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _summary_stats(out: str) -> dict:
    line = [ln for ln in out.strip().split("\n") if ln.startswith("mean=")][-1]
    return {k: float(v) for k, v in (part.split("=") for part in line.split())}


# ---------------------------------------------------------------------------
# value parsers
# ---------------------------------------------------------------------------

def test_parse_levels_grid():
    levels = parse_levels("-5:5:0.1")
    assert levels.size == 101
    assert levels[0] == -5.0
    assert levels[-1] == pytest.approx(5.0, abs=1e-9)
    assert np.all(np.diff(levels) > 0)
    # endpoint included when it sits on the grid ...
    assert parse_levels("0:1:0.25").size == 5
    # ... dropped when the next grid point overshoots by more than half a step
    np.testing.assert_allclose(parse_levels("0:1:0.4"), [0.0, 0.4, 0.8])
    assert parse_levels("2:2:1").tolist() == [2.0]


def test_parse_levels_errors():
    for bad in ("1:2", "a:b:c", "0:1:0", "0:1:-0.5", "3:1:0.5"):
        with pytest.raises(ValueError):
            parse_levels(bad)


def test_parse_model_tokens():
    cov = CovarianceModel(variance=1.0, lambda2=100.0)
    assert parse_model("gaussian", cov).name == "gaussian"
    assert parse_model("chisq:5", cov).name == "chisq:5"
    assert parse_model("t:6", cov).name == "t:6"
    assert parse_model("f:4:9", cov).name == "f:4:9"
    assert parse_model("gchisq:3", cov).name == "gaussianised-chisq:3"
    for bad in ("weird", "chisq", "chisq:x", "f:4", "gaussian:2"):
        with pytest.raises(ValueError):
            parse_model(bad, cov)


def test_parse_shape():
    assert parse_shape("256,256") == (256, 256)
    assert parse_shape("8") == (8,)
    with pytest.raises(ValueError):
        parse_shape("4,4,4,4")
    with pytest.raises(ValueError):
        parse_shape("a,b")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_field_with_echo_and_summary(tmp_path, capsys):
    out = tmp_path / "f.xkf"
    code, stdout, _ = run_cli(SIM_ARGS + ["--out", str(out)], capsys)
    assert code == 0
    # header (magic + dim + 2 sizes + spacing) plus 64^2 doubles
    assert out.stat().st_size == 24 + 64 * 64 * 8
    assert "# model=gaussian" in stdout
    assert "# seed=7" in stdout
    stats = _summary_stats(stdout)
    assert set(stats) == {"mean", "variance", "min", "max"}
    assert stats["min"] <= stats["mean"] <= stats["max"]
    field = read_field(out)
    assert field.values.shape == (64, 64)
    assert field.values.mean() == pytest.approx(stats["mean"])


def test_simulate_is_byte_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.xkf", tmp_path / "b.xkf"
    assert run_cli(SIM_ARGS + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(SIM_ARGS + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_chisq_is_nonnegative(tmp_path, capsys):
    out = tmp_path / "c.xkf"
    argv = [
        "simulate", "--model", "chisq:5", "--shape", "64,64",
        "--spacing", "0.0078125", "--lambda2", "200", "--seed", "3",
        "--out", str(out),
    ]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert _summary_stats(stdout)["min"] >= 0.0
    assert read_field(out).values.min() >= 0.0


def test_simulate_bad_model_is_usage_error(tmp_path, capsys):
    argv = [
        "simulate", "--model", "nope", "--shape", "8,8", "--spacing", "0.1",
        "--lambda2", "20", "--seed", "1", "--out", str(tmp_path / "x.xkf"),
    ]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "unknown model" in err


def test_simulate_embedding_failure_is_numeric_error(tmp_path, capsys):
    # tiny grid of a smooth field: the torus wrap cannot be made
    # nonnegative definite within the padding cap
    argv = [
        "simulate", "--model", "gaussian", "--shape", "4,4", "--spacing", "0.05",
        "--lambda2", "20", "--seed", "1", "--out", str(tmp_path / "x.xkf"),
    ]
    with pytest.warns(UserWarning):
        code = main(argv)
    assert code == 4
    assert "eigenvalue" in capsys.readouterr().err


def test_simulate_unwritable_path_is_data_error(tmp_path, capsys):
    argv = SIM_ARGS + ["--out", str(tmp_path / "no" / "such" / "dir" / "f.xkf")]
    code, _, err = run_cli(argv, capsys)
    assert code == 3


@pytest.mark.parametrize("flag, value", [("--out", "two\nlines.xkf"), ("--model", "chisq:5\n")])
def test_simulate_refuses_an_echo_that_would_not_read_back(tmp_path, capsys, flag, value):
    # the echo is checked before a field is drawn: a usage error, no file left
    argv = SIM_ARGS + ["--out", str(tmp_path / "f.xkf")]
    argv[argv.index(flag) + 1] = str(tmp_path / value) if flag == "--out" else value
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert f"curve metadata {flag[2:]!r} would not read back" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# ec-curve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "f.xkf"
    cov = CovarianceModel(variance=1.0, lambda2=200.0)
    from xkit.fields import GaussianModel

    field = simulate_model(GaussianModel(cov=cov), (64, 64), 0.0078125, seed=7)
    write_field(field, path)
    return path


def test_ec_curve_endpoint_rows(field_file, capsys):
    code, stdout, _ = run_cli(
        ["ec-curve", "--field", str(field_file), "--levels=-20:20:20"], capsys
    )
    assert code == 0
    rows = [ln for ln in stdout.strip().split("\n") if not ln.startswith("#")][1:]
    first, last = rows[0].split(","), rows[-1].split(",")
    assert first[1] == "1"  # level below every site: the set is the whole grid
    assert last[1] == "0"  # level above every site: the set is empty
    assert rows[0].endswith("empirical")


def test_ec_curve_stdout_matches_file(field_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        ["ec-curve", "--field", str(field_file), "--levels=-3:3:0.5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    code2, stdout2, _ = run_cli(
        ["ec-curve", "--field", str(field_file), "--levels=-3:3:0.5"], capsys
    )
    assert code2 == 0
    assert stdout2 == out.read_text()
    curve = read_ec_csv(out)
    assert curve.kind == "empirical"
    assert curve.meta["source"] == str(field_file)
    assert curve.meta["levels"] == "-3:3:0.5"
    assert curve.meta["shape"] == "64x64"


def test_ec_curve_refuses_a_source_that_would_not_read_back(field_file, tmp_path, capsys):
    # a path with a line break cannot sit in a CSV comment: a usage error that
    # names the metadata key, and no curve file left behind
    odd = tmp_path / "two\nlines.xkf"
    odd.write_bytes(field_file.read_bytes())
    out = tmp_path / "curve.csv"
    code, stdout, err = run_cli(
        ["ec-curve", "--field", str(odd), "--levels=0:1:0.5", "--out", str(out)], capsys
    )
    assert code == 2 and stdout == ""
    assert "curve metadata 'source'" in err
    assert not out.exists()


def test_ec_curve_refuses_a_source_utf8_cannot_encode(field_file, tmp_path, capsys):
    # a non-UTF-8 byte in a path arrives as a lone surrogate, which the UTF-8
    # CSV cannot hold: refused by key before the curve file is opened
    odd = tmp_path / "g\udcff.xkf"
    odd.write_bytes(field_file.read_bytes())
    out = tmp_path / "curve.csv"
    code, stdout, err = run_cli(
        ["ec-curve", "--field", str(odd), "--levels=0:1:0.5", "--out", str(out)], capsys
    )
    assert code == 2 and stdout == ""
    assert "curve metadata 'source' would not read back" in err
    assert not out.exists()


def test_ec_curve_refuses_a_four_dimensional_field(tmp_path, capsys):
    path = tmp_path / "f4.xkf"
    write_field(LatticeField(values=np.zeros((2, 2, 2, 2)), spacing=0.1), path)
    code, stdout, err = run_cli(["ec-curve", "--field", str(path), "--levels=0:1:0.5"], capsys)
    assert code == 2 and stdout == ""
    assert err == (
        "error: unsupported dimension 4: Euler characteristics are implemented "
        "for 1 to 3 dimensions\n"
    )


def test_ec_curve_bad_step_is_usage_error(field_file, capsys):
    code, _, err = run_cli(
        ["ec-curve", "--field", str(field_file), "--levels=0:1:0"], capsys
    )
    assert code == 2
    assert "step" in err


def test_eec_non_finite_or_oversized_level_grid_names_the_flag(capsys):
    # numpy cannot size these grids; the refusal names the flag and the grid
    for grid, reason in (
        ("0:inf:1", "non-finite hi"),
        ("nan:1:1", "non-finite lo"),
        ("0:1:inf", "non-finite step"),
        ("0:1e300:1e-300", "too many levels"),
    ):
        code, stdout, err = run_cli(
            ["eec", "--model", "gaussian", "--cube", "1", "--dim", "2",
             "--lambda2", "200", f"--levels={grid}"],
            capsys,
        )
        assert code == 2 and stdout == ""
        assert f"--levels grid {grid!r}" in err and reason in err, err


def test_a_level_grid_too_large_to_allocate_is_a_usage_error(field_file, capsys):
    # 1e15 + 1 levels, 8 PB: more than a 48-bit address space can map, so
    # the allocation fails at once and touches no memory
    grid = "0:1e15:1"
    for argv in (
        ["eec", "--model", "gaussian", "--lambda2", "100", "--cube", "1", "--dim", "2"],
        ["ec-curve", "--field", str(field_file)],
        ["identify", "--field", str(field_file), "--estimate-moments", "--candidates", "gaussian"],
    ):
        code, stdout, err = run_cli(argv + [f"--levels={grid}"], capsys)
        assert code == 2 and stdout == "", (argv[0], err)
        assert f"--levels grid {grid!r} has too many levels" in err, err


def test_ec_curve_zero_length_axis_is_format_error(tmp_path, capsys):
    empty = tmp_path / "empty.xkf"
    header = np.array([2, 4, 0], "<u4").tobytes() + np.array([0.1], "<f8").tobytes()
    empty.write_bytes(b"XKF1" + header)  # a 4 x 0 grid: dimension, sizes, spacing
    code, stdout, err = run_cli(["ec-curve", "--field", str(empty), "--levels=0:1:0.5"], capsys)
    assert (code, stdout) == (3, "")
    assert f"{empty}: empty grid (4, 0)" in err


def test_ec_curve_malformed_field_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.xkf"
    bad.write_bytes(b"not a field at all")
    code, _, err = run_cli(["ec-curve", "--field", str(bad), "--levels=0:1:0.5"], capsys)
    assert code == 3
    assert "magic" in err
    code, _, _ = run_cli(
        ["ec-curve", "--field", str(tmp_path / "missing.xkf"), "--levels=0:1:0.5"], capsys
    )
    assert code == 3


# ---------------------------------------------------------------------------
# eec
# ---------------------------------------------------------------------------

def test_eec_matches_library_closed_form(tmp_path, capsys):
    out = tmp_path / "eec.csv"
    argv = [
        "eec", "--model", "gaussian", "--cube", "1", "--dim", "2",
        "--lambda2", "200", "--levels=-5:5:0.1", "--out", str(out),
    ]
    assert run_cli(argv, capsys)[0] == 0
    curve = read_ec_csv(out)
    expected = expected_ec_gaussian_rectangle(SQUARE, 1.0, 200.0, curve.levels)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert curve.kind == "expected"
    assert curve.meta["model"] == "gaussian"
    assert curve.meta["levels"] == "-5:5:0.1"


SQUARE = Rectangle((1.0, 1.0))


def test_eec_two_dim_panel_shape(capsys):
    code, stdout, _ = run_cli(
        ["eec", "--model", "gaussian", "--cube", "1", "--dim", "2",
         "--lambda2", "200", "--levels=-5:5:0.1"],
        capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in stdout.strip().split("\n") if not ln.startswith(("#", "u,"))]
    levels = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    # one negative dip below zero, one positive peak, limits 1 and 0
    assert values.min() < -3.0 and -2.0 < levels[values.argmin()] < 0.0
    assert values.max() > 8.0 and 0.0 < levels[values.argmax()] < 2.0
    # at |u|=5 the lambda2=200 polynomial terms still carry ~2e-4
    assert values[0] == pytest.approx(1.0, abs=1e-3)
    assert values[-1] == pytest.approx(0.0, abs=1e-3)


def test_eec_three_dim_value_at_zero(capsys):
    code, stdout, _ = run_cli(
        ["eec", "--model", "gaussian", "--cube", "1", "--dim", "3",
         "--lambda2", "880", "--levels=0:0:1"],
        capsys,
    )
    assert code == 0
    row = [ln for ln in stdout.strip().split("\n") if not ln.startswith(("#", "u,"))][0]
    assert float(row.split(",")[1]) == pytest.approx(-646.58395, abs=1e-4)


def test_eec_chisq_qualitative_shape(capsys):
    code, stdout, _ = run_cli(
        ["eec", "--model", "chisq:5", "--cube", "1", "--dim", "3",
         "--lambda2", "20", "--levels=0.15:15:0.15"],
        capsys,
    )
    assert code == 0
    rows = [ln for ln in stdout.strip().split("\n") if not ln.startswith(("#", "u,"))]
    levels = np.array([float(r.split(",")[0]) for r in rows])
    values = np.array([float(r.split(",")[1]) for r in rows])
    # Worsley's (1994) chi^2_5 EC densities on the unit cube, L = (1, 3, 3, 1)
    e = np.exp(-0.5 * levels) / (2.0 ** 1.5 * math.gamma(2.5))
    two_pi = 2.0 * math.pi
    rho = [
        stats.chi2(5).sf(levels),
        levels**2 * e / math.sqrt(two_pi),
        levels**1.5 * e * (levels - 4.0) / two_pi,
        levels * e * (levels**2 - 9.0 * levels + 12.0) / two_pi**1.5,
    ]
    want = sum(c * 20.0 ** (j / 2.0) * rho[j] for j, c in enumerate((1.0, 3.0, 3.0, 1.0)))
    np.testing.assert_allclose(values, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
    signs = np.sign(np.diff(values))
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    assert len(flips) == 3  # cavities' bump, handles' dip, blobs' bump, then decay
    assert values.min() < 0.0 < values[-1]


def test_eec_beyond_closed_form_order_is_capability_error(capsys):
    code, _, err = run_cli(
        ["eec", "--model", "t:5", "--sides", "1,1,1,1", "--lambda2", "20", "--levels=0:1:1"],
        capsys,
    )
    assert code == 4
    assert "order 3" in err


@pytest.mark.parametrize("model, lambda2, cube, dim, levels, want", [
    ("gaussian", "1e308", "1e10", "3", "--levels=0:1:0.5", 2),  # an overflowed curvature
    ("f:3:5", "100", "1", "2", "--levels=1e-17:1:0.5", 0),  # a level below machine epsilon
])
def test_eec_exits_without_a_runtime_warning(capsys, model, lambda2, cube, dim, levels, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["eec", "--model", model, "--lambda2", lambda2, "--cube", cube,
                                "--dim", dim, levels], capsys)
    assert code == want and "encountered" not in err


def test_eec_order_flag_emits_curvature(capsys):
    code, stdout, _ = run_cli(
        ["eec", "--model", "gaussian", "--cube", "1", "--dim", "2",
         "--lambda2", "200", "--levels=0:0:1", "--order", "2"],
        capsys,
    )
    assert code == 0
    row = [ln for ln in stdout.strip().split("\n") if not ln.startswith(("#", "u,"))][0]
    # E L_2 at u=0 is the metric area times the half tail mass: 200 * 0.5
    assert float(row.split(",")[1]) == pytest.approx(100.0, rel=1e-12)
    assert "# order=2" in stdout


def test_eec_gaussianised_needs_sim_shape(capsys):
    base = ["eec", "--model", "gchisq:3", "--cube", "0.8", "--dim", "2",
            "--lambda2", "100", "--levels=-1:1:0.5"]
    code, _, err = run_cli(base, capsys)
    assert code == 2
    assert "sim_shape" in err
    code, _, err = run_cli(base + ["--sim-shape", "17,17", "--order", "1"], capsys)
    assert code == 4
    assert "order 0" in err


def test_eec_gaussianised_simulation_average(capsys):
    expectations_mod._simulation_average.cache_clear()
    code, stdout, _ = run_cli(
        ["eec", "--model", "gchisq:3", "--cube", "0.8", "--dim", "2",
         "--lambda2", "100", "--levels=-1:1:0.5", "--sim-shape", "17,17",
         "--sim-reps", "3"],
        capsys,
    )
    assert code == 0
    assert "# sim_shape=17x17" in stdout
    assert "# sim_reps=3" in stdout
    assert "# model=gaussianised-chisq:3" in stdout


def test_eec_gaussianised_needs_a_realisation(capsys):
    # the rule is the same on every route, though a closed form draws nothing
    for model in ("gchisq:3", "gaussian"):
        code, stdout, err = run_cli(
            ["eec", "--model", model, "--cube", "0.8", "--dim", "2",
             "--lambda2", "100", "--levels=-1:1:0.5", "--sim-shape", "17,17",
             "--sim-reps", "0"],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert "sim_reps must be >= 1, got 0" in err


def test_eec_sim_shape_is_checked_on_every_route(capsys):
    # a closed form draws nothing, but a lattice that does not fit is refused
    for model in ("gchisq:3", "gaussian"):
        for shape, message in (("5", "sim_shape (5,) does not fit a 2-d domain"),
                               ("17,1", "sim_shape (17, 1) does not fit a 2-d domain")):
            code, stdout, err = run_cli(
                ["eec", "--model", model, "--cube", "1", "--dim", "2", "--lambda2", "100",
                 "--levels", "0:1:0.5", "--sim-shape", shape],
                capsys,
            )
            assert (code, stdout) == (2, "")
            assert message in err


def test_chisq_large_degrees_of_freedom(capsys):
    domain = ["--model", "chisq:400", "--cube", "1", "--dim", "2", "--lambda2", "20"]
    code, stdout, _ = run_cli(["eec", *domain, "--levels=300:600:5"], capsys)
    assert code == 0
    rows = [ln for ln in stdout.strip().split("\n") if not ln.startswith(("#", "u,"))]
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert values.size == 61 and np.all(np.isfinite(values))
    code, stdout, _ = run_cli(["threshold", *domain, "--alpha", "0.05"], capsys)
    assert code == 0
    assert abs(float(_parse_threshold(stdout)["eec_at_u"]) - 0.05) <= 1e-10


def test_eec_domain_flag_validation(capsys):
    code, _, err = run_cli(
        ["eec", "--model", "gaussian", "--lambda2", "200", "--levels=0:1:0.5"], capsys
    )
    assert code == 2
    assert "domain" in err
    code, _, err = run_cli(
        ["eec", "--model", "gaussian", "--lambda2", "200", "--levels=0:1:0.5",
         "--cube", "1", "--dim", "2", "--sides", "1,1"],
        capsys,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

def test_unit_variance_models_echo_the_variance_they_use(tmp_path, capsys):
    # chi-square, t, F and gaussianised models force unit-variance components
    base = ["threshold", "--lambda2", "20", "--cube", "1", "--dim", "2", "--alpha", "0.05"]
    code, unit, _ = run_cli(base + ["--model", "chisq:5"], capsys)
    assert code == 0 and "# variance=1.0" in unit
    assert run_cli(base + ["--model", "chisq:5", "--variance", "4"], capsys) == (0, unit, "")
    code, stdout, _ = run_cli(base + ["--model", "gaussian", "--variance", "4"], capsys)
    assert code == 0 and "# variance=4.0" in stdout
    sim = ["simulate", "--model", "chisq:3", "--shape", "64,64", "--spacing", "0.0078125",
           "--lambda2", "200", "--seed", "3"]
    a, b = tmp_path / "a.xkf", tmp_path / "b.xkf"
    code, stdout, _ = run_cli(sim + ["--out", str(a)], capsys)
    assert code == 0 and "# variance=1.0" in stdout
    code, stdout, _ = run_cli(sim + ["--variance", "4", "--out", str(b)], capsys)
    assert code == 0 and "# variance=1.0" in stdout
    assert a.read_bytes() == b.read_bytes()


def _parse_threshold(stdout: str) -> dict:
    values = {}
    for line in stdout.strip().split("\n"):
        if line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        values[key] = value
    return values


def test_threshold_reproduces_bisection_value(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, stdout, _ = run_cli(
        ["threshold", "--model", "gaussian", "--cube", "1", "--dim", "2",
         "--lambda2", "200", "--alpha", "0.05", "--json", str(out)],
        capsys,
    )
    assert code == 0
    text = _parse_threshold(stdout)
    assert float(text["u_star"]) == pytest.approx(3.727106440805648, abs=1e-8)
    assert abs(float(text["eec_at_u"]) - 0.05) <= 1e-10
    assert float(text["error_bound"]) > 0.0
    record = json.loads(out.read_text())
    assert record["u_star"] == float(text["u_star"])
    assert record["alpha"] == 0.05


def test_threshold_unwritable_json_prints_nothing(tmp_path, capsys):
    code, stdout, _ = run_cli(
        ["threshold", "--model", "gaussian", "--cube", "1", "--dim", "2", "--lambda2", "100",
         "--alpha", "0.05", "--json", str(tmp_path / "missing" / "t.json")],
        capsys,
    )
    assert (code, stdout) == (3, "")


def test_threshold_alpha_ordering(capsys):
    def u_star(alpha):
        code, stdout, _ = run_cli(
            ["threshold", "--model", "gaussian", "--cube", "1", "--dim", "2",
             "--lambda2", "200", "--alpha", alpha],
            capsys,
        )
        assert code == 0
        return float(_parse_threshold(stdout)["u_star"])

    assert u_star("0.4") < u_star("0.01")


@pytest.mark.parametrize("model, dim", [("t:5", "3"), ("f:2:3", "2"), ("f:3:4", "3")])
def test_heavy_tailed_threshold_solves(model, dim, capsys):
    code, stdout, _ = run_cli(
        ["threshold", "--model", model, "--cube", "1", "--dim", dim,
         "--lambda2", "100", "--alpha", "0.05"],
        capsys,
    )
    assert code == 0
    assert abs(float(_parse_threshold(stdout)["eec_at_u"]) - 0.05) <= 1e-10


@pytest.mark.parametrize("model, dim", [("t:3", "2"), ("t:4", "3")])
def test_threshold_of_a_flattening_curve_is_a_numeric_error(model, dim, capsys):
    code, stdout, err = run_cli(
        ["threshold", "--model", model, "--cube", "1", "--dim", dim,
         "--lambda2", "100", "--alpha", "0.05"],
        capsys,
    )
    assert code == 4
    assert stdout == ""
    assert "never falls below alpha" in err


def test_threshold_alpha_out_of_range(capsys):
    code, _, err = run_cli(
        ["threshold", "--model", "gaussian", "--cube", "1", "--dim", "2",
         "--lambda2", "200", "--alpha", "0.7"],
        capsys,
    )
    assert code == 2
    assert "alpha" in err


def test_threshold_gaussianised_capability_error(capsys):
    code, _, err = run_cli(
        ["threshold", "--model", "gchisq:3", "--cube", "1", "--dim", "2",
         "--lambda2", "100", "--alpha", "0.05"],
        capsys,
    )
    assert code == 4


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("identify") / "g.xkf"
    from xkit.fields import GaussianModel

    cov = CovarianceModel(variance=1.0, lambda2=200.0)
    field = simulate_model(GaussianModel(cov=cov), (128, 128), 0.0078125, seed=42)
    write_field(field, path)
    return path


def test_identify_prefers_generating_model(gaussian_field_file, capsys):
    code, stdout, _ = run_cli(
        ["identify", "--field", str(gaussian_field_file), "--levels=-3:3:0.25",
         "--candidates", "gaussian,chisq:5", "--lambda2", "200"],
        capsys,
    )
    assert code == 0
    rows = [ln.split() for ln in stdout.strip().split("\n")[-2:]]
    assert rows[0][0] == "gaussian"
    assert float(rows[0][1]) < float(rows[1][1])


def test_identify_with_estimated_moments(gaussian_field_file, capsys):
    code, stdout, _ = run_cli(
        ["identify", "--field", str(gaussian_field_file), "--levels=-3:3:0.25",
         "--candidates", "gaussian,chisq:5", "--estimate-moments"],
        capsys,
    )
    assert code == 0
    assert "# moments=estimated" in stdout
    rows = [ln.split() for ln in stdout.strip().split("\n")[-2:]]
    assert rows[0][0] == "gaussian"


def test_identify_single_candidate(gaussian_field_file, capsys):
    code, stdout, _ = run_cli(
        ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
         "--candidates", "gaussian", "--lambda2", "200"],
        capsys,
    )
    assert code == 0
    table = stdout.strip().split("\n")
    assert table[-2] == "model discrepancy"
    assert table[-1].startswith("gaussian ")


def test_identify_candidate_list_errors(gaussian_field_file, capsys):
    code, _, err = run_cli(
        ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
         "--candidates", "", "--lambda2", "200"],
        capsys,
    )
    assert code == 2
    assert "empty" in err
    code, _, err = run_cli(
        ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
         "--candidates", "gaussian,weird:2", "--lambda2", "200"],
        capsys,
    )
    assert code == 2
    assert "unknown model" in err


@pytest.mark.parametrize("flag", ["--field", "--levels"])
def test_identify_refuses_an_echo_that_would_not_read_back(
    gaussian_field_file, tmp_path, capsys, flag
):
    odd = tmp_path / "two\nlines.xkf"
    odd.write_bytes(gaussian_field_file.read_bytes())
    argv = ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
            "--candidates", "gaussian", "--lambda2", "200"]
    if flag == "--field":
        argv[2] = str(odd)
    else:
        argv[3] = "--levels=-2:2\n:0.5"
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert f"curve metadata {flag[2:]!r} would not read back" in err


def test_identify_echoes_the_variance_and_realisations_it_used(gaussian_field_file, capsys):
    # both change the discrepancies, so both are in the echo; under
    # --estimate-moments the variance is the estimate
    base = ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
            "--candidates", "gaussian"]

    def echo(*extra):
        code, stdout, _ = run_cli(base + list(extra), capsys)
        assert code == 0
        return [ln for ln in stdout.split("\n") if ln.startswith("#")]

    plain = echo("--lambda2", "200")
    assert plain[-2:] == ["# variance=1.0", "# sim_reps=20"]
    assert echo("--lambda2", "200", "--sim-reps", "3") != plain
    assert echo("--lambda2", "200", "--variance", "2") != plain
    _, variance = estimate_spectral_moments(read_field(gaussian_field_file))
    assert f"# variance={variance!r}" in echo("--estimate-moments")


def test_identify_moment_flags_are_exclusive(gaussian_field_file, capsys):
    base = ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
            "--candidates", "gaussian"]
    assert run_cli(base, capsys)[0] == 2  # neither source of moments
    assert run_cli(base + ["--lambda2", "200", "--estimate-moments"], capsys)[0] == 2


# ---------------------------------------------------------------------------
# config files, jobs, entry point
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# an eec run\nmodel=gaussian\nlambda2=200\ncube=1\ndim=2\nlevels=-1:1:0.5\n"
    )
    code, stdout, _ = run_cli(["eec", "--config", str(cfg)], capsys)
    assert code == 0
    assert "# lambda2=200.0" in stdout
    code, stdout, _ = run_cli(["eec", "--config", str(cfg), "--lambda2", "880"], capsys)
    assert code == 0
    assert "# lambda2=880.0" in stdout
    # the file's tokens go after the subcommand wherever --config stands
    assert run_cli(["--config", str(cfg), "eec", "--lambda2", "880"], capsys) == (0, stdout, "")


def test_config_boolean_key(gaussian_field_file, tmp_path, capsys):
    cfg = tmp_path / "id.cfg"
    cfg.write_text(
        f"field={gaussian_field_file}\nlevels=-2:2:0.5\ncandidates=gaussian\n"
        "estimate_moments=true\n"
    )
    code, stdout, _ = run_cli(["identify", "--config", str(cfg)], capsys)
    assert code == 0
    assert "# moments=estimated" in stdout


def test_config_boolean_key_off_and_refused(gaussian_field_file, tmp_path, capsys):
    cfg = tmp_path / "id.cfg"
    common = f"field={gaussian_field_file}\nlevels=-2:2:0.5\ncandidates=gaussian\n"
    cfg.write_text(common + "lambda2=200\nestimate-moments=false\n")
    code, stdout, _ = run_cli(["identify", "--config", str(cfg)], capsys)
    assert code == 0
    assert "# moments=lambda2=200.0" in stdout
    cfg.write_text(common + "estimate-moments=maybe\n")
    code, stdout, err = run_cli(["identify", "--config", str(cfg)], capsys)
    assert (code, stdout) == (2, "")
    assert f"{cfg}:4: estimate-moments must be a boolean, got 'maybe'" in err


def test_a_config_file_naming_another_is_refused_by_file_and_line(tmp_path, capsys):
    # the key is written in full, inside the file: not a command-line abbreviation
    other = tmp_path / "other.txt"
    other.write_text("levels=-1:1:0.5\n")
    nest = tmp_path / "nest.txt"
    nest.write_text(f"# nested\nconfig={other}\n")
    code, stdout, err = run_cli(["identify", "--config", str(nest)], capsys)
    assert (code, stdout) == (2, "")
    assert f"{nest}:2: a config file cannot name another config file" in err
    # a key argparse would expand to --config is the same key
    for command, key in (("eec", "conf"), ("identify", "conf"), ("simulate", "c")):
        nest.write_text(f"{key}={other}\n")
        code, stdout, err = run_cli([command, "--config", str(nest)], capsys)
        assert (code, stdout) == (2, "")
        assert f"{nest}:1: a config file cannot name another config file" in err


def test_config_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code, _, _ = run_cli(["eec", "--config", str(missing)], capsys)
    assert code == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    code, _, err = run_cli(["eec", "--config", str(bad)], capsys)
    assert code == 2
    assert "key=value" in err
    assert run_cli(["--config", str(bad)], capsys)[0] == 2  # no subcommand
    assert run_cli(["eec", "--config"], capsys)[0] == 2  # dangling flag


def test_config_line_with_an_empty_key_is_refused_by_file_and_line(tmp_path, capsys):
    # "=x" would become the token --=x, which argparse calls ambiguous
    cfg = tmp_path / "empty-key.cfg"
    for line in ("=x", " = 0.05", "="):
        cfg.write_text(f"# empty key\n{line}\n")
        code, stdout, err = run_cli(
            ["threshold", "--config", str(cfg), "--model", "gaussian", "--lambda2", "100",
             "--cube", "1", "--dim", "2", "--alpha", "0.05"],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert f"{cfg}:2: expected key=value, got {line.strip()!r}" in err
        assert "ambiguous" not in err


def test_abbreviated_config_is_refused_unread(tmp_path, capsys):
    # argparse would match --conf to the subcommand's --config and drop its value
    missing = tmp_path / "missing.cfg"
    for flag in ("--conf", "--confi"):
        code, stdout, err = run_cli(
            ["threshold", flag, str(missing), "--model", "gaussian", "--lambda2", "20",
             "--cube", "1", "--dim", "2", "--alpha", "0.05"],
            capsys,
        )
        assert (code, stdout) == (2, "")  # 3 had the file been opened
        assert "--config must be written out in full" in err


def test_every_subcommand_help_lists_config(capsys):
    for command in ("simulate", "ec-curve", "eec", "threshold", "identify"):
        code, stdout, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        assert "--config CONFIG" in stdout


GCHISQ_EEC = ["eec", "--model", "gchisq:3", "--cube", "0.8", "--dim", "2", "--lambda2", "100",
              "--levels=-1:1:0.5", "--sim-shape", "17,17", "--sim-reps", "3"]
GAUSSIAN_EEC = ["eec", "--model", "gaussian", "--lambda2", "20", "--cube", "1", "--dim", "2",
                "--levels", "0:1:0.5"]


def test_xkit_jobs_is_not_read(monkeypatch, capsys):
    # the worker count has one source, --jobs; the environment does not reach it
    for argv in (GAUSSIAN_EEC, GCHISQ_EEC):
        monkeypatch.delenv("XKIT_JOBS", raising=False)
        expectations_mod._simulation_average.cache_clear()
        unset = run_cli(argv, capsys)
        assert unset[0] == 0
        for value in ("abc", "0", "2"):
            monkeypatch.setenv("XKIT_JOBS", value)
            expectations_mod._simulation_average.cache_clear()
            assert run_cli(argv, capsys) == unset


def test_jobs_flag_gives_the_same_bytes_and_is_refused_by_name(gaussian_field_file, capsys):
    outputs = []
    for jobs in ("1", "2"):
        expectations_mod._simulation_average.cache_clear()
        code, stdout, _ = run_cli(GCHISQ_EEC + ["--jobs", jobs], capsys)
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1]  # worker count never changes the output
    identify = ["identify", "--field", str(gaussian_field_file), "--levels=-2:2:0.5",
                "--candidates", "gaussian", "--lambda2", "200"]
    for argv in (GAUSSIAN_EEC, GCHISQ_EEC, identify):  # the library's one refusal
        code, stdout, err = run_cli(argv + ["--jobs", "0"], capsys)
        assert (code, stdout, err) == (2, "", "error: jobs must be >= 1, got 0\n")


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "xkit.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "identify" in proc.stdout
