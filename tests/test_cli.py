"""Command-line interface, exercised through ``cli.main`` in this process.

A fresh interpreter is started only where the process is what is tested:
the module entry point's exit codes, runs that must end within a timeout,
and the import of scipy.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mrayleigh import cli
from mrayleigh.oracle import SPECTRAL_MAX_STEPS, TAU_R_MAX
from mrayleigh.series import AffineCoeffs, series_coefficients


def run_cli(*args):
    """``cli.main(args)`` as a finished process: its exit code, its stdout,
    and its stderr with every warning written there as Python would."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            code = cli.main(list(args))
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    return subprocess.CompletedProcess(["mrayleigh", *args], code, out.getvalue(),
                                       err.getvalue())


def spawn_cli(*args, timeout=None):
    """``python -m mrayleigh.cli`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "mrayleigh.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def test_the_module_entry_point_exits_with_the_code_main_returns():
    assert spawn_cli().returncode == 2
    assert spawn_cli("profile", "--quiet").returncode == 0
    assert spawn_cli("verify", "--tol", "1e-30", "--quiet").returncode == 1


def test_no_subcommand_is_a_usage_error():
    r = run_cli()
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_profile_emits_json_by_default():
    r = run_cli("profile", "--family", "quadrature", "--a", "1", "--b", "1",
                "--c", "1", "--K", "4", "--z0", "0", "--zmin", "-2",
                "--zmax", "2", "--n", "41")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["family"] == "quadrature"
    assert obj["params"]["K"] == 4.0
    assert obj["n"] == 41
    assert r.stderr.strip().startswith("quadrature: 41 samples")


def test_profile_csv_keeps_seventeen_digits():
    r = run_cli("profile", "--family", "vdp-explicit", "--a", "1", "--c", "1",
                "--d", "3", "--K", "1", "--zmin", "-5", "--zmax", "5",
                "--n", "200", "--format", "csv")
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[0] == ["z", "phi", "phi_prime"]
    assert rows[1][1] == "0.99997730080802205"
    # every value must round-trip exactly through its printed form
    for row in rows[1:5]:
        for cell in row:
            assert repr(float(cell)).strip("0") != ""
            assert float(cell) == float(repr(float(cell)))


def _per_row_csv(header, rows):
    """CSV as formatted one row at a time, fmt17 on each value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_csv_text_has_the_bytes_of_one_format_per_value():
    values = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 0.1,
              np.float64(1.0 / 3.0), np.int64(-7), 2**60 + 1, 3]
    payloads = [
        (["n", "alpha_n"], [[n, v] for n, v in enumerate(values)]),
        (["z", "phi", "phi_prime"], [values[i:i + 3] for i in range(len(values) - 2)]),
        (["z", "phi", "phi_prime"], np.column_stack([values[:4]] * 3).tolist()),
        (["x"], [[v] for v in values]),
        (["z", "phi", "phi_prime"], []),
    ]
    for header, rows in payloads:
        assert cli.csv_text(header, rows) == _per_row_csv(header, rows)


def _recursive_dumps(obj):
    """JSON as written one value at a time, fmt17 on each finite float."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(json.dumps(str(k)) + ":" + _recursive_dumps(obj[k])
                         for k in sorted(obj, key=str))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_recursive_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_dumps_has_the_bytes_of_the_recursive_writer(tmp_path, monkeypatch):
    floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1e308,
              -1e308, 0.1, 1.0 / 3.0, 1e-5, 1e16, 2.0**53 + 2]
    mixed = [np.float64(-0.0), np.float32(0.1), np.int64(-7), True, False,
             None, 3, 2**60 + 1, 'quote " slash \\ tab \t newline \n', "\u00e9\u2028\x00",
             np.float64(math.nan)]
    payloads = [
        floats, tuple(floats), [floats[i:i + 3] for i in range(len(floats) - 2)],
        [floats[i:i + 4] for i in range(0, 12, 4)], [[v] for v in floats],
        [[1.0, 2.0], [3.0]], [[1.0, 2.0], (3.0, 4.0)], [[], []], [], [[]], (),
        [1.0, 2], [1.0, np.float64(2.0)], [1.0, True], [1.0, None], [[1.0], [2]],
        {"z": {"b": [1.0, math.inf], "a": {"nested": [[0.5, -0.0], [math.nan, 2.0]]}},
         "labels": ["x", "t1"], 3: "int key", "flag": True, "none": None},
        {"mixed": mixed, "floats": floats, "alpha": np.arange(5.0), "grid": np.eye(2)},
    ]
    payloads += [[v] for v in mixed]
    for obj in payloads:
        assert cli.dumps(obj) == _recursive_dumps(obj), obj
    for bad in ([1.0, object()], [np.bool_(True)]):
        for writer in (cli.dumps, _recursive_dumps):
            with pytest.raises(TypeError, match="cannot serialize"):
                writer(bad)

    # the payloads that verify, series, decay and prolong hand to dumps
    captured = []

    def spy(obj):
        captured.append(obj)
        return _recursive_dumps(obj)

    orig = cli.dumps
    monkeypatch.setattr(cli, "dumps", spy)
    for i, args in enumerate([("verify", "--m", "3"), ("series", "--coeffs", "0,0,0,1,0,1"),
                              ("decay", "--family", "vdp-explicit", "--direction", "1,1"),
                              ("prolong", "--n-x", "16", "--n-t", "9")]):
        assert run_cli(*args, "--quiet", "--out", str(tmp_path / str(i))).returncode in (0, 1)
    assert len(captured) == 4
    for obj in captured:
        assert orig(obj) == _recursive_dumps(obj)


def test_format_both_requires_out():
    r = run_cli("profile", "--family", "arcsinh", "--a", "1", "--b", "1",
                "--c", "1", "--K", "1", "--format", "both")
    assert r.returncode == 2
    assert "--out" in r.stderr


def test_out_directory_names_files_and_is_deterministic(tmp_path):
    args = ("profile", "--family", "arcsinh", "--a", "1", "--b", "1",
            "--c", "1", "--K", "1", "--zmin", "-3", "--zmax", "3", "--n", "64")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert run_cli(*args, "--out", str(d1)).returncode == 0
    assert run_cli(*args, "--out", str(d2)).returncode == 0
    for name in ("profile.json", "profile.csv"):
        b1 = (d1 / name).read_bytes()
        assert b1 == (d2 / name).read_bytes()
        assert len(b1) > 0


def test_decay_out_writes_its_json_payload(tmp_path):
    r = run_cli("decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1",
                "--K", "1", "--direction", "1,1", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "decay.json").read_text())["ok"] is True
    assert not (tmp_path / "decay.csv").exists()


def test_series_profile_tracks_the_exponential():
    r = run_cli("profile", "--family", "series", "--coeffs", "0,0,0,1,0,1",
                "--alpha0", "0", "--alpha1", "1", "--N", "30",
                "--zmin", "-1", "--zmax", "1", "--n", "21", "--format", "csv")
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(io.StringIO(r.stdout)))[1:]
    for z_s, phi_s, _ in rows:
        z = float(z_s)
        assert abs(float(phi_s) - (1.0 - math.exp(-z))) <= 1e-8


def test_incompatible_family_parameters_exit_2():
    r = run_cli("profile", "--family", "arccosh", "--a", "1", "--b=-1",
                "--c", "1", "--K", "2")
    assert r.returncode == 2
    assert "c/b" in r.stderr


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"K": 4.0, "n": 11}))
    base = ("profile", "--family", "quadrature", "--a", "1", "--b", "1",
            "--c", "1", "--z0", "0", "--zmin", "-1", "--zmax", "1",
            "--config", str(cfg))
    r = run_cli(*base)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["params"]["K"] == 4.0

    r2 = run_cli(*base, "--K", "9")
    obj = json.loads(r2.stdout)
    assert obj["params"]["K"] == 9.0        # the flag wins
    assert obj["n"] == 11                   # config fills what flags left unset

    cfg.write_text(json.dumps({"bogus": 1}))
    r3 = run_cli(*base)
    assert r3.returncode == 2
    assert "unknown config keys: bogus" in r3.stderr


def test_verify_accepts_a_closed_form_profile():
    r = run_cli("verify", "--family", "arcsinh", "--a", "1", "--b", "1",
                "--c", "1", "--K", "1", "--zmin", "-4", "--zmax", "4",
                "--m", "2")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["verified"] is True
    checks = obj["checks"]
    assert checks["ode_analytic_max"] <= 1e-8
    assert checks["oracle_max_dev"] <= 1e-6
    assert checks["chain_ok"] is True
    # phi' = -w / sqrt(w^2 + 1) with w = e^{-z}: |phi'| < 0.05 once z > ln(1/0.05) ~ 2.995
    (lo, hi), n = obj["window"], obj["n"]
    zs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    assert checks["chain_skipped"] == sum(math.exp(-z) / math.hypot(math.exp(-z), 1.0) < 0.05
                                          for z in zs) > 0
    assert "verified" in r.stderr


def test_verify_accepts_an_arcsinh_draw_whose_xi_difference_failed_the_chain():
    # xi = phi'^-2 is about 390 where |phi'| nears 0.05 on this draw, and a
    # central difference of xi read its truncation h^2 xi'''/6, 2.2e-6 at
    # z = 2.1; stage 2 taken as stage 1 times -2/phi'^3 reads 5.4e-7 there
    r = run_cli("verify", "--family", "arcsinh", "--a", "0.78425191431726",
                "--b=0.6268455772835009", "--c", "1.678923919367434",
                "--K", "2.787347398901361")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["checks"]["chain_ok"] is True


def test_verify_passes_where_w_squared_overflows():
    # w = e^{-z} is finite on the window while w^2 and sqrt(c/b) w are not:
    # phi'' is written in 1/w there, so no residual is NaN and nothing warns
    r = run_cli("verify", "--family", "arcsinh", "--a", "1", "--b", "0.25", "--c", "1",
                "--K", "1", "--zmin", "-709.7", "--zmax", "-709.3", "--n", "5", "--m", "1",
                "--quiet")
    assert r.returncode == 0 and r.stderr == "", r.stderr
    checks = json.loads(r.stdout)["checks"]
    assert "nan" not in checks and checks["sweep_max"] == checks["ode_analytic_max"] == 0


def test_verify_stdout_is_reproducible():
    args = ("verify", "--family", "arccosh", "--a", "1", "--b", "1", "--c", "1",
            "--K", "2.718281828459045", "--zmin", "-4", "--zmax", "0.9",
            "--m", "2")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_square_relation_variants_disagree():
    base = ("verify", "--family", "vdp-implicit", "--a", "exp", "--c", "exp",
            "--d", "3", "--phi0", "0.70710678118654752", "--zmin", "-2",
            "--zmax", "0.2", "--m", "1")
    good = run_cli(*base, "--square-relation", "reciprocal")
    assert good.returncode == 0, good.stderr
    assert json.loads(good.stdout)["verified"] is True

    bad = run_cli(*base, "--square-relation", "direct")
    assert bad.returncode == 1
    obj = json.loads(bad.stdout)
    assert obj["verified"] is False
    # the fresh integration through the same data leaves the profile
    assert "oracle_note" in obj["checks"]
    assert obj["checks"]["oracle_max_dev"] is None   # json rendering of inf


def test_vdp_implicit_phi_second_solves_the_ode_on_the_default_window():
    # phi'' takes (d/a)' = -(c/a)(d/a) from the compatibility relation; a
    # central difference of d/a left 1.8e-9 here.  The run still exits 1 on
    # ode_fd_max, which differences phi' over the whole window
    base = ("verify", "--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3",
            "--phi0", "1")
    r = run_cli(*base)
    assert r.returncode == 1
    checks = json.loads(r.stdout)["checks"]
    assert checks["ode_analytic_max"] <= 1e-12 and checks["sweep_max"] <= 1e-12
    # the negative control's phi'' differentiates its own relation the same way
    r = run_cli(*base, "--square-relation", "direct")
    assert r.returncode == 1
    assert json.loads(r.stdout)["checks"]["ode_analytic_max"] >= 1e-2


# phases z = x - t1 - t2 on this grid reach arccosh's closed end z = 1,
# where phi' is singular
ENDPOINT_GRID = ("verify", "--family", "arccosh", "--K", "2.718281828459045", "--m", "2",
                 "--grid=-2:3:11", "--grid=0:0.5:4", "--grid=0:0.5:3")


def test_verify_grid_keeps_the_guard_band_of_a_closed_endpoint():
    # the window's default oracle tolerance misses by 3.75e-6 on arccosh
    # (ROADMAP item 2), a failure of its own
    r = run_cli(*ENDPOINT_GRID, "--oracle-tol", "1e-12")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["verified"] is True and obj["guard_dropped"] == 5
    assert max(x - t1 - t2 for x, t1, t2 in obj["report"]["points"]) <= 0.9
    r = run_cli(*ENDPOINT_GRID)
    assert r.returncode == 1
    checks = json.loads(r.stdout)["checks"]
    assert checks["sweep_max"] <= 1e-6 and checks["oracle_max_dev"] > 1e-6
    # the guard band does not rescue a profile that solves nothing
    r = run_cli("verify", "--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3",
                "--phi0", "0.70710678118654752", "--zmin", "-2", "--zmax", "0.2", "--m", "1",
                "--square-relation", "direct", "--grid=-2:0.4:9", "--grid=0:0.1:3")
    assert r.returncode == 1
    assert json.loads(r.stdout)["verified"] is False


def _sweep_reporting(monkeypatch, value):
    """Make verify's residual sweep report ``value`` as its first residual;
    the name patched is the one ``_cmd_verify`` resolves when it runs."""
    from mrayleigh import oracle
    from mrayleigh.geometry import ResidualReport

    sweep = oracle.residual_sweep

    def patched(*args, **kwargs):
        rep = sweep(*args, **kwargs)
        residuals = rep.residuals.copy()
        residuals[0] = value
        return ResidualReport.from_samples(rep.points, residuals, rep.labels)

    monkeypatch.setattr(oracle, "residual_sweep", patched)


def test_verify_names_a_nan_residual_as_its_failure(monkeypatch):
    _sweep_reporting(monkeypatch, math.nan)
    r = run_cli("verify", "--family", "arcsinh", "--m", "2")
    assert r.returncode == 1
    checks = json.loads(r.stdout)["checks"]
    assert checks["nan"] == ["sweep_max"] and checks["sweep_max"] is None
    assert "NaN in sweep_max" in r.stderr


def test_verify_fails_on_its_sweep_residual_alone(monkeypatch):
    # every other check of this default arcsinh run passes: the verdict
    # must read sweep_max
    assert run_cli("verify", "--family", "arcsinh", "--quiet").returncode == 0
    _sweep_reporting(monkeypatch, 10.0 * 1e-6)
    r = run_cli("verify", "--family", "arcsinh")
    assert r.returncode == 1, r.stderr
    obj = json.loads(r.stdout)
    assert obj["tol"] == 1e-6 and obj["verified"] is False
    checks = obj["checks"]
    assert checks["sweep_max"] == 10.0 * 1e-6 and "nan" not in checks
    others = ("ode_analytic_max", "ode_fd_max", "oracle_max_dev")
    assert checks["chain_ok"] is True and all(checks[k] <= obj["tol"] for k in others)
    assert "FAILED" in r.stderr


def test_series_subcommand_payload():
    r = run_cli("series", "--coeffs", "0,0,0,1,0,1", "--alpha0", "0",
                "--alpha1", "1", "--N", "8")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["N"] == 8 and len(obj["alpha"]) == 9
    assert abs(obj["radius_estimate"] - 2.993795165523909) <= 1e-12
    assert obj["alpha"][2] == -0.5


def test_series_overflow_exits_2_naming_the_first_bad_coefficient():
    r = run_cli("series", "--coeffs", "0,0,0,1,1,0", "--alpha1", "5", "--N", "2000")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "N = 2000" in r.stderr and "alpha_182 is not finite" in r.stderr
    assert "Warning" not in r.stderr


def test_series_with_too_short_a_tail_says_the_radius_is_inconclusive():
    # an inconclusive radius estimate is no radius; the payload says null
    r = run_cli("series", "--coeffs", "0,0,0,1,0,1", "--N", "1")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["radius_estimate"] is None
    assert "radius estimate inconclusive" in r.stderr


@pytest.mark.parametrize("N", ["1", "2"])
def test_series_inconclusive_radius_is_null_in_the_payload(N, tmp_path):
    args = ("series", "--coeffs", "0,0,0,1,1,1", "--N", N)
    r = run_cli(*args, "--out", str(tmp_path), "--format", "both")
    assert r.returncode == 0, r.stderr
    assert "radius estimate inconclusive" in r.stderr
    text = (tmp_path / "series.json").read_text()
    assert '"radius_estimate":null' in text and json.loads(text)["radius_estimate"] is None
    rows = (tmp_path / "series.csv").read_text().splitlines()
    assert rows[0] == "n,alpha_n" and len(rows) == int(N) + 2    # the CSV has no radius
    # the library's inconclusive radius is None too
    sol = series_coefficients(AffineCoeffs.from_sextuple((0, 0, 0, 1, 1, 1)), 0.0, 1.0, int(N))
    assert sol.radius_estimate is None


def test_decay_exit_codes_and_crossing():
    r = run_cli("decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1",
                "--K", "1", "--direction", "1,1")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["ok"] is True
    assert abs(obj["crossing_radius"] - 3.501750875437719) <= 1e-12

    plateau = run_cli("decay", "--family", "vdp-explicit", "--a", "1",
                      "--c", "1", "--d", "3", "--K", "1", "--direction", "1,0")
    assert plateau.returncode == 1
    obj = json.loads(plateau.stdout)
    assert obj["ok"] is False
    assert obj["limit_metadata"]["stated_limit"] == 1.0

    falls = run_cli("decay", "--family", "vdp-explicit", "--a", "1",
                    "--c", "1", "--d", "3", "--K", "1", "--direction=-1,0")
    assert falls.returncode == 0
    assert json.loads(falls.stdout)["limit_metadata"]["stated_limit"] == 0.0


@pytest.mark.parametrize("family", ["arcsinh", "arccosh"])
def test_arc_families_stay_finite_where_w_overflows(family):
    # w = K e^{-(c/a) z} overflows below z = -709.78, where phi = ln 2w - ...
    window = ("--zmin", "-800", "--zmax", "-700")
    r = run_cli("profile", "--family", family, *window, "--n", "3", "--format", "csv")
    assert r.returncode == 0 and "Warning" not in r.stderr, r.stderr
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert [float(row["phi"]) for row in rows] == [800.69314718055989, 750.69314718055989,
                                                   700.69314718055989]
    assert [float(row["phi_prime"]) for row in rows] == [-1.0] * 3

    r = run_cli("verify", "--family", family, *window, "--quiet")
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert json.loads(r.stdout)["verified"] is True

    r = run_cli("decay", "--family", family, "--direction", "1", "--threshold", "1e300")
    assert r.returncode == 0 and "Warning" not in r.stderr, r.stderr
    assert json.loads(r.stdout)["final_value"] == 1000.6931471805599


def test_quiet_silences_the_status_line():
    r = run_cli("profile", "--family", "arcsinh", "--a", "1", "--b", "1",
                "--c", "1", "--K", "1", "--quiet")
    assert r.returncode == 0
    assert r.stderr == ""
    json.loads(r.stdout)


def test_prolong_undamped_case_verifies():
    r = run_cli("prolong", "--epsilon", "0", "--m", "3", "--n-x", "128",
                "--n-t", "51")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["verified"] is True
    assert obj["m"] == 3
    assert obj["max_abs"] <= obj["tol"]
    assert obj["tau_r"] <= 1e-4


@pytest.mark.parametrize("family_args, name", [
    (("--family", "arcsinh", "--a", "nan", "--b", "1", "--c", "1", "--K", "1"), "a"),
    (("--family", "vdp-explicit", "--a", "1", "--c", "1", "--d", "3", "--K", "inf"), "K"),
    (("--family", "quadrature", "--a", "1", "--b", "1", "--c", "1", "--K", "inf"), "K"),
    (("--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3",
      "--k1", "nan", "--phi0", "1"), "k1"),
    (("--family", "quadrature", "--a", "nan", "--b", "1", "--c", "1", "--K", "4"), "a"),
])
def test_non_finite_profile_parameters_exit_2(family_args, name):
    r = run_cli("profile", *family_args, "--n", "3")
    assert r.returncode == 2, r.stdout
    assert f"{name} must be finite" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args, message", [
    (("series", "--coeffs", "0,0,0,1,nan,1"), "b_const must be finite"),
    (("series", "--coeffs", "0,0,0,1,1,0", "--alpha1", "inf"), "alpha1 must be finite"),
    (("verify", "--family", "stationary", "--a", "nan", "--b", "0"), "slope must be finite"),
    (("decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1", "--K", "1",
      "--direction", "nan,1"), "direction must be finite"),
    (("verify", "--family", "arcsinh", "--a", "1", "--b", "1", "--c", "1", "--K", "1",
      "--m", "1", "--grid", "nan:1:3", "--grid", "0:1:2"), "grid axis ends must be finite"),
    (("profile", "--zmin", "nan"), "zmin must be finite"),
    (("decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1", "--K", "1",
      "--direction", "1,1", "--x", "nan"), "x must be finite"),
    (("profile", "--family", "quadrature", "--a", "exp", "--b", "1", "--c", "nan",
      "--K", "4"), "c must be finite"),
    (("verify", "--tol", "nan"), "tol must be finite"),
    (("prolong", "--tol", "nan"), "tol must be finite"),
    (("verify", "--oracle-tol", "1e-3"), "--oracle-tol must lie in [1e-12, 0.0001]"),
    (("verify", "--oracle-tol", "nan"), "--oracle-tol must lie in [1e-12, 0.0001]"),
    (("verify", "--family", "stationary", "--a", "exp"),
     "--a must be a number for family stationary"),
    (("profile", "--family", "quadrature", "--z0", "20"),
     "anchor z0 must lie inside the requested domain"),
    (("profile", "--family", "quadrature", "--K", "-1"),
     "the radicand K - 2G is nonpositive at the anchor"),
    (("profile", "--family", "quadrature", "--zmin", "3", "--zmax", "1"),
     "domain must satisfy lo < hi"),
    (("profile", "--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3"),
     "phi0 (the anchor value at z0) is required"),
    (("profile", "--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3",
      "--phi0", "0"), "phi0 must be nonzero for the k1 = 0 branch"),
    (("profile", "--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3",
      "--k1", "0.5", "--phi0", "0.5"),
     "phi0 = k1 is the constant solution; the implicit branches exclude it"),
    (("profile", "--family", "vdp-explicit", "--a", "1", "--c", "1", "--d=-3", "--K", "0"),
     "constant radicand is nonpositive"),
    (("verify", "--family", "vdp-implicit", "--a", "exp", "--c", "exp", "--d", "3",
      "--k1", "0.25", "--phi0", "1", "--zmin", "-1.5", "--zmax", "0.5",
      "--square-relation", "direct"), "square_relation 'direct' exists only for k1 = 0"),
    (("verify", "--tol", "0"), "tol must be positive, got 0.0"),
    (("verify", "--tol", "-1"), "tol must be positive, got -1.0"),
    (("prolong", "--tol", "-1", "--n-x", "32", "--n-t", "11"), "tol must be positive, got -1.0"),
])
def test_non_finite_inputs_exit_2(args, message):
    r = run_cli(*args)
    assert r.returncode == 2, r.stdout
    assert message in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("flag, name", [("--epsilon", "epsilon"), ("--t-final", "t_final"),
                                        ("--amplitude", "amplitude")])
def test_prolong_rejects_a_non_finite_input_without_hanging(flag, name):
    # a NaN here once sent the time integrator into an endless loop; a
    # finite run of this size takes about a second
    r = spawn_cli("prolong", flag, "nan", "--n-x", "32", "--n-t", "11", timeout=30)
    assert r.returncode == 2
    assert f"{name} must be finite" in r.stderr


def test_prolong_past_the_step_budget_exits_2_naming_the_step_count():
    # the cubic damping turns stiff at this amplitude and the steps shrink
    # toward 1 / (eps v^2) without reaching the float-spacing floor
    r = spawn_cli("prolong", "--amplitude", "1e10", "--n-x", "32", "--n-t", "11", "--quiet",
                  timeout=30)
    assert r.returncode == 2
    assert f"{SPECTRAL_MAX_STEPS} accepted steps reached only t = " in r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert r.stdout == ""


def test_prolong_does_not_certify_a_solve_that_misses_its_accuracy_bound():
    # tau_r is 7.5 here, so 10 x tau_r alone would accept a residual of 75
    args = ("prolong", "--amplitude", "1e2", "--n-x", "32", "--n-t", "11")
    r = run_cli(*args)
    assert r.returncode == 1
    obj = json.loads(r.stdout)
    assert obj["verified"] is False
    assert obj["max_abs"] <= obj["tol"] and obj["tau_r"] > TAU_R_MAX
    assert r.stderr.startswith("FAILED: ")
    assert f"over its bound {TAU_R_MAX}" in r.stderr
    assert run_cli(*args, "--tol", "1e9", "--quiet").returncode == 1
    assert run_cli("prolong", "--n-x", "32", "--n-t", "11", "--quiet").returncode == 0


def test_prolong_overflow_is_an_error_without_warnings():
    r = run_cli("prolong", "--amplitude", "1e200", "--n-x", "32", "--n-t", "11", "--quiet")
    assert r.returncode == 2
    assert "time integration failed" in r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert r.stdout == ""


def test_decay_rejects_a_non_finite_horizon():
    r = run_cli("decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1",
                "--K", "1", "--direction", "1,1", "--horizon", "nan")
    assert r.returncode == 2
    assert "horizon must be finite and positive" in r.stderr


def test_series_profile_with_too_short_a_tail_exits_2():
    # N = 1 leaves no tail to estimate a radius from; phi = z must not be
    # offered on the whole line
    r = run_cli("profile", "--family", "series", "--coeffs", "0,0,0,1,1,0",
                "--alpha0", "0", "--alpha1", "1", "--N", "1")
    assert r.returncode == 2
    assert "radius estimate is inconclusive" in r.stderr


@pytest.mark.parametrize("args, message", [
    (("prolong", "--m", "0"), "argument --m: must be at least 1"),
    (("prolong", "--n-x", "0"), "argument --n-x: must be at least 1"),
    (("prolong", "--n-x", "32", "--n-t", "3"), "n_t at least 6"),
    (("verify", "--m", "1", "--grid", "0:1:3"), "--grid must be given m + 1 = 2 times"),
    (("profile", "--n", "0"), "argument --n: must be at least 1"),
    (("prolong", "--n-x", "2"), "--n-x must be at least 3"),
])
def test_out_of_range_counts_exit_2(args, message):
    r = run_cli(*args)
    assert r.returncode == 2, r.stdout
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("cmd, key, value", [
    ("profile", "format", "xml"),
    ("series", "method", "bogus"),
    ("profile", "quiet", "no"),
    ("profile", "n", "abc"),
])
def test_config_values_are_validated_like_flags(tmp_path, cmd, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    r = run_cli(cmd, "--coeffs", "0,0,0,1,0,1", "--config", str(cfg))
    assert r.returncode == 2, r.stdout
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_command_line_grid_replaces_the_config_grid(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": [[-1, 1, 3], [0, 1, 2]], "quiet": True}))
    base = ("verify", "--m", "1", "--config", str(cfg))
    r = run_cli(*base)
    assert r.returncode == 0 and r.stderr == ""         # quiet came from the config
    assert len(json.loads(r.stdout)["report"]["points"]) == 3 * 2
    r = run_cli(*base, "--grid=-1:1:4", "--grid", "0:1:3")
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["report"]["points"]) == 4 * 3


def test_config_null_leaves_the_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": None, "K": None, "zmin": None, "quiet": True}))
    r = run_cli("profile", "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli("profile").stdout
    assert json.loads(r.stdout)["n"] == 201


@pytest.mark.parametrize("args", [
    ("profile",),
    ("series", "--coeffs", "0,0,0,1,0,1"),
    ("decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1", "--K", "1",
     "--direction", "1,1"),
])
def test_tol_is_only_accepted_where_a_verdict_reads_it(args):
    assert run_cli(*args, "--quiet").returncode == 0
    r = run_cli(*args, "--tol", "1e-6")
    assert r.returncode == 2
    assert "unrecognized arguments: --tol" in r.stderr
    assert r.stdout == ""


def test_a_config_tol_is_unknown_to_series(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": 1e-6}))
    r = run_cli("series", "--coeffs", "0,0,0,1,0,1", "--config", str(cfg))
    assert r.returncode == 2
    assert "unknown config keys: tol" in r.stderr


def test_a_config_tol_must_be_positive(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": -1e-6}))
    r = run_cli("verify", "--config", str(cfg), "--quiet")
    assert r.returncode == 2
    assert "tol must be positive, got -1e-06" in r.stderr
    assert r.stdout == ""


def test_verify_and_prolong_read_tol():
    r = run_cli("verify", "--tol", "1e-6", "--quiet")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["tol"] == 1e-6
    assert run_cli("verify", "--tol", "1e-30", "--quiet").returncode == 1
    r = run_cli("prolong", "--tol", "1", "--n-x", "32", "--n-t", "11", "--quiet")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["tol"] == 1.0


def test_quadrature_with_an_overflowing_integrand_exits_2_without_warnings():
    args = ("profile", "--family", "quadrature", "--a", "exp", "--b", "1", "--c", "1",
            "--K", "4", "--quiet")
    r = run_cli(*args)
    assert r.returncode == 2
    assert "integrand not finite at z = " in r.stderr
    assert "on the window [-10.0, 10.0]" in r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert r.stdout == ""
    r = run_cli(*args, "--zmin", "-2", "--zmax", "2")
    assert r.returncode == 0, r.stderr


_IMPORT_PATH_SCRIPT = """
import sys
sys.modules["scipy"] = None             # any scipy import now raises
from mrayleigh import cli

out = sys.argv[1]
closed = ["--family", "arcsinh", "--a", "1", "--b", "1", "--c", "1", "--K", "1"]
def run(i, *args):
    return cli.main([*args, "--quiet", "--out", f"{out}/{i}"])

codes = [run(0, "profile", *closed),
         run(1, "series", "--coeffs", "0,0,0,1,0,1"),
         run(2, "decay", "--family", "arcsinh", "--a", "1", "--b=-1", "--c=-1",
             "--K", "1", "--direction", "1,1", "--format", "json"),
         run(3, "verify", "--family", "stationary", "--m", "1"),
         run(4, "verify", *closed, "--m", "1"),
         run(5, "prolong", "--n-x", "32", "--n-t", "11")]
assert codes == [0] * 6, codes
"""


def test_no_command_imports_scipy(tmp_path):
    # one cold process in which importing scipy fails: every command, the
    # integrating verify and prolong included, runs on numpy alone
    r = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "4" / "verify.json").read_text())["verified"] is True
    assert json.loads((tmp_path / "5" / "prolong.json").read_text())["verified"] is True


_LAZY_IMPORT_SCRIPT = """
import sys
from mrayleigh import cli

def loaded():
    return [m for m in ("mrayleigh.oracle", "mrayleigh.series", "numpy.ma", "numpy.polynomial")
            if m in sys.modules]

def run(i, *args):
    return cli.main([*args, "--quiet", "--out", f"{sys.argv[1]}/{i}"])

assert loaded() == [], loaded()
assert run(0, "profile", "--family", "vdp-explicit") == 0
assert loaded() == [], loaded()
assert run(1, "series", "--coeffs", "0,0,0,1,0,1") == 0
assert loaded() == ["mrayleigh.series"], loaded()
assert run(2, "profile", "--family", "quadrature", "--n", "5") == 0
assert loaded() == ["mrayleigh.series", "numpy.polynomial"], loaded()
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    # one cold process: importing the cli loads neither the oracle, nor the
    # series, nor numpy.polynomial, and each loads with the first command
    # that runs it; the series' radius estimate never loads numpy.ma
    r = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_SCRIPT, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


_DATACLASS_SCRIPT = _IMPORT_PATH_SCRIPT + """
import dataclasses
from mrayleigh.closed_form import soliton_arcsinh
from mrayleigh.coefficients import prolongation_structure

# every module of the package that the commands loaded, the series' included
assert {"mrayleigh.oracle", "mrayleigh.series"} <= set(sys.modules)
found = sorted(name for mod in list(sys.modules) if mod.startswith("mrayleigh.")
               for name, v in vars(sys.modules[mod]).items()
               if isinstance(v, type) and v.__module__ == mod and dataclasses.is_dataclass(v))
assert found == ["GeometricStructure", "ReducedCoeffs", "SolitonProfile"], found

prof = soliton_arcsinh(1.0, 1.0, 1.0, 1.0)
assert dataclasses.replace(prof, params={}).params == {}
assert dataclasses.replace(prof.coeffs, params=None).params is None
st = prolongation_structure(2, 0.5)
assert dataclasses.replace(st, gamma=None).h is st.h
"""


def test_only_the_replaced_types_stay_dataclasses(tmp_path):
    # one cold process that runs every command: the package defines three
    # dataclasses, the types that callers copy with dataclasses.replace; the
    # others are plain classes, which import without generated code
    r = subprocess.run([sys.executable, "-c", _DATACLASS_SCRIPT, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _parse_by(argv, parser, monkeypatch):
    """``run_cli(*argv)`` with every command replaced by one that returns 0,
    and the namespace each call was given; ``parser`` is "full" for the
    parser of all five subcommands, or "own" for the one that main builds."""
    seen = []

    def record(ns):
        seen.append({k: v for k, v in vars(ns).items() if k != "run"})
        return 0

    build = cli.build_parser
    with monkeypatch.context() as mp:
        for name in cli._SUBCOMMANDS:
            mp.setattr(cli, f"_cmd_{name}", record)
        if parser == "full":
            mp.setattr(cli, "build_parser", lambda cmd=None: build())
        r = run_cli(*argv)
    return r.returncode, r.stdout, r.stderr, seen


_ARGVS = {
    "profile": [[], ["--family", "quadrature", "--a", "exp", "--K", "4", "--zmin=-2", "--n", "5"],
                ["--lam", "1,2", "--square-relation", "direct", "--format", "csv", "--quiet"]],
    "verify": [[], ["--m", "2", "--grid", "0:1:3", "--grid", "0:1:2", "--grid", "0:1:2"],
               ["--family", "stationary", "--tol", "1e-3", "--oracle-tol", "1e-8", "--sigma=-1"]],
    "series": [[], ["--coeffs", "0,0,0,1,0,1", "--N", "5", "--alpha0", "0.5"]],
    "prolong": [[], ["--m", "3", "--n-x", "32", "--t-final", "0.5", "--tol", "1", "--grid-t", "3"]],
    "decay": [[], ["--direction", "1,1", "--x", "0.5", "--horizon", "10", "--out", "somewhere"]],
}
_CONFIGS = {"profile": {"family": "vdp-explicit", "n": 7, "quiet": True, "lam": [1, 2]},
            "verify": {"grid": [[-1, 1, 3], [0, 1, 2]], "square_relation": "direct", "tol": 1e-3},
            "series": {"coeffs": [0, 0, 0, 1, 0, 1], "N": 9},
            "prolong": {"n_x": 32, "n_t": 11, "t_final": 0.5},
            "decay": {"direction": [1.0, 1.0], "format": "json", "quiet": False}}


@pytest.mark.parametrize("cmd", list(_ARGVS))
def test_the_subcommand_parser_agrees_with_the_full_parser(cmd, tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_CONFIGS[cmd]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    argvs = [[cmd, *args] for args in _ARGVS[cmd]]
    argvs += [[cmd, "--config", str(cfg), *args] for args in _ARGVS[cmd]]
    # bad flags and values, which exit 2, and --help, which exits 0
    argvs += [[cmd, *args] for args in (["--bogus"], ["--n", "x"], ["--format", "xml"],
                                        ["stray"], ["--config"], ["--config", str(bad)],
                                        ["--help"])]
    # no subcommand, unknown ones, and flags before the subcommand
    argvs += [[], ["nope"], [cmd[:4]], ["--quiet", cmd], ["--", cmd], ["-h"]]
    for argv in argvs:
        full = _parse_by(argv, "full", monkeypatch)
        assert _parse_by(argv, "own", monkeypatch) == full, argv
        assert full[0] in (0, 2), argv
    # every valid line reached its command
    assert all(_parse_by(a, "own", monkeypatch)[3] for a in argvs[:2 * len(_ARGVS[cmd])])


def test_an_underflowing_vdp_explicit_rate_exits_2():
    # and a ratio -d/(3cK) that overflows, which leaves no finite edge to
    # place, and a rate 2c/a or c/a that overflows, which would make phi and
    # phi' NaN, and an arc amplitude or an offset d/(3c) that overflows, which
    # would leave phi or phi' infinite or NaN
    csv = ("--n", "5", "--format", "csv")
    for args, named in (
            (("vdp-explicit", "--a", "1e300", "--c", "1e-300", "--d=-3", "--K", "1"),
             "the rate 2c/a underflows to 0"),
            (("vdp-explicit", "--a=-3", "--c=-3", "--d", "1e300", "--K", "1e-300"),
             "the ratio -d/(3cK) overflows"),
            (("vdp-explicit", "--a", "1e-300", "--c", "1e300", "--d", "1", "--K", "1", *csv),
             "the rate 2c/a overflows"),
            (("arcsinh", "--a", "1e-300", "--b", "1", "--c", "1e300", "--K", "2", *csv),
             "the rate c/a overflows"),
            (("arccosh", "--a", "1e-300", "--b", "1", "--c", "1e300", "--K", "2", *csv),
             "the rate c/a overflows"),
            (("arcsinh", "--a", "1", "--b", "1e-300", "--c", "1e300", "--K", "2", *csv),
             "the amplitude (a/c) sqrt(g c/b) overflows"),
            (("arcsinh", "--a", "1e300", "--b", "1", "--c", "1e-300", "--K", "2", *csv),
             "the amplitude (a/c) sqrt(g c/b) overflows"),
            (("vdp-explicit", "--a", "1", "--c", "1e-300", "--d", "1e300", "--K", "1", *csv),
             "the offset d/(3c) overflows"),
            # 3c overflows, where d/(3c) would read 0 and phi' -inf
            (("vdp-explicit", "--a", "1", "--c", "7e307", "--d", "1e308", "--K", "1",
              "--zmin=-1e-306", "--zmax=-5e-307", "--n", "3", "--format", "csv"),
             "the offset d/(3c) cannot be formed: 3c overflows")):
        r = run_cli("profile", "--family", *args)
        assert r.returncode == 2, args
        assert named in r.stderr and r.stdout == ""


def test_prolong_verifies_at_a_fine_resolution():
    # this draw once failed at n_x = 512, n_t = 201 (residual 8.9e-6 against
    # a floor of 6.7e-7) while it verified at the default resolution
    r = run_cli("prolong", "--epsilon", "0.11717070442625105", "--amplitude",
                "0.10216610329852609", "--m", "3", "--n-x", "512", "--n-t", "201",
                "--quiet")
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["verified"] is True
    assert obj["max_abs"] <= 10.0 * obj["tau_r"]
    assert obj["tau_r"] <= 1e-4
