"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS or FAIL line with the measured numbers, then
asserts.  Run with -s to see the lines for passing tests too:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mrayleigh.closed_form import (
    soliton_arccosh,
    soliton_arcsin,
    soliton_arcsinh,
    soliton_quadrature,
    vdp_explicit,
    vdp_implicit,
    with_speed,
)
from mrayleigh.coefficients import (
    SpeedVector,
    constant_coeffs,
    constant_structure,
    general_coeffs,
    prolongation_structure,
    reduce,
    synthesize_structure,
)
from mrayleigh.geometry import (
    GridSpec,
    check_prolongation,
    check_reversibility,
    residual,
    stationary_solution,
    traveling_sine,
)
from mrayleigh.oracle import (
    decay_check,
    integrate_reduction,
    integrate_single_time_rayleigh,
    reduction_ode_residual,
    residual_sweep,
)
from mrayleigh.series import (
    AffineCoeffs,
    evaluate,
    series_coefficients,
    series_coefficients_triple_sum,
)

rng = np.random.default_rng(77)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _families():
    # one representative per construction, with a sampling window that
    # stays a safe margin inside the validity interval
    sq2 = 1.0 / math.sqrt(2.0)
    exp_co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    return [
        ("quadrature",
         soliton_quadrature(constant_coeffs(1.0, 1.0, b=1.0), K=4.0,
                            z0=0.0, domain=(-2.0, 2.0)),
         (-1.9, 1.9), (-1.5, 1.5)),
        ("arccosh", soliton_arccosh(1.0, 1.0, 1.0, math.e),
         (-4.0, 0.9), (-3.0, 0.5)),
        ("arcsinh", soliton_arcsinh(1.0, 1.0, 1.0, 1.0),
         (-4.0, 4.0), (-3.0, 3.0)),
        ("arcsin", soliton_arcsin(1.0, -1.0, 1.0, 1.0),
         (0.1, 10.0), (0.5, 4.0)),
        ("vdp-implicit",
         vdp_implicit(exp_co, k1=0.0, z0=0.0, phi0=sq2, domain=(-2.0, 2.0)),
         (-1.9, 1.9), (-1.5, 1.5)),
        ("vdp-explicit", vdp_explicit(1.0, 1.0, 3.0, 1.0),
         (-6.0, 6.0), (-3.0, 3.0)),
    ]


def test_criterion_1_closed_forms_satisfy_the_reduced_ode():
    worst_an, worst_fd, worst_name = 0.0, 0.0, ""
    for name, prof, (lo, hi), _ in _families():
        zs = np.linspace(lo, hi, 1000)
        an = reduction_ode_residual(prof.coeffs, prof, zs, "analytic").max_abs
        fd = reduction_ode_residual(prof.coeffs, prof, zs, "fd").max_abs
        if max(an / 1e-8, fd / 1e-6) > max(worst_an / 1e-8, worst_fd / 1e-6):
            worst_an, worst_fd, worst_name = an, fd, name
        assert an <= 1e-8, f"{name}: analytic residual {an}"
        assert fd <= 1e-6, f"{name}: fd residual {fd}"
    _report("closed-form families solve the reduced ODE", True,
            f"6 families x 1000 pts, worst {worst_name}: "
            f"analytic {worst_an:.2e} <= 1e-8, fd {worst_fd:.2e} <= 1e-6")


def test_criterion_2_multitime_lift_across_dimensions():
    worst = (0.0, "")
    for name, prof, _, (xlo, xhi) in _families():
        for m in (1, 2, 3):
            lam = SpeedVector(np.ones(m))
            lifted = with_speed(prof, lam)
            st = synthesize_structure(lifted.coeffs, m, lam)
            n_x = {1: 101, 2: 26, 3: 10}[m]
            n_t = {1: (100,), 2: (20, 20), 3: (11, 11, 11)}[m]
            grid = GridSpec((xlo, xhi, n_x),
                            tuple((0.0, 0.1, k) for k in n_t))
            assert grid.n_points() >= 10_000
            rep = residual_sweep(lifted, st, grid)
            if rep.max_abs > worst[0]:
                worst = (rep.max_abs, f"{name} m={m}")
            assert rep.max_abs <= 1e-6, f"{name} m={m}: {rep.max_abs}"
    _report("multitime lift verified for m in {1,2,3}", True,
            f"18 sweeps of >= 10^4 points, worst {worst[1]}: "
            f"{worst[0]:.2e} <= 1e-6")


def test_criterion_3_prolongation_of_single_time_solutions():
    # exact undamped traveling wave, prolonged to three times
    grid3 = GridSpec((0.0, 2.0 * math.pi, 9),
                     ((0.0, 1.0, 5), (0.0, 1.0, 3), (0.0, 1.0, 3)))
    rep0 = check_prolongation(traveling_sine(), prolongation_structure(3, 0.0),
                              grid=grid3)
    assert rep0.max_abs <= 1e-6, f"undamped: {rep0.max_abs}"

    # damped case: numerically integrated, residual bounded by the
    # single-time solver's own accuracy floor
    sol = integrate_single_time_rayleigh(0.1, lambda x: 0.1 * math.sin(x),
                                         lambda x: 0.0, 1.0)
    tau_r = sol.residual_estimate()
    assert tau_r <= 1e-4, f"tau_r {tau_r}"
    grid = GridSpec((0.0, 2.0 * math.pi, 25),
                    ((0.01, 0.99, 17), (0.0, 1.0, 1), (0.0, 1.0, 1)))
    rep1 = check_prolongation(sol.as_field(), prolongation_structure(3, 0.1),
                              grid=grid)
    assert rep1.max_abs <= 10.0 * tau_r, f"damped: {rep1.max_abs} vs {tau_r}"
    _report("prolongation to three times", True,
            f"undamped max {rep0.max_abs:.2e} <= 1e-6, damped max "
            f"{rep1.max_abs:.2e} <= 10*tau_r with tau_r {tau_r:.2e} <= 1e-4")


def test_criterion_4_series_recurrence_exactness():
    linear = AffineCoeffs.from_sextuple((0, 0, 0, 1, 0, 1))
    cubic = AffineCoeffs.from_sextuple((0, 0, 0, 1, 1, 0))
    sol = series_coefficients(linear, 0.0, 1.0, 10)
    expect = (0.0, 1.0, -0.5, 1.0 / 6.0, -1.0 / 24.0)
    dev_lin = max(abs(sol.alpha[n] - e) for n, e in enumerate(expect))
    assert dev_lin <= 1e-14, f"linear coefficients off by {dev_lin}"
    cub = series_coefficients(cubic, 0.0, 1.0, 10)
    dev_cub = max(abs(cub.alpha[2] - 0.5), abs(cub.alpha[3] - 0.5))
    assert dev_cub <= 1e-14, f"cubic coefficients off by {dev_cub}"

    dev_routes = 0.0
    for case in (linear, cubic):
        for n in range(1, 21):
            fast = series_coefficients(case, 0.0, 1.0, n)
            slow = series_coefficients_triple_sum(case, 0.0, 1.0, n)
            dev_routes = max(dev_routes,
                             float(np.max(np.abs(fast.alpha - slow.alpha))))
    assert dev_routes <= 1e-13, f"routes disagree by {dev_routes}"
    _report("series recurrence exactness", True,
            f"linear dev {dev_lin:.1e}, cubic dev {dev_cub:.1e}, "
            f"route split {dev_routes:.1e} over N <= 20")


def test_criterion_5_series_tracks_fresh_integration():
    details = []
    for tag, sextuple in (("linear", (0, 0, 0, 1, 0, 1)),
                          ("cubic", (0, 0, 0, 1, 1, 0))):
        sol = series_coefficients(AffineCoeffs.from_sextuple(sextuple),
                                  0.0, 1.0, 60)
        half = 0.5 * sol.radius_estimate
        ivp = integrate_reduction(sol.coeffs.to_reduced(), 0.0, 1.0,
                                  span=(-half, half), z0=0.0, tol=1e-12)
        zs = np.linspace(-half, half, 201)
        dev = max(abs(evaluate(sol, z) - ivp.phi(z)) for z in zs)
        details.append(f"{tag} |z| <= {half:.3g}: {dev:.2e}")
        assert dev <= 1e-7, f"{tag}: {dev}"
    _report("series vs adaptive integration", True, "; ".join(details))


def test_criterion_6_square_relation_evidence():
    co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    sq2 = 1.0 / math.sqrt(2.0)
    zs = np.linspace(-1.9, 0.1, 1000)
    good = vdp_implicit(co, k1=0.0, z0=0.0, phi0=sq2, domain=(-2.0, 2.0))
    good_max = reduction_ode_residual(good.coeffs, good, zs, "analytic").max_abs
    bad = vdp_implicit(co, k1=0.0, z0=0.0, phi0=sq2, domain=(-2.0, 2.0),
                       square_relation="direct")
    bad_max = reduction_ode_residual(bad.coeffs, bad, zs, "analytic").max_abs
    assert good_max <= 1e-8, f"reciprocal relation: {good_max}"
    assert bad_max >= 1e-2, f"direct relation: {bad_max}"
    _report("square-relation evidence", True,
            f"reciprocal {good_max:.2e} <= 1e-8, direct {bad_max:.2e} >= 1e-2 "
            f"on the same 1000-point grid")


def test_criterion_7_structural_invariants():
    # affine fields annihilate every structure, with no roundoff at all
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        kwargs = ({"b": np.full((m, m, m), rng.normal())}
                  if rng.random() < 0.5 else {"d": rng.normal(size=m)})
        st = constant_structure(A + A.T, c=rng.normal(size=m), **kwargs)
        field = stationary_solution(rng.normal(), rng.normal())
        for _ in range(5):
            r = residual(field, st, rng.normal(), rng.normal(size=m))
            worst = max(worst, abs(r))
    assert worst == 0.0, f"stationary residual {worst}"

    # damping fields odd in t pass the parity check, constant ones fail
    pts = [(rng.normal(), rng.normal(size=2)) for _ in range(10)]
    odd = constant_structure(np.eye(2))
    odd = type(odd)(m=2, h=odd.h, gamma=odd.gamma,
                    c_field=lambda x, t, eta, xi: np.asarray(t),
                    b_field=lambda x, t, eta, xi: t[0] * np.ones((2, 2, 2)),
                    d_field=None)
    even = constant_structure(np.eye(2), c=np.ones(2), b=np.zeros((2, 2, 2)))
    assert check_reversibility(odd, pts)
    assert not check_reversibility(even, pts)

    # prescribing coefficients and contracting them back is the identity
    target = constant_coeffs(2.0, 0.5, b=0.7)
    zs = np.linspace(-5.0, 5.0, 1000)
    rt = 0.0
    for m in (1, 2, 3):
        lam = SpeedVector(np.linspace(1.0, 0.5, m))
        got = reduce(synthesize_structure(target, m, lam), lam)
        for z in zs:
            rt = max(rt, abs(got.a(z) - 2.0), abs(got.c(z) - 0.5),
                     abs(got.b(z) - 0.7))
    assert rt <= 1e-12, f"round trip {rt}"
    _report("structural invariants", True,
            f"20 stationary residuals exactly 0, parity split correct, "
            f"round trip {rt:.1e} <= 1e-12 at 1000 samples")


def test_criterion_8_decay_along_rays():
    falling = with_speed(soliton_arcsinh(1.0, -1.0, -1.0, 1.0),
                         SpeedVector(np.array([1.0, 1.0])))
    res = decay_check(falling, (1.0, 1.0), threshold=1e-3)
    assert res.ok and res.crossing_radius is not None
    assert math.isfinite(res.crossing_radius)

    plateau = with_speed(vdp_explicit(1.0, 1.0, 3.0, 1.0),
                         SpeedVector(np.array([1.0, 1.0])))
    ray = decay_check(plateau, (1.0, 1.0), threshold=1e-3)
    limit = math.sqrt(3.0 * 1.0 / 3.0)
    assert not ray.ok
    assert abs(ray.final_value - limit) <= 1e-6, f"limit {ray.final_value}"
    assert ray.limit_metadata["stated_limit"] == limit
    _report("decay along multitime rays", True,
            f"decaying case crosses 1e-3 at radius "
            f"{res.crossing_radius:.6g}; positive-orthant ray settles at "
            f"{ray.final_value:.9f} = sqrt(3c/d) +- 1e-6, so the decay "
            f"claim needs the sign condition")


_CORPUS = {
    "profile": {"family": "vdp-explicit", "a": 1.0, "c": 1.0, "d": 3.0,
                "K": 1.0, "zmin": -5.0, "zmax": 5.0, "n": 200},
    "verify": {"family": "arcsinh", "a": 1.0, "b": 1.0, "c": 1.0, "K": 1.0,
               "zmin": -4.0, "zmax": 4.0, "m": 2},
    "series": {"coeffs": [0, 0, 0, 1, 0, 1], "alpha0": 0.0, "alpha1": 1.0,
               "N": 40},
    "prolong": {"epsilon": 0.0, "m": 2, "n_x": 128, "n_t": 51},
    "decay": {"family": "arcsinh", "a": 1.0, "b": -1.0, "c": -1.0, "K": 1.0,
              "direction": [1.0, 1.0], "format": "json"},
}


def test_criterion_9_cli_output_is_byte_stable(tmp_path):
    configs = {}
    for cmd, cfg in _CORPUS.items():
        path = tmp_path / f"{cmd}.config.json"
        path.write_text(json.dumps(cfg))
        configs[cmd] = path

    def run_all(out_root):
        for cmd, cfg in configs.items():
            out = out_root / cmd
            r = subprocess.run(
                [sys.executable, "-m", "mrayleigh.cli", cmd,
                 "--config", str(cfg), "--out", str(out), "--quiet"],
                capture_output=True, text=True)
            assert r.returncode == 0, f"{cmd}: {r.stderr}"
        return sorted(p for p in out_root.rglob("*") if p.is_file())

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    names1 = [p.relative_to(tmp_path / "run1") for p in first]
    names2 = [p.relative_to(tmp_path / "run2") for p in second]
    assert names1 == names2 and len(names1) >= 9
    mismatches = [str(a) for a, b in zip(names1, names2)
                  if (tmp_path / "run1" / a).read_bytes()
                  != (tmp_path / "run2" / b).read_bytes()]
    assert not mismatches, f"files differ: {mismatches}"
    _report("command line output is byte-stable", True,
            f"{len(names1)} emitted files identical across two runs")
