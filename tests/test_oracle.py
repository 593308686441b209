"""Independent verification routes: IVP integration, residual sweeps, decay,
and the single-time spectral reference solver."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mrayleigh.closed_form import (
    Family,
    Interval,
    SolitonProfile,
    as_multitime,
    soliton_arccosh,
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
    synthesize_structure,
)
from mrayleigh.errors import (
    BadParameters,
    BlowUp,
    CFLViolation,
    DimensionMismatch,
    DomainExceeded,
    EmptyDomain,
    WrongVariant,
)
from mrayleigh.geometry import (
    GridSpec,
    prolong_field,
    residual,
    stationary_solution,
)
from mrayleigh.oracle import (
    bernoulli_chain_check,
    decay_check,
    integrate_reduction,
    integrate_single_time_rayleigh,
    reduction_ode_residual,
    residual_sweep,
)
from mrayleigh.series import AffineCoeffs, series_coefficients, series_soliton


def _arcsinh_profile():
    return soliton_arcsinh(1.0, 1.0, 1.0, 1.0)


def test_integration_shadows_the_closed_form():
    p = _arcsinh_profile()
    ivp = integrate_reduction(p.coeffs, p.phi(0.0), p.phi_prime(0.0),
                              span=(-3.0, 3.0), z0=0.0, tol=1e-10)
    zs = np.linspace(-3.0, 3.0, 121)
    dev = max(abs(ivp.phi(z) - p.phi(z)) for z in zs)
    assert dev <= 1e-9


def test_looser_tolerance_costs_accuracy():
    # the deviation from the exact profile must grow when the integrator
    # is run 16x looser; the margin demanded is a factor of 4
    p = _arcsinh_profile()
    zs = np.linspace(-3.0, 3.0, 121)

    def dev(tol):
        ivp = integrate_reduction(p.coeffs, p.phi(-3.0), p.phi_prime(-3.0),
                                  span=(-3.0, 3.0), tol=tol)
        return max(abs(ivp.phi(z) - p.phi(z)) for z in zs)

    assert dev(16e-8) >= 4.0 * dev(1e-8)


def test_ivp_solution_interface():
    co = constant_coeffs(1.0, 1.0, b=1.0)
    ivp = integrate_reduction(co, 0.0, 0.5, span=(-1.0, 2.0), z0=0.0)
    assert ivp.span == (-1.0, 2.0)
    # second derivative must agree with the ODE right-hand side
    z = 0.7
    rhs = (ivp.coeffs.b(z) * ivp.phi_prime(z) ** 3
           - ivp.coeffs.c(z) * ivp.phi_prime(z)) / ivp.coeffs.a(z)
    assert abs(ivp.phi_second(z) - rhs) <= 1e-7
    # a scalar gives a float, an array the same values bit for bit
    zs = np.linspace(-1.0, 2.0, 13)
    for fn in (ivp.phi, ivp.phi_prime, ivp.phi_second):
        scalars = [fn(float(v)) for v in zs]
        assert all(type(v) is float for v in scalars)
        assert fn(zs).tobytes() == np.array(scalars).tobytes()
    with pytest.raises(DomainExceeded,
                       match=r"z = 2\.5 outside validity interval \[-1\.0, 2\.0\]"):
        ivp.phi(2.5)


def test_integration_parameter_guards():
    co = constant_coeffs(1.0, 1.0, b=1.0)
    with pytest.raises(BadParameters):
        integrate_reduction(co, 0.0, 0.5, tol=1e-13)
    with pytest.raises(BadParameters):
        integrate_reduction(co, 0.0, 0.5, tol=1e-3)
    with pytest.raises(BadParameters):
        integrate_reduction(co, 0.0, 0.5, span=(1.0, 1.0))
    with pytest.raises(BadParameters):
        integrate_reduction(co, 0.0, 0.5, span=(0.0, 1.0), z0=2.0)


_NON_FINITE_SCRIPT = """
import math
import numpy as np
from mrayleigh.coefficients import constant_coeffs
from mrayleigh.errors import BadParameters, StiffnessFailure
from mrayleigh.oracle import _dp45, integrate_reduction

co = constant_coeffs(1.0, 1.0, b=1.0)
for args, kwargs in [((math.nan, 1.0), {}), ((0.0, math.inf), {}),
                     ((0.0, 1.0), {"span": (-math.inf, 1.0)})]:
    try:
        integrate_reduction(co, *args, **kwargs)
    except BadParameters as exc:
        print(exc)
    else:
        raise AssertionError(f"no error for {args} {kwargs}")
try:
    list(_dp45(lambda t, y: y, 0.0, 1.0, np.array([math.nan, 1.0]), 1e-10))
except StiffnessFailure:
    print("stiff")
"""


def test_integration_rejects_a_non_finite_input_without_hanging():
    # each of these once sent the stepper into an endless loop: a NaN first
    # step never fell below the minimum step, and an infinite span never ends
    r = subprocess.run([sys.executable, "-c", _NON_FINITE_SCRIPT],
                       capture_output=True, text=True, timeout=30)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["phi0 must be finite", "phi_prime0 must be finite",
                                     "span_lo must be finite", "stiff"]


def _draws(family, n):
    rng = np.random.default_rng(20110)
    for _ in range(n):
        a, b, c = rng.uniform(0.8, 1.2, 3)
        if family == "arcsinh":
            yield soliton_arcsinh(a, b, c, rng.uniform(0.5, 2.0)), (-3.0, 3.0)
        elif family == "quadrature":
            yield soliton_quadrature(constant_coeffs(a, c, b=b), rng.uniform(3.0, 5.0),
                                     z0=0.0, domain=(-2.0, 2.0)), (-1.5, 1.5)
        elif family == "vdp_explicit":
            yield vdp_explicit(a, c, 3.0 * b, rng.uniform(0.5, 2.0)), (-3.0, 3.0)
        elif family == "vdp_implicit":
            # a = c = e^z, the general coefficient kind
            co = general_coeffs(math.exp, math.exp, d=lambda z, d=2.5 * b: d)
            yield vdp_implicit(co, 0.0, phi0=rng.uniform(0.8, 1.0),
                               domain=(-2.0, 2.0)), (-1.5, 0.5)
        else:
            # a series under affine coefficients, on its own validity interval
            ac = AffineCoeffs(*rng.uniform(-0.05, 0.05, 3), a, 0.3 * b, c)
            p = series_soliton(series_coefficients(ac, rng.uniform(-0.5, 0.5),
                                                   rng.uniform(0.8, 1.2), 400))
            yield p, (p.domain.lo, p.domain.hi)


@pytest.mark.parametrize("family", ["arcsinh", "quadrature", "vdp_explicit",
                                    "vdp_implicit", "affine_series"])
def test_integration_takes_scipy_rk45_steps(family):
    # the numpy Dormand-Prince stepper against scipy's RK45 at the same
    # tolerance: the same accepted steps, and the same states at every node
    # (step ends and the three continuous-extension samples inside each step)
    from scipy.integrate import solve_ivp

    for p, (lo, hi) in _draws(family, 3):
        y0 = (p.phi(lo), p.phi_prime(lo))
        ivp = integrate_reduction(p.coeffs, *y0, span=(lo, hi), tol=1e-10)
        ref = solve_ivp(lambda z, y: [y[1], p.coeffs.second(z, y[0], y[1])], (lo, hi), y0,
                        method="RK45", rtol=1e-10, atol=1e-10, dense_output=True)
        assert ivp.nodes.size == 4 * (ref.t.size - 1) + 1
        assert np.array_equal(ivp.nodes[::4], ref.t)
        phi, psi = ref.sol(ivp.nodes)
        # bound fixed beforehand; measured phi 8.9e-16, phi' 1.1e-16 (arcsinh),
        # phi 2.2e-16, phi' 1.1e-16 (quadrature), at most 2.2e-16 and 4.4e-16
        # on the other three
        assert np.max(np.abs(ivp.phi_values - phi)) <= 1e-12
        assert np.max(np.abs(ivp.phi_prime_values - psi)) <= 1e-12


def test_blow_up_is_reported_with_location():
    # psi' = psi^3 from psi(0) = 1 escapes at z = 1/2
    co = constant_coeffs(1.0, 0.0, b=1.0)
    with pytest.raises(BlowUp) as exc:
        integrate_reduction(co, 0.0, 1.0, span=(0.0, 2.0), z0=0.0)
    assert 0.3 < exc.value.z_reached < 0.7


def test_chain_check_passes_and_guards_variant():
    p = soliton_arccosh(1.0, 1.0, 1.0, math.e)
    assert bernoulli_chain_check(p.coeffs, p, np.linspace(-3.0, 0.5, 40))
    with pytest.raises(WrongVariant):
        bernoulli_chain_check(constant_coeffs(1.0, 1.0, d=3.0), p, [0.0])


def test_chain_check_skips_flat_samples_with_warning():
    co = constant_coeffs(1.0, 1.0, b=1.0)
    flat = SolitonProfile(Family.QUADRATURE, {}, SpeedVector(np.array([1.0])),
                          Interval(-math.inf, math.inf),
                          phi=lambda z: 2.0, phi_prime=lambda z: 0.0,
                          phi_second=lambda z: 0.0)
    with pytest.warns(RuntimeWarning, match="skipped"):
        assert bernoulli_chain_check(co, flat, np.linspace(-1.0, 1.0, 7))



def test_chain_check_fails_on_a_nan_slope():
    co = constant_coeffs(1.0, 1.0, b=1.0)
    nan = SolitonProfile(Family.QUADRATURE, {}, SpeedVector(np.array([1.0])),
                         Interval(-math.inf, math.inf),
                         phi=lambda z: 0.0, phi_prime=lambda z: math.nan,
                         phi_second=lambda z: math.nan)
    assert not bernoulli_chain_check(co, nan, np.linspace(-1.0, 1.0, 5))

def test_residual_modes_and_labels():
    p = _arcsinh_profile()
    zs = np.linspace(-2.0, 2.0, 51)
    an = reduction_ode_residual(p.coeffs, p, zs, "analytic")
    fd = reduction_ode_residual(p.coeffs, p, zs, "fd")
    assert an.labels == ("z",)
    assert an.max_abs <= 1e-10
    assert fd.max_abs <= 1e-6
    with pytest.raises(BadParameters):
        reduction_ode_residual(p.coeffs, p, zs, "spectral")


def test_residual_sweep_multitime():
    lam = SpeedVector(np.array([1.0, 0.5]))
    p = with_speed(_arcsinh_profile(), lam)
    st = synthesize_structure(p.coeffs, 2, lam)
    grid = GridSpec((-2.0, 2.0, 13), ((0.0, 0.3, 4), (0.0, 0.3, 4)))
    rep = residual_sweep(p, st, grid)
    assert rep.max_abs <= 1e-6

    # rows follow grid.points(), and each residual is the one the pointwise
    # entry point gives for the lifted field at that row
    u = as_multitime(p)
    pts = list(grid.points())
    assert np.array_equal(rep.points, [[x, *t] for x, t in pts])
    pointwise = [residual(u, st, x, t) for x, t in pts]
    assert np.max(np.abs(rep.residuals - pointwise)) <= 1e-14


def test_residual_sweep_skip_exhaustion():
    p = soliton_arccosh(1.0, 1.0, 1.0, math.e)   # valid only for z <= 1
    st = synthesize_structure(p.coeffs, 1, p.lam)
    grid = GridSpec((5.0, 6.0, 5), ((0.0, 0.3, 3),))
    with pytest.raises(EmptyDomain):
        residual_sweep(p, st, grid, skip_out_of_domain=True)
    with pytest.raises(DomainExceeded):
        residual_sweep(p, st, grid)


@pytest.mark.parametrize("u", [
    with_speed(soliton_arcsinh(1.0, 1.0, 1.0, 1.0), SpeedVector(np.array([1.0, 1.0]))),
    stationary_solution(1.0, 0.0),
], ids=["profile", "field"])
def test_residual_sweep_rejects_a_structure_of_another_m(u):
    st = constant_structure(np.eye(3), c=1.0, b=1.0)
    grid = GridSpec((-1.0, 1.0, 3), ((0.0, 0.1, 2), (0.0, 0.1, 2)))
    with pytest.raises(DimensionMismatch):
        residual_sweep(u, st, grid)


def test_decay_along_ray_with_frozen_crossing():
    p = with_speed(soliton_arcsinh(1.0, -1.0, -1.0, 1.0),
                   SpeedVector(np.array([1.0, 1.0])))
    res = decay_check(p, (1.0, 1.0))
    ok, radius = res.ok, res.crossing_radius
    assert ok
    assert abs(radius - 3.501750875437719) <= 1e-12
    assert res.limit_metadata["phase_tends_to"] == "-inf"


def test_decay_reports_stated_limits():
    p = with_speed(vdp_explicit(1.0, 1.0, 3.0, 1.0),
                   SpeedVector(np.array([1.0, 1.0])))
    toward_zero = decay_check(p, (-1.0, 0.0))
    assert toward_zero.ok
    assert toward_zero.limit_metadata["stated_limit"] == 0.0
    toward_plateau = decay_check(p, (1.0, 0.0))
    assert not toward_plateau.ok
    assert abs(toward_plateau.final_value - 1.0) <= 1e-6
    assert toward_plateau.limit_metadata["stated_limit"] == 1.0
    d = toward_zero.to_json_dict()
    assert d["ok"] is True and d["crossing_radius"] is not None


def test_decay_guards():
    p = with_speed(_arcsinh_profile(), SpeedVector(np.array([1.0, 1.0])))
    with pytest.raises(BadParameters):
        decay_check(p, (1.0, -1.0))       # phase constant along the ray
    with pytest.raises(BadParameters):
        decay_check(p, (1.0,))            # wrong number of components
    cosh_p = soliton_arccosh(1.0, 1.0, 1.0, math.e)
    with pytest.raises(EmptyDomain):
        decay_check(cosh_p, (-1.0,), x=5.0)
    for bad in ({"horizon": math.nan}, {"horizon": -1.0}, {"threshold": math.inf},
                {"threshold": 0.0}, {"x": math.nan}):
        with pytest.raises(BadParameters):
            decay_check(p, (1.0, 1.0), **bad)


def test_single_time_solver_reproduces_separated_solution():
    # epsilon = 0: u = sin(x) cos(t) solves the undamped equation
    sol = integrate_single_time_rayleigh(0.0, math.sin, lambda x: 0.0, 1.0)
    xs = np.linspace(0.0, 2.0 * math.pi, 17)
    err = max(abs(sol.jet(x, 1.0)[0] - math.sin(x) * math.cos(1.0)) for x in xs)
    assert err <= 1e-5
    assert sol.residual_estimate() <= 1e-4


def test_single_time_solver_interface_and_equilibrium():
    sol = integrate_single_time_rayleigh(0.4, lambda x: 3.3, lambda x: 0.0, 0.5)
    assert abs(sol.jet(1.0, 0.5)[0] - 3.3) <= 1e-12
    f = sol.as_field()
    assert f.m == 1
    assert abs(f.at(1.0, np.array([0.25]))[0] - 3.3) <= 1e-12
    with pytest.raises(DomainExceeded):
        sol.jet(0.0, 0.6)
    with pytest.raises(BadParameters):
        integrate_single_time_rayleigh(0.0, math.sin, lambda x: 0.0, -1.0)
    for counts in ({"n_x": 0}, {"n_t": 5}):     # the t interpolant has degree n_t - 1
        with pytest.raises(BadParameters, match="n_x must be at least 1 and n_t at least 6"):
            integrate_single_time_rayleigh(0.0, math.sin, lambda x: 0.0, 1.0, **counts)


@pytest.mark.parametrize("n_x", [64, 256])
def test_single_time_state_matches_a_tight_dop853_solve(n_x):
    # the integrating-factor solve against scipy's DOP853 at rtol = atol =
    # 1e-13 on the same Fourier method of lines in physical space
    from scipy.integrate import solve_ivp

    eps = 0.3
    sol = integrate_single_time_rayleigh(eps, lambda x: 0.5 * math.sin(x),
                                         lambda x: 0.0, 1.0, n_x=n_x, n_t=51)
    x = np.linspace(0.0, 2.0 * math.pi, n_x, endpoint=False)
    k = np.fft.rfftfreq(n_x, d=1.0 / n_x)

    def rhs(t, y):
        u, v = y[:n_x], y[n_x:]
        uxx = np.fft.irfft(-(k ** 2) * np.fft.rfft(u), n_x)
        return np.concatenate([v, uxx + eps * (v - v ** 3)])

    ref = solve_ivp(rhs, (0.0, 1.0), np.concatenate([0.5 * np.sin(x), np.zeros(n_x)]),
                    method="DOP853", rtol=1e-13, atol=1e-13)
    assert ref.success
    u, u_t, _, _ = sol.jet(x, 1.0)
    # bound fixed beforehand; measured u 8.1e-11, u_t 2.5e-10 (n_x = 64)
    # and u 1.6e-10, u_t 5.4e-10 (n_x = 256)
    assert np.max(np.abs(u - ref.y[:n_x, -1])) <= 1e-8
    assert np.max(np.abs(u_t - ref.y[n_x:, -1])) <= 1e-8


def test_single_time_overflow_is_a_cfl_violation_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CFLViolation, match="time integration failed"):
            integrate_single_time_rayleigh(0.1, lambda x: 1e200 * math.sin(x),
                                           lambda x: 0.0, 1.0, n_x=64, n_t=11)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_prolonged_jet_gives_the_single_time_residual(m):
    # under prolongation_structure the multitime residual of v(x, t) =
    # u(x, t^1) is u_tt - u_xx - eps (u_t - u_t^3), read from the same jet
    eps = 0.3
    sol = integrate_single_time_rayleigh(eps, lambda x: 0.5 * math.sin(x),
                                         lambda x: 0.0, 1.0, n_x=64, n_t=51)
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 2.0 * math.pi, 40)
    t = rng.uniform(0.0, 1.0, (40, m))
    multi = residual(prolong_field(sol.as_field(), m),
                              prolongation_structure(m, eps), x, t)
    u, u_t, u_tt, u_xx = sol.jet(x, t[:, 0])
    single = u_tt - u_xx - eps * (u_t - u_t ** 3)
    assert np.max(np.abs(single)) >= 1e-7      # the comparison is not of zeros
    assert np.max(np.abs(multi - single)) <= 1e-15


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _per_point_basis(sol):
    """exp(i k x) formed afresh at every point, not once per distinct x."""
    return lambda x: np.exp(1j * sol._k * np.expand_dims(np.asarray(x, dtype=float), -1))


def test_jet_on_a_grid_with_repeated_x_equals_the_jet_one_x_at_a_time():
    sol = integrate_single_time_rayleigh(0.3, lambda x: 0.5 * math.sin(x),
                                         lambda x: 0.0, 1.0, n_x=64, n_t=21)
    x = np.repeat(np.linspace(0.1, 6.0, 5), 4)      # each x four times
    t = np.tile(np.linspace(0.05, 0.95, 4), 5)
    grid = sol.jet(x, t)
    for i in range(0, x.size, 4):
        for g, p in zip(grid, sol.jet(float(x[i]), t[i:i + 4])):
            assert _bits(p) == g[i:i + 4].tobytes(), x[i]
    for i in range(x.size):
        for g, p in zip(grid, sol.jet(float(x[i]), float(t[i]))):
            assert type(p) is float and _bits(p) == g[i].tobytes(), (x[i], t[i])
    sol._basis = _per_point_basis(sol)
    assert all(_bits(g) == _bits(p) for g, p in zip(grid, sol.jet(x, t)))


@pytest.mark.parametrize("n_probe", [(48, 33), (7, 6)])
def test_residual_estimate_is_unchanged_by_the_shared_basis(n_probe):
    sol = integrate_single_time_rayleigh(0.1, lambda x: 0.1 * math.sin(x),
                                         lambda x: 0.0, 1.0, n_x=128, n_t=51)
    shared = sol.residual_estimate(*n_probe)
    sol._basis = _per_point_basis(sol)
    assert _bits(sol.residual_estimate(*n_probe)) == _bits(shared)
