"""Closed-form soliton families: values, domains, and reduction residuals.

Spot values are checked against hand-derivable anchors (the arc families
evaluate elementary functions at w = K e^{-(c/a) z}); residuals are checked
with the independent ODE evaluator in two derivative modes.
"""

import math
import warnings

import numpy as np
import pytest

from mrayleigh.closed_form import (
    Family,
    Interval,
    SolitonProfile,
    as_multitime,
    soliton_arccosh,
    soliton_arcsin,
    soliton_arcsinh,
    soliton_quadrature,
    vdp_explicit,
    vdp_implicit,
    with_speed,
)
from mrayleigh.coefficients import (
    AffineCoeffs,
    SpeedVector,
    constant_coeffs,
    general_coeffs,
)
from mrayleigh.errors import (
    BadParameters,
    CompatibilityViolated,
    DomainExceeded,
    EmptyDomain,
)
from mrayleigh.oracle import reduction_ode_residual


def _residuals(profile, lo, hi, n=401):
    zs = np.linspace(lo, hi, n)
    an = reduction_ode_residual(profile.coeffs, profile, zs, "analytic").max_abs
    fd = reduction_ode_residual(profile.coeffs, profile, zs, "fd").max_abs
    return an, fd


def test_interval_contains_and_json():
    iv = Interval(-1.0, 2.0)
    assert iv.contains(-1.0) and iv.contains(2.0) and iv.contains(0.3)
    assert not iv.contains(2.0000001)
    assert Interval(-math.inf, 1.0).to_json() == [None, 1.0]


def test_arcsinh_anchor_values_and_residual():
    p = soliton_arcsinh(1.0, 1.0, 1.0, 1.0)
    # w(0) = 1: phi(0) = asinh(1), phi'(0) = -1/sqrt(2)
    assert abs(p.phi(0.0) - math.asinh(1.0)) <= 1e-15
    assert abs(p.phi_prime(0.0) + 1.0 / math.sqrt(2.0)) <= 1e-15
    an, fd = _residuals(p, -4.0, 4.0)
    assert an <= 1e-8
    assert fd <= 1e-6


def test_arcsinh_sigma_and_offset():
    up = soliton_arcsinh(1.0, 1.0, 1.0, 1.0, r=2.0, sigma=-1.0)
    base = soliton_arcsinh(1.0, 1.0, 1.0, 1.0)
    for z in (-1.0, 0.0, 1.5):
        assert abs((up.phi(z) - 2.0) + base.phi(z)) <= 1e-14
        assert abs(up.phi_prime(z) + base.phi_prime(z)) <= 1e-14


def test_arccosh_domain_and_endpoint():
    p = soliton_arccosh(1.0, 1.0, 1.0, math.e)
    # validity ends where w = K e^{-z} = 1, i.e. z = ln K = 1
    assert p.domain.hi == 1.0 and p.domain.lo == -math.inf
    assert abs(p.phi(1.0)) <= 1e-12          # acosh(1) = 0
    assert abs(p.phi(0.0) - math.acosh(math.e)) <= 1e-15
    with pytest.raises(DomainExceeded):
        p.phi(1.5)
    an, fd = _residuals(p, -4.0, 0.9)
    assert an <= 1e-8
    assert fd <= 1e-6
    # derivative blows up like an inverse square root toward the endpoint
    assert abs(p.phi_prime(0.999)) > 10.0



@pytest.mark.parametrize("make, b, inside", [
    (soliton_arccosh, 1.0, -1e-3),
    (soliton_arcsin, -1.0, 1e-3),
])
def test_arc_edge_derivatives_keep_the_sign_of_the_interior(make, b, inside):
    # K = 1 puts the edge at z = 0, where w = 1 exactly and rad = 0
    for sigma in (1.0, -1.0):
        p = make(1.0, b, 1.0, 1.0, sigma=sigma)
        assert 0.0 in (p.domain.lo, p.domain.hi)
        for f in (p.phi_prime, p.phi_second):
            edge, near = f(0.0), f(inside)
            assert math.isinf(edge)
            assert math.copysign(1.0, edge) == math.copysign(1.0, near)


@pytest.mark.parametrize("make", [soliton_arcsinh, soliton_arccosh])
def test_arc_slope_survives_an_overflowing_radicand(make):
    # at z = -400, w = e^400 and rad = w^2 +- 1 overflows; phi' -> -sqrt(c/b)
    p = make(1.0, 1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p.phi_prime(-400.0) == -1.0
        assert p.phi_prime(np.array([-400.0]))[0] == -1.0


@pytest.mark.parametrize("make", [soliton_arcsinh, soliton_arccosh])
def test_arc_profile_stays_finite_past_exp_overflow(make):
    # w = e^{-z} overflows below z = -709.78; there arccosh w = arcsinh w = ln 2w
    p = make(1.0, 1.0, 1.0, 1.0, r=0.5)
    arc = np.arcsinh if make is soliton_arcsinh else np.arccosh
    zs = np.array([-700.0, -710.0, -800.0, -1e5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, d1, d2 = p.phi(zs), p.phi_prime(zs), p.phi_second(zs)
        assert [p.phi(z) for z in zs] == phi.tolist()
    assert phi[0] == arc(np.exp(700.0)) + 0.5           # w finite: bits unchanged
    assert phi[1:].tolist() == [math.log(2.0) - z + 0.5 for z in zs[1:]]
    assert d1.tolist() == [-1.0] * 4
    assert d2[1:].tolist() == [0.0] * 3 and abs(d2[0]) <= 1e-300


def test_arcsin_domain_and_values():
    p = soliton_arcsin(1.0, -1.0, 1.0, 1.0)
    assert p.domain.lo == 0.0 and p.domain.hi == math.inf
    assert abs(p.phi(1.0) - math.asin(math.exp(-1.0))) <= 1e-15
    an, fd = _residuals(p, 0.1, 10.0)
    assert an <= 1e-8
    assert fd <= 1e-6
    with pytest.raises(DomainExceeded):
        p.phi(-0.2)


def test_arc_families_validate_parameters():
    with pytest.raises(BadParameters):
        soliton_arcsinh(1.0, 1.0, 1.0, -2.0)          # K <= 0
    with pytest.raises(BadParameters):
        soliton_arcsinh(1.0, 0.0, 1.0, 1.0)           # b = 0
    with pytest.raises(BadParameters):
        soliton_arccosh(1.0, -1.0, 1.0, 2.0)          # needs c/b > 0
    with pytest.raises(BadParameters):
        soliton_arcsin(1.0, 1.0, 1.0, 1.0)            # needs c/b < 0
    with pytest.raises(BadParameters):
        soliton_arcsinh(1.0, 1.0, 1.0, 1.0, sigma=2.0)


def test_quadrature_constant_coefficients_match_arcsinh_speed():
    # same Bernoulli data, independent construction: |phi'| must agree
    arc = soliton_arcsinh(1.0, 1.0, 1.0, 1.0)
    K0 = arc.phi_prime(0.0) ** -2
    quad = soliton_quadrature(constant_coeffs(1.0, 1.0, b=1.0), K=K0,
                              z0=0.0, domain=(-2.0, 2.0))
    for z in np.linspace(-1.8, 1.8, 30):
        assert abs(abs(quad.phi_prime(z)) - abs(arc.phi_prime(z))) <= 1e-9


def test_quadrature_anchors_and_variable_coefficients():
    co = constant_coeffs(1.0, 1.0, b=1.0)
    p = soliton_quadrature(co, K=4.0, z0=0.0, domain=(-2.0, 2.0))
    assert p.phi(0.0) == 0.0
    assert abs(p.phi_prime(0.0) - 0.5) <= 1e-14      # K^(-1/2)

    aff = AffineCoeffs(0.1, 0.0, 0.0, 1.0, 1.0, 1.0).to_reduced()
    q = soliton_quadrature(aff, K=2.0, z0=0.0, domain=(-2.0, 2.0))
    an, fd = _residuals(q, -1.9, 1.9)
    assert an <= 1e-8
    assert fd <= 1e-6


def test_vdp_implicit_corrected_matches_exponential():
    co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    p = vdp_implicit(co, k1=0.0, z0=0.0, phi0=1.0 / math.sqrt(2.0),
                     domain=(-2.0, 2.0))
    # separable solution for a = c = e^z, d = 3: phi = e^{z/2}/sqrt(2)
    for z in np.linspace(-1.9, 1.9, 41):
        assert abs(p.phi(z) - math.exp(0.5 * z) / math.sqrt(2.0)) <= 1e-12
    an, fd = _residuals(p, -1.9, 1.9)
    assert an <= 1e-8
    assert fd <= 1e-6


def test_vdp_implicit_direct_relation_fails_the_equation():
    co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    p = vdp_implicit(co, k1=0.0, z0=0.0, phi0=1.0 / math.sqrt(2.0),
                     domain=(-2.0, 2.0), square_relation="direct")
    zs = [z for z in np.linspace(-1.9, 0.1, 301) if p.domain.contains(z)]
    rep = reduction_ode_residual(p.coeffs, p, zs, "analytic")
    assert rep.max_abs >= 1e-2


def test_vdp_implicit_rejects_unknown_relation_and_incompatible_data():
    co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    with pytest.raises(BadParameters):
        vdp_implicit(co, k1=0.0, phi0=0.7, square_relation="bogus")
    # constants a = c = 1, d = 3 violate a'd - ad' = dc
    with pytest.raises(CompatibilityViolated):
        vdp_implicit(constant_coeffs(1.0, 1.0, d=3.0), k1=0.0, phi0=0.7)



def test_vdp_implicit_compatibility_check_fails_on_nan():
    co = general_coeffs(math.exp, lambda z: math.nan, d=lambda z: 3.0)
    with pytest.raises(CompatibilityViolated):
        vdp_implicit(co, 0.0, phi0=0.5, domain=(-1.0, 1.0))

def test_vdp_implicit_nonzero_k1_branch():
    co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    p = vdp_implicit(co, k1=0.25, z0=0.0, phi0=1.0, domain=(-2.0, 2.0))
    assert abs(p.phi(0.0) - 1.0) <= 1e-9
    assert p.params["branch"] == "above"
    assert p.domain.hi < 2.0                  # branch solver trims the span
    zs = [z for z in np.linspace(-1.9, p.domain.hi - 0.05, 201)
          if p.domain.contains(z)]
    rep = reduction_ode_residual(p.coeffs, p, zs, "analytic")
    assert rep.max_abs <= 1e-8
    assert min(p.phi(z) for z in zs) > 0.25   # stays on the phi > k1 side


def test_vdp_explicit_values_limits_and_far_tail():
    p = vdp_explicit(1.0, 1.0, 3.0, 1.0)
    assert abs(p.phi(0.0) - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert p.params["limit_neg_inf"] == 1.0   # sqrt(3c/d)
    assert p.params["limit_pos_inf"] == 0.0
    an, fd = _residuals(p, -6.0, 6.0)
    assert an <= 1e-8
    assert fd <= 1e-6
    # the exponential dominates far out; evaluation must not overflow
    for z in (340.0, 400.0, 1000.0, 5000.0):
        assert math.isfinite(p.phi(z)) and math.isfinite(p.phi_second(z))
    z = 340.0
    first_integral = p.phi_prime(z) - p.phi(z) ** 3 + p.phi(z)
    assert abs(first_integral) <= 1e-15
    assert abs(p.phi(-50.0) - 1.0) <= 1e-12


def test_vdp_explicit_domain_analysis():
    # negative K cuts the line where the radicand turns nonpositive
    p = vdp_explicit(1.0, 1.0, 3.0, -0.5)
    assert p.domain.hi < math.inf
    assert abs(p.phi(0.0) - math.sqrt(2.0)) <= 1e-14
    with pytest.raises(DomainExceeded):
        p.phi(p.domain.hi + 0.5)
    with pytest.raises(EmptyDomain):
        vdp_explicit(1.0, -1.0, 3.0, -1.0)
    with pytest.raises(BadParameters):
        vdp_explicit(0.0, 1.0, 3.0, 1.0)


def test_quadrature_rejects_a_non_finite_integrand():
    # with a = e^z the G integrand (b/a) exp(-2F) overflows near z = -10
    co = general_coeffs(math.exp, lambda z: 1.0, b=lambda z: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameters, match=r"integrand not finite at z = .* "
                                                r"on the window \[-10.0, 10.0\]"):
            soliton_quadrature(co, 4.0)


def test_as_multitime_chain_rule():
    lam = SpeedVector(np.array([1.0, 2.0]))
    ident = SolitonProfile(Family.QUADRATURE, {}, lam,
                           Interval(-math.inf, math.inf),
                           phi=lambda z: z, phi_prime=lambda z: 1.0,
                           phi_second=lambda z: 0.0)
    u = as_multitime(ident)
    t = np.array([0.3, -0.2])
    value, grad, hess, d2x = u.at(1.0, t)
    assert abs(value - (1.0 - 0.3 + 0.4)) <= 1e-14
    assert np.allclose(grad, [-1.0, -2.0])
    assert np.max(np.abs(hess)) == 0.0
    assert d2x == 0.0


def test_multitime_field_constant_on_phase_planes():
    p = with_speed(soliton_arcsinh(1.0, 1.0, 1.0, 1.0),
                   SpeedVector(np.array([0.5, 1.5])))
    u = as_multitime(p)
    x, t = 0.7, np.array([0.2, -0.1])
    for delta in (np.array([0.3, 0.0]), np.array([-0.1, 0.4])):
        shifted = u.at(x + 0.5 * delta[0] + 1.5 * delta[1], t + delta)[0]
        assert abs(shifted - u.at(x, t)[0]) <= 1e-14


def test_sample_drops_points_outside_domain():
    p = soliton_arccosh(1.0, 1.0, 1.0, math.e)
    zs, vals, ders = p.sample(np.linspace(-1.0, 2.0, 31))
    assert zs.max() <= 1.0
    assert len(zs) == len(vals) == len(ders) < 31
