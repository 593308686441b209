"""Closed-form soliton families: values, domains, and reduction residuals.

Spot values are checked against hand-derivable anchors (the arc families
evaluate elementary functions at w = K e^{-(c/a) z}); residuals are checked
with the independent ODE evaluator in two derivative modes.
"""

import collections
import itertools
import math
import random
import warnings

import numpy as np
import pytest

from mrayleigh.closed_form import (
    Family,
    Interval,
    SolitonProfile,
    _first_integral_antiderivative,
    _solve_branch,
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
    MrayleighError,
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
@pytest.mark.parametrize("a, b, c, zs", [
    (1.0, 0.25, 1.0, [-709.7, -709.5, -709.3]),
    (1.0, 2.0, 2.0, [-354.85, -354.7, -354.6]),
    # w^2 overflows with sq rate w finite: phi'' ~ w^-2 is subnormal
    (1.0, 1.0, 1.0, [-355.0, -360.0, -370.0]),
])
def test_arc_second_derivative_is_finite_where_w_squared_overflows(make, a, b, c, zs):
    # w = e^{-(c/a) z} is finite while w^2 is not; on the first two rows
    # sqrt(c/b) (c/a) w is past the float range too
    zs = np.array(zs)
    for sigma in (1.0, -1.0):
        p = make(a, b, c, 1.0, sigma=sigma)
        s = 1.0 if make is soliton_arcsinh else -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1, d2 = p.phi_prime(zs), p.phi_second(zs)
            assert [p.phi_prime(z) for z in zs] == d1.tolist()
            assert [p.phi_second(z) for z in zs] == d2.tolist()
            assert [np.float64(p.phi_second(z)).tobytes() for z in zs] == [v.tobytes() for v in d2]
        assert np.isfinite(d1).all() and np.isfinite(d2).all()
        assert d1.tolist() == [-sigma * math.sqrt(c / b)] * zs.size
        # phi'' = s sigma sqrt(c/b) (c/a) w^-2 (1 + s w^-2)^-1.5, w^-2 = e^{2 (c/a) z}
        want = [s * sigma * math.sqrt(c / b) * (c / a) * math.exp(2.0 * (c / a) * z) for z in zs]
        assert all(abs(got - w) <= 1e-12 * abs(w) + 1e-322 for got, w in zip(d2.tolist(), want))
        assert all(math.copysign(1.0, v) == s * sigma for v in d2.tolist())


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
    # the direct relation is a k1 = 0 negative control only
    with pytest.raises(BadParameters):
        vdp_implicit(co, k1=0.25, phi0=1.0, square_relation="direct")
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
    assert p.domain.hi < 2.0                  # the domain scan trims the escape end
    zs = [z for z in np.linspace(-1.9, p.domain.hi - 0.05, 201)
          if p.domain.contains(z)]
    rep = reduction_ode_residual(p.coeffs, p, zs, "analytic")
    assert rep.max_abs <= 1e-8
    assert min(p.phi(z) for z in zs) > 0.25   # stays on the phi > k1 side


def test_vdp_implicit_nonzero_k1_evaluates_across_its_domain():
    # the k1 != 0 draws of the vdp-implicit parameter ranges, on the CLI's
    # default domain, where the branch both collapses onto k1 and escapes
    rng = random.Random("rates/vdp-implicit-k1")
    for _ in range(30):
        d, k1 = rng.uniform(1.0, 5.0), rng.uniform(0.2, 1.0)
        phi0 = k1 + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
        co = general_coeffs(a=math.exp, c=math.exp, d=lambda z, d=d: d)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = vdp_implicit(co, k1=k1, phi0=phi0)
        zs = np.linspace(p.domain.lo, p.domain.hi, 2001)
        for fn in (p.phi, p.phi_prime, p.phi_second):
            assert np.isfinite(fn(zs)).all(), (d, k1, phi0, fn)
        assert abs(p.phi(0.0) - phi0) <= 1e-14
        # a direct solve of L(phi) = H + C, with H = d (1 - e^{-z}) exactly
        L, side = _first_integral_antiderivative(k1), math.copysign(1.0, phi0 - k1)
        inner = zs[100:-100]
        want = _solve_branch(L, k1, side, 4e-16, 1e12 * max(1.0, 4.0 * abs(phi0 - k1)),
                             L(phi0) + d * (1.0 - np.exp(-inner)))
        assert np.max(np.abs(p.phi(inner) - want)) <= 1e-12, (d, k1, phi0)


def test_scanned_domains_hold_their_anchor():
    """Seeded draws from the quadrature and vdp-implicit parameter ranges on
    the CLI's default windows: the domain that the scan reports holds z0,
    and phi(z0) is a finite float.  The scanned runs of quadrature draws 3,
    7, 10, 12, 28, 40 and 42 end at the anchor sample."""
    builds = []
    rng = random.Random("rates/quadrature")
    for _ in range(60):
        a, b, c = (rng.uniform(0.5, 2.0) for _ in range(3))
        K = rng.uniform(1.0, 8.0)
        builds.append(lambda a=a, b=b, c=c, K=K: soliton_quadrature(
            constant_coeffs(a, c, b=b), K))
    rng = random.Random("rates/vdp-implicit")
    for _ in range(30):
        d, phi0 = rng.uniform(1.0, 5.0), rng.uniform(0.3, 1.5)
        co = general_coeffs(a=math.exp, c=math.exp, d=lambda z, d=d: d)
        builds.append(lambda co=co, phi0=phi0: vdp_implicit(co, k1=0.0, phi0=phi0))
    rng = random.Random("rates/vdp-implicit-k1")
    for _ in range(30):
        d, k1 = rng.uniform(1.0, 5.0), rng.uniform(0.2, 1.0)
        phi0 = k1 + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
        co = general_coeffs(a=math.exp, c=math.exp, d=lambda z, d=d: d)
        builds.append(lambda co=co, k1=k1, phi0=phi0: vdp_implicit(co, k1=k1, phi0=phi0))
    # phi^-2 = -(2/3)(H + C) turns nonpositive just past the anchor
    co = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
    builds.append(lambda: vdp_implicit(co, k1=0.0, phi0=1e8))
    for i, build in enumerate(builds):
        p = build()
        assert p.domain.lo <= 0.0 <= p.domain.hi, (i, p.domain)
        v = p.phi(0.0)
        assert type(v) is float and math.isfinite(v), (i, v)


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


def _vdp_explicit_limit(radicand_limit):
    """phi's limit where the radicand K e^{2cz/a} + d/(3c) tends to this value."""
    if radicand_limit <= 0.0:
        return None
    return 0.0 if math.isinf(radicand_limit) else 1.0 / math.sqrt(radicand_limit)


def test_vdp_explicit_over_the_signs_of_K_offset_and_rate():
    # each sign of a, c, d and K in turn, magnitudes drawn: both empty
    # domains, the whole line, and a finite edge on either side
    rng = np.random.default_rng(18)
    signs = list(itertools.product((1.0, -1.0), (1.0, -1.0), (1.0, -1.0), (1.0, 0.0, -1.0)))
    seen = set()
    for i in range(400):
        sa, sc, sd, sk = signs[i % len(signs)]
        a, c = sa * rng.uniform(0.5, 2.0), sc * rng.uniform(0.5, 2.0)
        d, K = sd * rng.uniform(0.5, 3.0), sk * rng.uniform(0.2, 3.0)
        rate, off = 2.0 * c / a, d / (3.0 * c)
        if off <= 0.0 and K <= 0.0:
            message = ("constant radicand is nonpositive" if K == 0.0
                       else "radicand is negative everywhere")
            with pytest.raises(EmptyDomain, match=message):
                vdp_explicit(a, c, d, K)
            seen.add(message)
            continue
        p = vdp_explicit(a, c, d, K)
        lo, hi = p.domain.lo, p.domain.hi
        width = 8.0 / abs(rate)
        if math.isinf(lo) and math.isinf(hi):
            zs = np.linspace(-width, width, 101)
            seen.add("whole line")
        else:
            # one finite end, a pad of 1e-9 inside the radicand's root
            assert math.isinf(lo) != math.isinf(hi)
            root = math.log(-off / K) / rate
            assert abs(K * math.exp(rate * root) + off) <= 1e-12 * abs(off)
            edge, inward = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)
            assert inward * (edge - root) > 0.0
            assert math.isclose(abs(edge - root), 1e-9 * max(1.0, abs(root)), rel_tol=1e-6)
            zs = edge + inward * np.linspace(0.0, width, 101)
            seen.add(f"edge with 2c/a {'>' if rate > 0 else '<'} 0")
        phi, dphi, ddphi = p.phi(zs), p.phi_prime(zs), p.phi_second(zs)
        assert np.all(np.isfinite(phi) & np.isfinite(dphi) & np.isfinite(ddphi))
        # the ODE residual against the size of its terms, which grow without
        # bound toward a finite edge
        scale = np.abs(a * ddphi) + np.abs(d * phi * phi * dphi) + np.abs(c * dphi)
        res = reduction_ode_residual(p.coeffs, p, zs, "analytic").residuals
        assert np.all(np.abs(res) <= 1e-12 * np.maximum(scale, 1.0)), (a, c, d, K)
        # the stated limit at each infinite end is where the radicand tends
        for end, side, key in ((hi, 1.0, "limit_pos_inf"), (lo, -1.0, "limit_neg_inf")):
            if math.isfinite(end):
                assert p.params[key] is None
                continue
            growing = K != 0.0 and side * rate > 0.0
            expected = _vdp_explicit_limit(math.copysign(math.inf, K) if growing else off)
            assert p.params[key] == expected, (key, a, c, d, K)
            if expected is not None:
                assert abs(p.phi(side * 60.0 / abs(rate)) - expected) <= 1e-9
    assert seen == {"constant radicand is nonpositive", "radicand is negative everywhere",
                    "whole line", "edge with 2c/a > 0", "edge with 2c/a < 0"}


def test_vdp_explicit_over_extreme_parameters_builds_or_raises_a_package_error():
    # signs, zeros and magnitudes at which 2c/a, d/(3c) and -d/(3cK) over-
    # or underflow: every combination builds, keeping its parameters' bits,
    # with each finite edge of its domain a finite float, or raises an error
    # of the package, and an under- or overflow that hides the radicand's
    # zero is named
    values = (-3.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1e300, -1e300, 2.0)
    seen = collections.Counter()
    for a, c, d, K in itertools.product(values, repeat=4):
        try:
            p = vdp_explicit(a, c, d, K)
        except MrayleighError as e:
            what, flows, _ = str(e).partition("flows")
            seen[type(e).__name__, what if flows else ""] += 1
            continue
        # hex keeps the sign of a zero
        assert [p.params[k].hex() for k in "acdK"] == [v.hex() for v in (a, c, d, K)]
        assert p.domain.lo < p.domain.hi
        for edge, unbounded in ((p.domain.lo, -math.inf), (p.domain.hi, math.inf)):
            assert edge == unbounded or math.isfinite(edge), (a, c, d, K, p.domain)
        seen["built", ""] += 1
    # pinned counts: a combination that builds keeps building; the ratio
    # overflows in 142, whose edge would be infinite or NaN, the rate in 182
    # more, whose phi would be NaN at z = 0 and phi' NaN everywhere, and the
    # offset in 84 more, whose phi or phi' would not be finite
    assert seen == {("built", ""): 1979, ("EmptyDomain", ""): 1400,
                    ("BadParameters", ""): 2592,
                    ("BadParameters", "the offset d/(3c) over"): 84,
                    ("BadParameters", "the rate 2c/a under"): 98,
                    ("BadParameters", "the rate 2c/a over"): 182,
                    ("BadParameters", "the ratio -d/(3cK) under"): 84,
                    ("BadParameters", "the ratio -d/(3cK) over"): 142}


def test_vdp_explicit_names_the_offset_where_3c_overflows():
    # the rate 2c/a is 2 here, and 2c overflows; d/(3c) would read 0, as 3c
    # is infinite, so the offset is named, not the rate
    with pytest.raises(BadParameters, match=r"^the offset d/\(3c\) cannot be formed: 3c overflows$"):
        vdp_explicit(1e308, 1e308, 1e308, 1.0)


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
