"""Power-series branch: recurrence, radius estimation, and the wrapped profile."""

import math

import numpy as np
import pytest

from mrayleigh.coefficients import SpeedVector, synthesize_structure
from mrayleigh.errors import BadParameters, BlowUp, DegenerateA
from mrayleigh.geometry import GridSpec
from mrayleigh.oracle import reduction_ode_residual, residual_sweep
from mrayleigh.series import (
    LARGE_RADIUS,
    AffineCoeffs,
    SeriesSolution,
    _solve_recurrence,
    estimate_radius,
    evaluate,
    evaluate_prime,
    series_coefficients,
    series_coefficients_triple_sum,
    series_soliton,
)

rng = np.random.default_rng(5150)

LINEAR = AffineCoeffs.from_sextuple((0, 0, 0, 1, 0, 1))   # phi'' = -phi'
CUBIC = AffineCoeffs.from_sextuple((0, 0, 0, 1, 1, 0))    # phi'' = (phi')^3


def _random_affine():
    vals = rng.uniform(-1.0, 1.0, size=6)
    vals[3] = rng.uniform(0.5, 2.0)      # keep a(0) well away from zero
    return AffineCoeffs.from_sextuple(vals)


def _resubstitute(ac, al, n):
    # plug alpha back into the n-th recurrence row, written out in full
    a1, b1, c1, a0, b0, c0 = ac.sextuple()
    s1 = sum((k + 1) * (i - k + 1) * (n - i) * al[k + 1] * al[i - k + 1] * al[n - i]
             for i in range(n + 1) for k in range(i + 1))
    s2 = sum((k + 1) * (i - k + 1) * (n - i + 1) * al[k + 1] * al[i - k + 1] * al[n - i + 1]
             for i in range(n + 1) for k in range(i + 1))
    return (a1 * n * (n + 1) * al[n + 1] + a0 * (n + 2) * (n + 1) * al[n + 2]
            - b1 * s1 - b0 * s2 + c1 * n * al[n] + c0 * (n + 1) * al[n + 1])


def test_linear_case_reproduces_exponential_coefficients():
    sol = series_coefficients(LINEAR, 0.0, 1.0, 10)
    # phi = 1 - e^{-z}: alpha_n = -(-1)^n / n!
    expect = [0.0, 1.0, -0.5, 1.0 / 6.0, -1.0 / 24.0]
    for n, e in enumerate(expect):
        assert abs(sol.alpha[n] - e) <= 1e-14

    sol30 = series_coefficients(LINEAR, 0.0, 1.0, 30)
    assert abs(evaluate(sol30, 1.0) - (1.0 - math.exp(-1.0))) <= 1e-10
    assert abs(evaluate_prime(sol30, 1.0) - math.exp(-1.0)) <= 1e-10


def test_cubic_case_matches_branch_of_square_root():
    sol = series_coefficients(CUBIC, 0.0, 1.0, 12)
    assert np.allclose(sol.alpha[2:6], [0.5, 0.5, 0.625, 0.875], atol=1e-14, rtol=0.0)
    # closed form phi = 1 - sqrt(1 - 2z), valid for z < 1/2
    for z in (-0.2, 0.0, 0.1, 0.2):
        assert abs(evaluate(sol, z) - (1.0 - math.sqrt(1.0 - 2.0 * z))) <= 2e-6


def test_first_row_ties_the_seed_coefficients():
    for _ in range(20):
        ac = _random_affine()
        a0, a1 = rng.uniform(-2.0, 2.0, size=2)
        sol = series_coefficients(ac, a0, a1, 6)
        lhs = 2.0 * ac.a_const * sol.alpha[2] + ac.c_const * a1 - ac.b_const * a1 ** 3
        scale = max(abs(2.0 * ac.a_const * sol.alpha[2]), abs(ac.c_const * a1), 1e-30)
        assert abs(lhs) <= 1e-14 * max(scale, 1.0)


def test_convolution_route_equals_triple_sum_route():
    for _ in range(5):
        ac = _random_affine()
        a0, a1 = rng.uniform(-1.5, 1.5, size=2)
        fast = series_coefficients(ac, a0, a1, 20)
        slow = series_coefficients_triple_sum(ac, a0, a1, 20)
        scale = np.maximum(np.abs(slow.alpha), 1.0)
        assert np.max(np.abs(fast.alpha - slow.alpha) / scale) <= 1e-13


def _loop_convolution_terms(alpha):
    # the reference: Python sum() loops, which add left to right; the array
    # kernels must match them bit for bit, which np.dot or np.sum would not
    beta, gamma, terms = [], [], []

    def t_of(n):
        while len(terms) <= n:
            k = len(terms)
            beta.append((k + 1) * alpha[k + 1])
            gamma.append(sum(beta[j] * beta[k - j] for j in range(k + 1)))
            terms.append(sum(gamma[i] * beta[k - i] for i in range(k + 1)))
        return terms[n]

    return t_of


def _loop_triple_sum_terms(alpha):
    def t_of(n):
        beta = np.array([(k + 1) * alpha[k + 1] for k in range(n + 1)])
        total = 0.0
        for i in range(n + 1):
            for j in range(n + 1 - i):
                total += beta[i] * beta[j] * beta[n - i - j]
        return total

    return t_of


def test_array_kernels_equal_the_sum_loops_bit_for_bit():
    draws = np.random.default_rng(77)
    # alpha1 = -0.0 here makes cumsum total -0.0 where sum() gives +0.0
    cases = [(AffineCoeffs.from_sextuple((1, 1, -1, 1, -1, 1)), 0.0, -0.0)]
    for _ in range(12):
        vals = draws.uniform(-1.0, 1.0, size=6)
        vals[3] = draws.uniform(0.5, 2.0)
        cases.append((AffineCoeffs.from_sextuple(vals), *draws.uniform(-1.5, 1.5, size=2)))
    for ac, a0, a1 in cases:
        for n_terms in (1, 2, 3, 7, 40, 200):
            fast = series_coefficients(ac, a0, a1, n_terms)
            ref = _solve_recurrence(ac, a0, a1, n_terms, _loop_convolution_terms)
            assert fast.alpha.tobytes() == ref.alpha.tobytes()   # -0.0 too
            assert fast.radius_estimate == ref.radius_estimate
        for n_terms in (1, 5, 30):
            slow = series_coefficients_triple_sum(ac, a0, a1, n_terms)
            ref = _solve_recurrence(ac, a0, a1, n_terms, _loop_triple_sum_terms)
            assert slow.alpha.tobytes() == ref.alpha.tobytes()
            assert slow.radius_estimate == ref.radius_estimate


def test_evaluation_equals_polyval_exactly():
    poly = np.polynomial.polynomial
    sol = series_coefficients(AffineCoeffs.from_sextuple((0, 0, 0, 1.0, 0.3, 0.9)), 0.1, 1.0, 400)
    der = poly.polyder(sol.alpha)
    for z in np.linspace(-0.5, 0.5, 101) * sol.radius_estimate:
        assert evaluate(sol, z) == float(poly.polyval(z, sol.alpha))
        assert evaluate_prime(sol, z) == float(poly.polyval(z, der))
    # the profile's phi, phi', phi'' are numpy's k-th derivative polynomials
    prof = series_soliton(sol)
    zs = np.linspace(-0.45, 0.45, 101) * sol.radius_estimate
    for k, fn in enumerate((prof.phi, prof.phi_prime, prof.phi_second)):
        vals = fn(zs)
        assert vals.tobytes() == poly.polyval(zs, poly.polyder(sol.alpha, k)).tobytes()
        for i in range(0, zs.size, 10):
            v = fn(float(zs[i]))
            assert type(v) is float and v == vals[i]


def test_overflowing_recurrence_raises_at_the_first_bad_index():
    with pytest.raises(BlowUp, match=r"N = 2000 .*alpha_182 is not finite"):
        series_coefficients(CUBIC, 0.0, 5.0, 2000)
    with pytest.raises(BlowUp, match="alpha_182"):
        series_coefficients_triple_sum(CUBIC, 0.0, 5.0, 190)


def test_coefficients_satisfy_recurrence_on_resubstitution():
    cases = [
        (LINEAR, 0.0, 1.0),
        (CUBIC, 0.0, 1.0),
        (AffineCoeffs.from_sextuple((0.2, -0.1, 0.3, 1.0, 0.8, -0.5)), 0.4, 0.9),
    ]
    for ac, a0, a1 in cases:
        sol = series_coefficients(ac, a0, a1, 18)
        for n in range(1, 17):
            r = _resubstitute(ac, sol.alpha, n)
            scale = max(abs(ac.a_const) * (n + 2) * (n + 1) * abs(sol.alpha[n + 2]), 1.0)
            assert abs(r) <= 1e-12 * scale


def test_radius_estimates_for_known_cases():
    lin = series_coefficients(LINEAR, 0.0, 1.0, 60)
    assert lin.radius_estimate >= 10.0
    assert abs(lin.radius_estimate - 17.626804871923536) <= 1e-9

    cub = series_coefficients(CUBIC, 0.0, 1.0, 60)
    assert abs(cub.radius_estimate - 0.5) <= 0.1   # true singularity at 1/2

    const = series_coefficients(LINEAR, 5.0, 0.0, 40)
    assert const.radius_estimate >= 1e299           # terminating series

    # a tail window [max(4, N // 2), N] of fewer than 3 indices decides nothing
    for n in (1, 2, 5):
        assert series_coefficients(CUBIC, 0.0, 1.0, n).radius_estimate is None
    assert series_coefficients(LINEAR, 5.0, 0.0, 6).radius_estimate >= 1e299


def test_a_sparse_tail_of_an_entire_series_gives_the_large_radius():
    # a = 1, b = 0, c = z: phi' = e^{-z^2/2} is entire, and phi's odd
    # coefficients leave two nonzero entries in the tail window [4, 8]
    sol = series_coefficients(AffineCoeffs(0, 0, 1, 1, 0, 0), 0.0, 1.0, 8)
    assert np.allclose(sol.alpha, [0, 1, 0, -1 / 6, 0, 1 / 40, 0, -1 / 336, 0],
                       rtol=1e-15, atol=0.0)
    assert np.count_nonzero(sol.alpha[4:]) == 2
    assert sol.radius_estimate == LARGE_RADIUS


def test_recurrence_needs_nondegenerate_constant_a():
    bad = AffineCoeffs.from_sextuple((1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    with pytest.raises(DegenerateA):
        series_coefficients(bad, 0.0, 1.0, 8)


def test_evaluation_warns_beyond_radius_estimate():
    sol = series_coefficients(CUBIC, 0.0, 1.0, 40)
    with pytest.warns(RuntimeWarning, match="radius estimate"):
        evaluate(sol, sol.radius_estimate + 0.1)
    with pytest.warns(RuntimeWarning):
        evaluate_prime(sol, -sol.radius_estimate)


def test_json_payload_shape():
    sol = series_coefficients(LINEAR, 0.0, 1.0, 8)
    d = sol.to_json_dict()
    assert set(d) == {"params", "alpha0", "alpha1", "N", "alpha", "radius_estimate"}
    assert d["N"] == 8 and len(d["alpha"]) == 9
    assert d["alpha0"] == 0.0 and d["alpha1"] == 1.0
    assert abs(d["radius_estimate"] - 2.993795165523909) <= 1e-12


@pytest.mark.parametrize("alpha", [[1.0], [], [[0.0, 1.0]]], ids=["one", "none", "2d"])
def test_a_series_needs_alpha0_and_alpha1(alpha):
    # evaluate_prime and to_json_dict read alpha[1]; a shorter alpha is
    # refused when the solution is built, not met later as an IndexError
    with pytest.raises(BadParameters, match="a series needs alpha0 and alpha1"):
        SeriesSolution(LINEAR, np.array(alpha))


def test_series_profile_window_and_multitime_residual():
    sol = series_coefficients(LINEAR, 0.0, 1.0, 60)
    lam = SpeedVector(np.array([1.0, 1.0]))
    prof = series_soliton(sol, lam)
    half = 0.5 * sol.radius_estimate
    assert prof.domain.lo == -half and prof.domain.hi == half

    structure = synthesize_structure(prof.coeffs, 2, lam)
    grid = GridSpec((-2.0, 2.0, 21), ((0.0, 0.5, 6), (0.0, 0.5, 6)))
    rep = residual_sweep(prof, structure, grid)
    assert rep.max_abs <= 1e-6


def test_truncation_error_shrinks_with_order():
    zs = np.linspace(-0.2, 0.2, 41)
    lo = series_coefficients(CUBIC, 0.0, 1.0, 30)
    hi = series_coefficients(CUBIC, 0.0, 1.0, 60)
    r_lo = reduction_ode_residual(lo.coeffs.to_reduced(), series_soliton(lo), zs).max_abs
    r_hi = reduction_ode_residual(hi.coeffs.to_reduced(), series_soliton(hi), zs).max_abs
    assert r_hi < r_lo


def test_constant_series_is_an_exact_equilibrium():
    sol = series_coefficients(LINEAR, 5.0, 0.0, 20)
    prof = series_soliton(sol)
    rep = reduction_ode_residual(prof.coeffs, prof, np.linspace(-3.0, 3.0, 25))
    assert rep.max_abs == 0.0


def test_inconclusive_radius_blocks_the_profile():
    # too few tail coefficients for the root test, nonlinear so no fallback
    short = series_coefficients(CUBIC, 0.0, 1.0, 4)
    assert short.radius_estimate is None
    with pytest.raises(DegenerateA):
        series_soliton(short)


def test_estimate_radius_is_consistent_under_rebuild():
    sol = series_coefficients(CUBIC, 0.0, 1.0, 50)
    again = estimate_radius(SeriesSolution(sol.coeffs, sol.alpha))
    assert again == sol.radius_estimate
