import math
from dataclasses import replace

import numpy as np
import pytest

from mrayleigh.closed_form import soliton_arccosh, soliton_arcsinh
from mrayleigh.coefficients import (
    AffineCoeffs,
    CoeffKind,
    EvalPoint,
    SpeedVector,
    Variant,
    check_constraint,
    coeffs_from_json_dict,
    coeffs_to_json_dict,
    constant_coeffs,
    constant_structure,
    general_coeffs,
    prolongation_structure,
    reduce,
    synthesize_structure,
    verify_reduction_consistency,
)
from mrayleigh.errors import (
    BadParameters,
    DegenerateA,
    DimensionMismatch,
    WrongVariant,
    ZeroLeadingSpeed,
)

rng = np.random.default_rng(20240817)


def test_speed_vector_phase():
    lam = SpeedVector(np.array([1.0, 2.0]))
    assert lam.m == 2
    assert lam.dot([3.0, 1.0]) == 5.0
    assert lam.z(7.0, [1.0, 2.0]) == 7.0 - 5.0
    assert lam.to_json() == [1.0, 2.0]


def test_speed_vector_rejects_degenerate_input():
    with pytest.raises(BadParameters):
        SpeedVector(np.zeros(3))
    with pytest.raises(BadParameters):
        SpeedVector(np.array([1.0, np.inf]))
    with pytest.raises(DimensionMismatch):
        SpeedVector(np.zeros((0,)))


def test_constant_coeffs_variant_detection():
    ray = constant_coeffs(1.0, 2.0, b=3.0)
    assert ray.variant is Variant.RAYLEIGH
    assert ray.kind is CoeffKind.CONSTANT
    assert ray.b(0.7) == 3.0
    with pytest.raises(WrongVariant):
        ray.d(0.0)

    vdp = constant_coeffs(1.0, 2.0, d=4.0)
    assert vdp.variant is Variant.VAN_DER_POL
    assert vdp.d(-1.3) == 4.0
    with pytest.raises(WrongVariant):
        vdp.b(0.0)

    with pytest.raises(BadParameters):
        constant_coeffs(1.0, 2.0, b=1.0, d=1.0)
    with pytest.raises(BadParameters):
        constant_coeffs(1.0, 2.0)


def test_degenerate_a_is_guarded_at_evaluation():
    bad = constant_coeffs(0.0, 1.0, b=1.0)
    with pytest.raises(DegenerateA):
        bad.a(0.3)
    # affine a(z) = z is fine away from the root, degenerate at it
    co = AffineCoeffs(1.0, 0.0, 0.0, 0.0, 1.0, 1.0).to_reduced()
    assert co.a(1.0) == 1.0
    with pytest.raises(DegenerateA):
        co.a(0.0)


_SECOND_SETS = {
    "constant-rayleigh": constant_coeffs(1.3, 0.7, b=0.4),
    "constant-vdp": constant_coeffs(1.3, -0.7, d=3.0),
    "affine": AffineCoeffs(0.1, 0.2, -0.3, 1.5, 0.4, 0.9).to_reduced(),
    "general-rayleigh": general_coeffs(math.exp, math.cos, b=lambda z: 0.5),
    "general-vdp": general_coeffs(math.exp, math.cos, d=lambda z: 3.0),
}


@pytest.mark.parametrize("name", _SECOND_SETS)
def test_second_at_one_phase_keeps_the_accessor_bits_and_type(name):
    # one phase takes the float path; the reference is the accessor
    # expression, and a 1-element array takes the array path
    co = _SECOND_SETS[name]
    draw = np.random.default_rng(1980)
    zs = [0.0, -0.0, 1.0, -2.0, *draw.uniform(-2.0, 2.0, 30)]
    states = draw.uniform(-2.0, 2.0, (len(zs), 2))
    states[:2, 1] = -0.0
    for z, (phi, psi) in zip(zs, states):
        phases = [float(z), np.float64(z), np.array(z), np.array([z])]
        if z == int(z):
            phases.append(int(z))
        for zz in phases:
            for p, q in ((phi, psi), (float(phi), float(psi))):
                got = co.second(zz, p, q)
                want = (co.cubic(zz, p, q) - co.c(zz) * q) / co.a(zz)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (zz, p, q)


def test_second_at_a_degenerate_phase_raises_the_array_message():
    co = AffineCoeffs(1.0, 0.0, 0.0, 0.0, 1.0, 1.0).to_reduced()    # a(z) = z
    for z in (0.0, -0.0, 5e-11, np.float64(0.0), np.array(0.0), 0):
        with pytest.raises(DegenerateA) as scalar:
            co.second(z, 0.5, 0.5)
        with pytest.raises(DegenerateA) as array:
            co.second(np.array([z], dtype=float), 0.5, 0.5)
        assert str(scalar.value) == str(array.value)


def test_affine_argument_order_is_slopes_then_constants():
    co = AffineCoeffs(1.0, 2.0, 3.0, 4.0, 5.0, 6.0).to_reduced()
    z = 2.0
    assert co.a(z) == 1.0 * z + 4.0
    assert co.b(z) == 2.0 * z + 5.0
    assert co.c(z) == 3.0 * z + 6.0


def test_coeffs_json_round_trip():
    for co in (constant_coeffs(2.0, -1.0, b=0.5),
               constant_coeffs(1.5, 0.0, d=3.0),
               AffineCoeffs(0.1, 0.2, 0.3, 1.0, 2.0, 3.0).to_reduced()):
        back = coeffs_from_json_dict(coeffs_to_json_dict(co))
        assert back.kind is co.kind and back.variant is co.variant
        for z in (-1.2, 0.0, 2.7):
            assert back.a(z) == co.a(z)
            assert back.c(z) == co.c(z)

    with pytest.raises(ValueError):
        coeffs_to_json_dict(general_coeffs(math.exp, math.exp, b=math.exp))


def test_reduce_contracts_constant_structure():
    # h = diag(2, 1), lambda = (1, 1): a = h^{ab} l_a l_b - 1 = 2
    st = constant_structure(np.diag([2.0, 1.0]), c=0.5, b=0.7)
    lam = SpeedVector(np.array([1.0, 1.0]))
    co = reduce(st, lam)
    for z in np.linspace(-2, 2, 7):
        assert abs(co.a(z) - 2.0) < 1e-14
        assert abs(co.c(z) - 0.5) < 1e-14   # C supported on index 1
        assert abs(co.b(z) - 0.7) < 1e-14   # B supported on (1,1,1)


def test_reduce_rejects_dimension_mismatch():
    st = constant_structure(np.eye(2), b=1.0)
    with pytest.raises(DimensionMismatch):
        reduce(st, SpeedVector(np.array([1.0, 1.0, 1.0])))


def test_synthesize_reduce_round_trip_constant():
    for m in (1, 2, 3):
        lam = SpeedVector(rng.uniform(0.5, 2.0, m))
        target = constant_coeffs(rng.uniform(0.5, 3.0), rng.uniform(-2, 2),
                                 b=rng.uniform(-2, 2))
        st = synthesize_structure(target, m, lam)
        got = reduce(st, lam)
        for z in np.linspace(-3, 3, 50):
            assert abs(got.a(z) - target.a(z)) <= 1e-12
            assert abs(got.c(z) - target.c(z)) <= 1e-12
            assert abs(got.b(z) - target.b(z)) <= 1e-12
        assert verify_reduction_consistency(st, lam)


def test_synthesize_reduce_round_trip_general():
    lam = SpeedVector(np.array([1.0, -0.5]))
    target = general_coeffs(a=lambda z: math.exp(0.3 * z),
                            c=lambda z: 1.0 + 0.1 * z,
                            d=lambda z: 3.0)
    st = synthesize_structure(target, 2, lam)
    assert st.variant is Variant.VAN_DER_POL
    got = reduce(st, lam)
    for z in np.linspace(-2, 2, 40):
        assert abs(got.a(z) - target.a(z)) <= 1e-12
        assert abs(got.d(z) - target.d(z)) <= 1e-12


def test_synthesize_reduce_round_trip_over_speeds_and_kinds():
    # constant Rayleigh, constant Van der Pol and affine Rayleigh targets come
    # back from their canonical structure at random speeds; a synthesized
    # structure ignores the jet, so a profile probe changes nothing
    gen = np.random.default_rng(0)
    prof = soliton_arcsinh(1.0, 1.0, 1.0, 1.0)
    zs = np.linspace(-3.0, 3.0, 50)
    for trial in range(300):
        m = int(gen.integers(1, 5))
        lam_vals = gen.uniform(-2.0, 2.0, m)
        lam_vals[0] = gen.choice([-1.0, 1.0]) * gen.uniform(0.3, 2.0)
        lam = SpeedVector(lam_vals)
        a, c, cubic = gen.uniform(0.5, 3.0), gen.uniform(-2.0, 2.0), gen.uniform(-2.0, 2.0)
        if trial % 3 == 0:
            target, slot = constant_coeffs(a, c, b=cubic), "b"
        elif trial % 3 == 1:
            target, slot = constant_coeffs(a, c, d=cubic), "d"
        else:
            slopes = gen.choice([-1.0, 1.0], 3) * gen.uniform(0.05, 0.3, 3)
            target, slot = AffineCoeffs(*slopes, a + 1.0, c, cubic).to_reduced(), "b"
        st = synthesize_structure(target, m, lam)
        got = reduce(st, lam)
        probed = reduce(st, lam, probe=prof)
        assert got.kind is probed.kind is target.kind
        for name in ("a", "c", slot):
            want = getattr(target, name)(zs)
            vals = getattr(got, name)(zs)
            assert np.all(np.abs(vals - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            assert np.array_equal(getattr(probed, name)(zs), vals)


def test_synthesize_needs_leading_speed():
    target = constant_coeffs(1.0, 1.0, b=1.0)
    with pytest.raises(ZeroLeadingSpeed):
        synthesize_structure(target, 2, SpeedVector(np.array([0.0, 1.0])))


def test_prolongation_structure_satisfies_index1_condition():
    for variant in (Variant.RAYLEIGH, Variant.VAN_DER_POL):
        st = prolongation_structure(2, 0.3, variant)
        assert st.variant is variant
        pts = [EvalPoint(rng.normal(), rng.normal(size=2),
                         eta=rng.normal(), xi=np.array([rng.normal(), 0.0]))
               for _ in range(25)]
        assert check_constraint(st, pts)
    with pytest.raises(DimensionMismatch, match="m must be at least 1"):
        prolongation_structure(0, 0.3)


def test_check_constraint_fails_for_unbalanced_damping():
    # constant C with zero Gamma cannot balance: lhs = 0, rhs = C^1 xi_1
    st = constant_structure(np.eye(2), c=1.0)
    pt = EvalPoint(0.0, np.zeros(2), eta=0.0, xi=np.array([0.4, 0.0]))
    assert not check_constraint(st, [pt])


def test_verify_reduction_consistency_detects_non_reducible():
    lam = SpeedVector(np.array([1.0, 1.0]))

    def h(x, t, eta, xi):
        return np.eye(2) * (1.0 + 0.5 * t[0])  # depends on t beyond the phase

    st_bad = constant_structure(np.eye(2), b=1.0)
    st_bad = type(st_bad)(m=2, h=h, gamma=st_bad.gamma, c_field=st_bad.c_field,
                          b_field=st_bad.b_field)
    assert not verify_reduction_consistency(st_bad, lam)


def test_check_constraint_fails_on_a_nan_c_field():
    st = replace(constant_structure(np.eye(2), b=1.0),
                 c_field=lambda x, t, eta, xi: np.full(2, math.nan))
    pt = EvalPoint(0.0, np.zeros(2), eta=0.0, xi=np.array([0.4, 0.0]))
    assert not check_constraint(st, [pt])


def test_verify_reduction_consistency_fails_on_a_nan_h():
    st = replace(constant_structure(np.eye(2), b=1.0),
                 h=lambda x, t, eta, xi: np.full((2, 2), math.nan))
    assert not verify_reduction_consistency(st, SpeedVector(np.array([1.0, 1.0])))


def test_reduce_lets_a_field_type_error_propagate():
    # C is first evaluated while classifying; a programming error there must
    # surface instead of tagging the coefficients as general
    def broken_c(x, t, eta, xi):
        raise TypeError("broken field")

    st = replace(constant_structure(np.eye(1), b=1.0), c_field=broken_c)
    with pytest.raises(TypeError, match="broken field"):
        reduce(st, SpeedVector(np.array([2.0])))


def test_reduce_tags_a_profile_probe_past_its_domain_as_general():
    # the arccosh half-line ends at z = 1: it holds the reference phase 0
    # but not the classification sample at 1.4
    prof = soliton_arccosh(1.0, 1.0, 1.0, math.e)
    lam = SpeedVector(np.array([1.0, 1.0]))
    st = synthesize_structure(constant_coeffs(2.0, 1.0, b=1.0), 2, lam)
    co = reduce(st, lam, probe=prof)
    assert co.kind is CoeffKind.GENERAL and co.params is None
    assert abs(co.a(0.5) - 2.0) <= 1e-14
