import math
from dataclasses import replace

import numpy as np
import pytest

from mrayleigh.closed_form import soliton_arccosh, soliton_arcsinh
from mrayleigh.coefficients import (
    AffineCoeffs,
    CoeffKind,
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


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_lambda_contractions_sum_in_one_written_order(m):
    # innermost index first, each sum left to right: the reference contracts
    # T's trailing axis over all its rows at once; einsum, whose order follows
    # its kernel, agrees to rounding
    lam = SpeedVector(rng.uniform(-1.5, 1.5, m))
    eps = np.finfo(float).eps
    for rank in (1, 2, 3):
        T = rng.uniform(-1.0, 1.0, (7,) + (m,) * rank)
        want, size = T, np.abs(T)
        for _ in range(rank):
            acc, mag = want[..., 0] * lam.values[0], size[..., 0] * abs(lam.values[0])
            for g in range(1, m):
                acc = acc + want[..., g] * lam.values[g]
                mag = mag + size[..., g] * abs(lam.values[g])
            want, size = acc, mag
        got = lam.contract(T, rank)
        assert got.tobytes() == want.tobytes(), rank
        assert [lam.contract(row, rank) for row in T] == want.tolist(), rank
        letters = "abc"[:rank]
        ein = np.einsum(f"...{letters}," + ",".join(letters) + "->...", T, *[lam.values] * rank)
        assert np.all(np.abs(got - ein) <= 2 * rank * m * eps * size), rank
    with pytest.raises(DimensionMismatch):
        lam.dot(np.ones(m + 1))
    with pytest.raises(DimensionMismatch):
        lam.contract(np.ones((m, m + 1)), 2)


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
    # a(z) = z, for both variants
    for co in (AffineCoeffs(1.0, 0.0, 0.0, 0.0, 1.0, 1.0).to_reduced(),
               general_coeffs(lambda z: z, math.cos, d=lambda z: 3.0)):
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

    # an affine Van der Pol payload reads back as its lines and writes itself
    affine = {"kind": "affine", "variant": "van_der_pol",
              "a": [0.1, 2.0], "c": [0.0, 0.5], "d": [1.0, 1.0]}
    back = coeffs_from_json_dict(affine)
    assert (back.kind, back.variant) == (CoeffKind.AFFINE, Variant.VAN_DER_POL)
    assert coeffs_to_json_dict(back) == affine
    for z in (-1.2, 0.0, 2.7):
        for got, want in ((back.a(z), 2 + 0.1 * z), (back.c(z), 0.5), (back.d(z), 1 + z)):
            assert abs(got - want) <= 1e-14

    # a payload whose values disagree with its kind is rejected
    const = coeffs_to_json_dict(constant_coeffs(1.5, 0.0, d=3.0))
    for payload in ({**const, "a": [0.1, 2.0]}, {**affine, "a": 2.0}):
        with pytest.raises(ValueError, match="do not match their values"):
            coeffs_from_json_dict(payload)

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


def test_reduce_rejects_a_vanishing_a_at_the_anchor():
    # h = 1 and lambda = 1 give a = h^{11} lambda_1 lambda_1 - 1 = 0
    with pytest.raises(DegenerateA, match=r"a\(0\.0\) = 0\.0 at the probed point"):
        reduce(constant_structure(np.eye(1), b=1.0), SpeedVector(np.array([1.0])))


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

    # c vanishes at every multiple of 0.7 and a, b are constant, so values
    # sampled on that lattice read as constant; reduce must not stamp a kind
    # that serializes c as 0
    target = general_coeffs(a=lambda z: 2.0, c=lambda z: math.sin(math.pi * z / 0.7),
                            b=lambda z: 1.0)
    got = reduce(synthesize_structure(target, 2, lam), lam)
    for z in (0.35, 1.0):
        assert abs(got.c(z) - target.c(z)) <= 1e-12
    assert got.kind is CoeffKind.GENERAL and got.params is None
    with pytest.raises(ValueError):
        coeffs_to_json_dict(got)


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
        pts = [(rng.normal(), rng.normal(size=2), rng.normal(), np.array([rng.normal(), 0.0]))
               for _ in range(25)]
        x, t, eta, xi = (np.array(col) for col in zip(*pts))
        assert check_constraint(st, x, t, eta, xi)
    with pytest.raises(DimensionMismatch, match="m must be at least 1"):
        prolongation_structure(0, 0.3)


def test_check_constraint_fails_for_unbalanced_damping():
    # constant C with zero Gamma cannot balance: lhs = 0, rhs = C^1 xi_1
    st = constant_structure(np.eye(2), c=1.0)
    assert not check_constraint(st, 0.0, np.zeros(2), 0.0, np.array([0.4, 0.0]))


def test_check_constraint_judges_a_stack_as_all_of_its_rows():
    gen = np.random.default_rng(19)
    n, m = 30, 3
    x, t = gen.uniform(-2.0, 2.0, n), gen.normal(size=(n, m))
    eta, xi = gen.normal(size=n), gen.normal(size=(n, m))
    x[int(gen.integers(n))] = 3.0       # the one row where Gamma is off
    for variant in Variant:
        st = prolongation_structure(m, 0.3, variant)
        off = replace(st, gamma=lambda x, t, eta, xi, g=st.gamma:
                      g(x, t, eta, xi) * np.where(x > 2.0, 1.5, 1.0)[..., None, None, None])
        assert check_constraint(st, x, t, eta, xi)
        rows = [check_constraint(off, *point) for point in zip(x, t, eta, xi)]
        assert rows.count(False) == 1
        assert check_constraint(off, x, t, eta, xi) is all(rows)
        # a wrong m, or xi of another shape than t
        for t_bad, xi_bad in ((t[:, :2], xi[:, :2]), (t, xi[:, :2]), (t[0], xi)):
            with pytest.raises(DimensionMismatch, match="t and xi must have shape"):
                check_constraint(st, x, t_bad, eta, xi_bad)
    # x and eta each one value or one per point: 7 x values for 4 times
    with pytest.raises(DimensionMismatch, match="x and eta must have shape"):
        check_constraint(constant_structure(np.eye(2), b=1.0), np.zeros(7), np.zeros((4, 2)),
                         0.0, np.zeros((4, 2)))


def test_verify_reduction_consistency_detects_non_reducible():
    lam = SpeedVector(np.array([1.0, 1.0]))

    def h(x, t, eta, xi):
        return np.eye(2) * (1.0 + 0.5 * t[..., 0, None, None])  # depends on t beyond the phase

    st_bad = constant_structure(np.eye(2), b=1.0)
    st_bad = type(st_bad)(m=2, h=h, gamma=st_bad.gamma, c_field=st_bad.c_field,
                          b_field=st_bad.b_field)
    assert not verify_reduction_consistency(st_bad, lam)


def test_check_constraint_fails_on_a_nan_c_field():
    st = replace(constant_structure(np.eye(2), b=1.0),
                 c_field=lambda x, t, eta, xi: np.full(2, math.nan))
    assert not check_constraint(st, 0.0, np.zeros(2), 0.0, np.array([0.4, 0.0]))


def test_verify_reduction_consistency_fails_on_a_nan_h():
    st = replace(constant_structure(np.eye(2), b=1.0),
                 h=lambda x, t, eta, xi: np.full((2, 2), math.nan))
    assert not verify_reduction_consistency(st, SpeedVector(np.array([1.0, 1.0])))


def test_reduce_lets_a_field_type_error_propagate():
    # reduce evaluates only a at the anchor, so C is first evaluated at the
    # first c(...) call; a programming error there must surface as itself
    def broken_c(x, t, eta, xi):
        raise TypeError("broken field")

    st = replace(constant_structure(np.eye(1), b=1.0), c_field=broken_c)
    co = reduce(st, SpeedVector(np.array([2.0])))
    with pytest.raises(TypeError, match="broken field"):
        co.c(0.0)


def test_reduce_tags_a_profile_probe_past_its_domain_as_general():
    # the arccosh half-line ends at z = 1: it holds the anchor phase 0 that
    # reduce probes, and a is read at 0.5 inside it
    prof = soliton_arccosh(1.0, 1.0, 1.0, math.e)
    lam = SpeedVector(np.array([1.0, 1.0]))
    st = synthesize_structure(constant_coeffs(2.0, 1.0, b=1.0), 2, lam)
    co = reduce(st, lam, probe=prof)
    assert co.kind is CoeffKind.GENERAL and co.params is None
    assert abs(co.a(0.5) - 2.0) <= 1e-14
