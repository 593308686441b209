import math
from dataclasses import replace

import numpy as np
import pytest

from mrayleigh.coefficients import (
    EvalPoint,
    GeometricStructure,
    SpeedVector,
    constant_structure,
    prolongation_structure,
)
from mrayleigh.errors import ConditionViolated, DimensionMismatch
from mrayleigh.geometry import (
    FieldFunction,
    GridSpec,
    ResidualReport,
    box,
    check_prolongation,
    check_reversibility,
    hessian,
    prolong_field,
    residual,
    stationary_solution,
    traveling_sine,
)

rng = np.random.default_rng(91)


def _random_constant_structure(m, variant="rayleigh"):
    A = rng.normal(size=(m, m))
    h = A + A.T
    c = rng.normal(size=m)
    if variant == "rayleigh":
        b = rng.normal()
        return constant_structure(h, c=c, b=np.full((m, m, m), b))
    return constant_structure(h, c=c, d=rng.normal(size=m))


def _sin_exp_field(m):
    """u = sin(x + t1) * exp(0.3 t_m), with its analytic jet."""

    def jet(x, t):
        e = math.exp(0.3 * t[-1])
        u = math.sin(x + t[0]) * e
        grad = np.zeros(m)
        grad[0] += math.cos(x + t[0]) * e
        grad[-1] += 0.3 * u
        hess = np.zeros((m, m))
        hess[0, 0] += -math.sin(x + t[0]) * e
        hess[0, -1] += 0.3 * math.cos(x + t[0]) * e
        hess[-1, 0] += 0.3 * math.cos(x + t[0]) * e
        hess[-1, -1] += 0.09 * u
        return u, grad, hess, -math.sin(x + t[0]) * e

    return FieldFunction(jet, m=m)


def test_stationary_solution_gives_exactly_zero_residual():
    u = stationary_solution(1.7, -0.4)
    for m in (1, 2, 3):
        for variant in ("rayleigh", "vdp"):
            st = _random_constant_structure(m, variant)
            for _ in range(5):
                x, t = rng.normal(), rng.normal(size=m)
                assert residual(u, st, x, t) == 0.0


def test_box_is_linear_for_analytic_fields():
    m = 2
    st = _random_constant_structure(m)
    u = _sin_exp_field(m)
    v = stationary_solution(0.5, 2.0)
    al, be = 1.3, -0.7

    w = FieldFunction(lambda x, t: tuple(al * p + be * q
                                         for p, q in zip(u.at(x, t), v.at(x, t))), m=m)
    for _ in range(10):
        x, t = rng.normal(), rng.normal(size=m)
        lhs = box(w, st, x, t)
        rhs = al * box(u, st, x, t) + be * box(v, st, x, t)
        assert abs(lhs - rhs) <= 1e-12


def test_hessian_symmetry():
    m = 3
    st = _random_constant_structure(m)
    u = _sin_exp_field(m)
    H = hessian(u, st, 0.3, np.array([0.1, -0.2, 0.5]))
    assert np.max(np.abs(H - H.T)) <= 1e-9


def test_reversibility_parity():
    m = 2
    pts = [EvalPoint(rng.normal(), rng.normal(size=m)) for _ in range(20)]

    def odd_c(x, t, eta, xi):
        return np.array([t[0], t[1] ** 3])

    def odd_b(x, t, eta, xi):
        out = np.zeros((m, m, m))
        out[0, 0, 0] = t[0]
        return out

    st_odd = GeometricStructure(m=m, h=lambda *a: np.eye(m),
                                gamma=lambda *a: np.zeros((m, m, m)),
                                c_field=odd_c, b_field=odd_b)
    assert check_reversibility(st_odd, pts)

    st_const = constant_structure(np.eye(m), c=np.array([1.0, 0.0]))
    assert not check_reversibility(st_const, pts)

    st_zero = constant_structure(np.eye(m))
    assert check_reversibility(st_zero, pts)


def test_reversibility_reflects_residuals():
    # for an odd structure, u(x, -t) has the reflected residual field
    m = 2

    def odd_c(x, t, eta, xi):
        return np.array([t[0], 0.5 * t[1]])

    def odd_b(x, t, eta, xi):
        out = np.zeros((m, m, m))
        out[0, 0, 0] = 2.0 * t[0]
        return out

    st = GeometricStructure(m=m, h=lambda *a: np.eye(m),
                            gamma=lambda *a: np.zeros((m, m, m)),
                            c_field=odd_c, b_field=odd_b)
    u = _sin_exp_field(m)

    def refl_jet(x, t):
        eta, xi, hess, d2x = u.at(x, -t)
        return eta, -xi, hess, d2x

    refl = FieldFunction(refl_jet, m=m)
    for _ in range(10):
        x, t = rng.normal(), rng.normal(size=m)
        r_orig = residual(u, st, x, -t)
        r_refl = residual(refl, st, x, t)
        assert abs(r_refl - r_orig) <= 1e-9


def test_vdp_residual_uses_eta_squared_damping():
    m = 1
    st = constant_structure(np.array([[2.0]]), c=0.0, d=np.array([1.0]))
    u = FieldFunction(lambda x, t: (t[0] ** 2, np.array([2.0 * t[0]]),
                                    np.array([[2.0]]), 0.0), m=1)
    # residual = h u_tt + u^2 d u_t - u_xx = 4 + t^4 * 2t
    got = residual(u, st, 0.0, np.array([1.5]))
    want = 4.0 + (1.5 ** 2) ** 2 * (2.0 * 1.5)
    assert abs(got - want) <= 1e-12


def test_grid_spec_shapes():
    g = GridSpec((0.0, 1.0, 3), ((0.0, 2.0, 2), (0.0, 1.0, 4)))
    assert g.m == 2
    assert g.n_points() == 3 * 2 * 4
    pts = list(g.points())
    assert len(pts) == 24
    x0, t0 = pts[0]
    assert x0 == 0.0 and t0.shape == (2,)
    xs = g.axis_values()[0]
    assert np.allclose(xs, [0.0, 0.5, 1.0])


def test_residual_report_serialization():
    g = GridSpec((0.0, 1.0, 2), ((0.0, 1.0, 2),))
    rep = check_prolongation(traveling_sine(), prolongation_structure(1, 0.0),
                             grid=g)
    assert isinstance(rep, ResidualReport)
    d = rep.to_json_dict()
    assert set(d) == {"labels", "points", "residuals", "max_abs", "rms"}
    assert rep.csv_header() == ["x", "t1", "residual"]
    assert len(list(rep.csv_rows())) == len(rep.residuals)


def test_prolonged_sine_solves_multitime_equation():
    grid = GridSpec((0.0, 2.0 * math.pi, 9),
                    ((0.0, 1.0, 5), (0.0, 1.0, 3), (0.0, 1.0, 3)))
    rep = check_prolongation(traveling_sine(), prolongation_structure(3, 0.0),
                             grid=grid)
    assert rep.max_abs <= 1e-6


def test_prolonged_stationary_field_has_zero_residual():
    grid = GridSpec((-1.0, 1.0, 5), ((0.0, 1.0, 3), (0.0, 1.0, 3)))
    rep = check_prolongation(stationary_solution(0.8, 0.1),
                             prolongation_structure(2, 0.5), grid=grid)
    assert rep.max_abs == 0.0


def test_check_prolongation_rejects_unbalanced_structure():
    st = constant_structure(np.eye(3), c=np.array([1.0, 0.0, 0.0]))
    grid = GridSpec((0.0, 1.0, 3), ((0.0, 1.0, 2), (0.0, 1.0, 2), (0.0, 1.0, 2)))
    with pytest.raises(ConditionViolated):
        check_prolongation(traveling_sine(), st, grid=grid)


def test_check_prolongation_grid_argument_forms():
    grid = GridSpec((0.0, 1.0, 3), ((0.0, 1.0, 2),))
    st = prolongation_structure(1, 0.0)
    a = check_prolongation(traveling_sine(), st, grid)
    b = check_prolongation(traveling_sine(), st, grid=grid)
    assert np.array_equal(a.residuals, b.residuals)
    with pytest.raises(TypeError):
        check_prolongation(traveling_sine(), st)


def test_prolong_field_dimension_guard():
    u3 = _sin_exp_field(3)
    with pytest.raises(DimensionMismatch):
        prolong_field(u3, 4)


def test_check_prolongation_keeps_the_single_time_guard():
    grid = GridSpec((0.0, 1.0, 3), ((0.0, 1.0, 2),) * 3)
    with pytest.raises(DimensionMismatch, match="can only prolong a single-time field"):
        check_prolongation(_sin_exp_field(3), prolongation_structure(3, 0.0), grid)


@pytest.fixture(scope="module")
def single_time_fields():
    from mrayleigh.oracle import integrate_single_time_rayleigh
    sol = integrate_single_time_rayleigh(0.1, lambda x: 0.1 * math.sin(x), lambda x: 0.0,
                                         1.0, n_x=32, n_t=21)
    return {"spectral": (sol.as_field(), 0.1), "sine": (traveling_sine(), 0.0),
            "stationary": (stationary_solution(0.8, 0.1), 0.5)}


@pytest.mark.parametrize("name", ["spectral", "sine", "stationary"])
@pytest.mark.parametrize("m, later", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 3)])
@pytest.mark.parametrize("n_x, n_t1", [(7, 5), (1, 5), (7, 1)])
def test_check_prolongation_gives_the_bits_of_the_pointwise_residual(
        single_time_fields, name, m, later, n_x, n_t1):
    # the reference evaluates the prolonged field at every grid point
    u1, eps = single_time_fields[name]
    st = prolongation_structure(m, eps)
    grid = GridSpec((0.0, 2.0 * math.pi, n_x),
                    ((0.05, 0.95, n_t1),) + ((0.0, 1.0, later),) * (m - 1))
    x, t = grid.arrays()
    ref = ResidualReport.from_samples(
        np.column_stack([x, t]),
        np.broadcast_to(residual(prolong_field(u1, m), st, x, t), x.shape),
        grid.labels())
    rep = check_prolongation(u1, st, grid)
    assert rep.points.tobytes() == ref.points.tobytes()
    assert rep.residuals.tobytes() == ref.residuals.tobytes()
    assert (rep.max_abs, rep.rms, rep.labels) == (ref.max_abs, ref.rms, ref.labels)


def test_reversibility_fails_on_a_nan_c_field():
    st = replace(constant_structure(np.eye(2)),
                 c_field=lambda x, t, eta, xi: np.full(2, math.nan))
    assert not check_reversibility(st, [EvalPoint(0.3, np.array([0.5, -0.2]))])


def test_check_prolongation_rejects_a_nan_index1_gap():
    st = replace(prolongation_structure(2, 0.5),
                 c_field=lambda x, t, eta, xi: np.full(np.shape(x) + (2,), math.nan))
    grid = GridSpec((0.0, 1.0, 3), ((0.0, 1.0, 2), (0.0, 1.0, 2)))
    with pytest.raises(ConditionViolated):
        check_prolongation(traveling_sine(), st, grid=grid)
