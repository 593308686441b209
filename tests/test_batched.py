"""The batched evaluation core against pointwise references.

Profiles, fields and structures evaluate a whole stack of points in one
call; a single point still gives Python floats, with the bits of its row in
any stack.  The references here are built one point at a time from scalar
calls, as the sweep used to be.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mrayleigh.closed_form import (
    Interval,
    _first_integral_antiderivative,
    _positive_run,
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
    SpeedVector,
    Variant,
    constant_coeffs,
    general_coeffs,
    prolongation_structure,
    reduce,
    synthesize_structure,
)
from mrayleigh.errors import DegenerateA, DomainExceeded
from mrayleigh.geometry import GridSpec, prolong_field, residual
from mrayleigh.oracle import integrate_reduction, integrate_single_time_rayleigh, residual_sweep
from mrayleigh.series import AffineCoeffs, series_coefficients, series_soliton

EXP_CO = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
SQ2 = 1.0 / math.sqrt(2.0)


def _families():
    """(name, profile, x window kept inside the domain)."""
    return [
        ("quadrature", soliton_quadrature(constant_coeffs(1.0, 1.0, b=1.0), K=4.0,
                                          z0=0.0, domain=(-2.0, 2.0)), (-1.5, 1.5)),
        ("arccosh", soliton_arccosh(1.0, 1.0, 1.0, math.e), (-3.0, 0.5)),
        ("arcsinh", soliton_arcsinh(1.0, 1.0, 1.0, 1.0), (-3.0, 3.0)),
        ("arcsin", soliton_arcsin(1.0, -1.0, 1.0, 1.0), (0.5, 4.0)),
        ("vdp-implicit", vdp_implicit(EXP_CO, k1=0.0, z0=0.0, phi0=SQ2,
                                      domain=(-2.0, 2.0)), (-1.5, 1.5)),
        ("vdp-implicit-k1", vdp_implicit(EXP_CO, k1=0.25, z0=0.0, phi0=1.0,
                                         domain=(-2.0, 2.0)), (-1.5, 0.5)),
        ("vdp-explicit", vdp_explicit(1.0, 1.0, 3.0, 1.0), (-3.0, 3.0)),
        ("series", series_soliton(series_coefficients(
            AffineCoeffs.from_sextuple((0, 0, 0, 1, 0, 1)), 0.0, 1.0, 60)), (-2.0, 2.0)),
    ]


def _pointwise_residual(prof, st, x, t):
    """The sweep residual at one point from scalar calls (the unbatched formula)."""
    lv = prof.lam.values
    z = x - float(np.dot(lv, t))
    eta, p1, p2 = prof.phi(z), prof.phi_prime(z), prof.phi_second(z)
    xi = -lv * p1
    h = np.asarray(st.h(x, t, eta, xi), float)
    C = np.asarray(st.c_field(x, t, eta, xi), float)
    val = float(np.einsum("ab,ab", h, np.outer(lv, lv) * p2))
    val -= float(np.dot(C, xi))
    if st.variant is Variant.RAYLEIGH:
        B = np.asarray(st.b_field(x, t, eta, xi), float)
        val += float(np.einsum("abc,a,b,c", B, xi, xi, xi))
    else:
        D = np.asarray(st.d_field(x, t, eta, xi), float)
        val += eta * eta * float(np.dot(D, xi))
    return val - p2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_sweep_matches_pointwise_reference(m):
    lam = SpeedVector(np.linspace(1.0, 0.5, m))
    n_t = {1: (12,), 2: (4, 3), 3: (3, 2, 2)}[m]
    for name, prof, (xlo, xhi) in _families():
        lifted = with_speed(prof, lam)
        st = synthesize_structure(lifted.coeffs, m, lam)
        grid = GridSpec((xlo, xhi, 15), tuple((0.0, 0.1, k) for k in n_t))
        rep = residual_sweep(lifted, st, grid)
        ref = [_pointwise_residual(lifted, st, x, t) for x, t in grid.points()]
        dev = float(np.max(np.abs(rep.residuals - ref)))
        assert dev <= 1e-14, f"{name} m={m}: batched and pointwise differ by {dev}"


def test_skip_drops_exactly_the_points_outside_the_domain():
    lam = SpeedVector(np.array([1.0, 1.0]))
    prof = with_speed(soliton_arccosh(1.0, 1.0, 1.0, math.e), lam)   # z <= 1
    st = synthesize_structure(prof.coeffs, 2, lam)
    grid = GridSpec((0.0, 2.5, 11), ((0.0, 0.5, 4), (0.0, 0.5, 3)))
    rep = residual_sweep(prof, st, grid, skip_out_of_domain=True)
    inside = [[x, *t] for x, t in grid.points() if prof.domain.contains(lam.z(x, t))]
    dropped = grid.n_points() - len(inside)
    assert 0 < dropped < grid.n_points()
    assert rep.residuals.size + dropped == grid.n_points()
    assert np.array_equal(rep.points, inside)


def test_profile_callables_keep_the_scalar_contract():
    extra = [("vdp-direct", vdp_implicit(EXP_CO, k1=0.0, z0=0.0, phi0=SQ2,
                                         domain=(-2.0, 2.0), square_relation="direct"),
              (-1.5, 0.0))]
    for name, prof, (lo, hi) in _families() + extra:
        zs = np.linspace(lo, hi, 7)
        for fn in (prof.phi, prof.phi_prime, prof.phi_second):
            for z in (float(zs[3]), zs[3]):
                assert type(fn(z)) is float, f"{name}: {fn(z)!r}"
            stacked = fn(zs)
            assert isinstance(stacked, np.ndarray) and stacked.shape == zs.shape
            assert np.array_equal(stacked, [fn(float(z)) for z in zs]), name


@pytest.mark.parametrize("k1, phi0", [(0.25, 1.0), (0.25, 0.1), (-0.5, 1.0), (2.0, -3.0)])
def test_branch_solver_agrees_with_brentq(k1, phi0):
    L = _first_integral_antiderivative(k1)
    side = 1.0 if phi0 > k1 else -1.0
    far_scale = max(1.0, abs(k1), 4.0 * abs(phi0 - k1))
    want = k1 + side * np.geomspace(1e-8, 1e2, 60) * far_scale
    target = L(want)
    got = _solve_branch(L, k1, side, far_scale, target)
    for g, w, tg in zip(got, want, target):
        lo, hi = sorted((k1 + side * 1e-12 * far_scale, k1 + side * 1e4 * far_scale))
        ref = brentq(lambda p: L(p) - tg, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
        # brentq's own tolerance, plus the rounding of L over L'(phi) that
        # leaves any root defined only to that width
        floor = 4.0 * np.finfo(float).eps * max(1.0, abs(tg)) * abs(ref ** 3 - k1 ** 3) / 3.0
        assert abs(g - ref) <= 1e-14 + 8.9e-16 * abs(ref) + floor, (g, ref, w)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _fitted_antiderivatives(monkeypatch, build):
    """Each Chebyshev antiderivative that ``build()`` makes, paired with numpy's
    own series on the coefficients it fitted."""
    import mrayleigh.closed_form as cf
    from numpy.polynomial import chebyshev

    fits, pairs = [], []
    fit, antiderivative = chebyshev.chebinterpolate, cf._cheb_antiderivative

    def spy_fit(fn, deg):
        fits.append(fit(fn, deg))
        return fits[-1]

    def spy(fn, lo, hi, anchor):
        got = antiderivative(fn, lo, hi, anchor)
        ref = chebyshev.Chebyshev(fits[-1], domain=[lo, hi]).integ(1, lbnd=anchor)
        pairs.append((got, ref))
        return got

    monkeypatch.setattr(chebyshev, "chebinterpolate", spy_fit)
    monkeypatch.setattr(cf, "_cheb_antiderivative", spy)
    build()
    return pairs


def test_chebyshev_antiderivatives_evaluate_as_numpy_does(monkeypatch):
    rng = np.random.default_rng(12)
    a, b, c = rng.uniform(0.5, 2.0, 3)
    builds = [
        # the CLI's default quadrature window, where the fit stops at CHEB_MAX_DEGREE
        lambda: soliton_quadrature(constant_coeffs(1.0, 1.0, b=1.0), K=4.0,
                                   domain=(-10.0, 10.0)),
        lambda: soliton_quadrature(constant_coeffs(a, c, b=b), K=rng.uniform(1.0, 3.0),
                                   domain=(-3.0, 3.0)),
        lambda: soliton_quadrature(general_coeffs(a=math.exp, c=lambda z: 1.0,
                                                  b=lambda z: 0.5), K=2.0, domain=(-2.0, 2.0)),
        lambda: vdp_implicit(EXP_CO, k1=0.0, phi0=rng.uniform(0.68, 0.72), domain=(-4.9, 0.5)),
        lambda: vdp_implicit(EXP_CO, k1=0.25, phi0=1.0, domain=(-2.0, 2.0)),
    ]
    pairs = [p for build in builds for p in _fitted_antiderivatives(monkeypatch, build)]
    assert max(ref.coef.size for _, ref in pairs) == 1026
    for got, ref in pairs:
        zs = np.linspace(*ref.domain, 41)
        for z in (float(zs[7]), zs[7], zs[7:8], zs, zs[:40].reshape(5, 8)):
            out, want = got(z), ref(z)
            assert np.shape(out) == np.shape(want)
            assert _bits(out) == _bits(want), (ref.coef.size, z)


def test_scalar_calls_give_the_bits_of_the_array_call():
    for name, prof, (lo, hi) in _families():
        zs = np.concatenate([np.linspace(lo, hi, 23), [0.0, -0.0]])
        zs = zs[prof.domain.contains(zs)]
        for fn in (prof.phi, prof.phi_prime, prof.phi_second):
            stacked = fn(zs)
            for i, z in enumerate(zs):
                for arg in (float(z), z):
                    one = fn(arg)
                    assert type(one) is float, name
                    assert _bits(one) == stacked[i].tobytes(), (name, z)
    # the fresh integration's interpolants, at and between their nodes
    for name, prof, (lo, hi) in _families():
        if name not in ("quadrature", "arcsinh", "vdp-explicit", "vdp-implicit"):
            continue
        z0 = 0.5 * (lo + hi)
        ivp = integrate_reduction(prof.coeffs, prof.phi(z0), prof.phi_prime(z0),
                                  span=(lo, hi), z0=z0)
        nodes = ivp.nodes
        zs = np.concatenate([nodes, 0.5 * (nodes[1:] + nodes[:-1]), ivp.span])
        for fn in (ivp.phi, ivp.phi_prime, ivp.phi_second):
            stacked = fn(zs)
            for i, z in enumerate(zs.tolist()):
                for arg in (z, np.float64(z)):
                    one = fn(arg)
                    assert type(one) is float, name
                    assert _bits(one) == stacked[i].tobytes(), (name, z)
            for z in (lo - 0.5, hi + 0.5):
                with pytest.raises(DomainExceeded) as one:
                    fn(z)
                with pytest.raises(DomainExceeded) as stacked:
                    fn(np.array([z]))
                assert str(one.value) == str(stacked.value), (name, z)


def test_scalar_domain_check_words_its_failure_as_the_array_check(monkeypatch):
    import mrayleigh.closed_form as cf

    def message(fn, z):
        with pytest.raises(DomainExceeded) as err:
            fn(z)
        return str(err.value)

    checks = []
    check = cf._check_domain
    monkeypatch.setattr(cf, "_check_domain", lambda dom, z: checks.append(z) or check(dom, z))
    callables = [(name, prof.domain, (prof.phi, prof.phi_prime, prof.phi_second))
                 for name, prof, _ in _families()]
    callables += [(f"{name} ivp", Interval(*ivp.span), (ivp.phi, ivp.phi_prime, ivp.phi_second))
                  for name, ivp in _ivps()]
    for name, dom, fns in callables:
        lo, hi = dom.outer
        edges = [(e, toward) for e, toward in ((lo, -math.inf), (hi, math.inf))
                 if math.isfinite(e)]
        outside = [np.nextafter(e, toward) for e, toward in edges]
        outside += [toward for _, toward in edges] + [math.nan]
        for fn in fns:
            for e, _ in edges:
                assert type(fn(e)) is float     # the slack edge itself is inside
            assert not checks, name             # two float comparisons decided
            for z in outside:
                assert message(fn, z) == message(fn, np.array([z])), (name, z)
            checks.clear()


def _ivps():
    """Fresh integrations through four profiles' data at the middle of their windows."""
    out = []
    for name, prof, (lo, hi) in _families():
        if name in ("quadrature", "arcsinh", "vdp-explicit", "vdp-implicit"):
            z0 = 0.5 * (lo + hi)
            out.append((name, integrate_reduction(prof.coeffs, prof.phi(z0), prof.phi_prime(z0),
                                                  span=(lo, hi), z0=z0)))
    return out


def _targets(rng):
    """Constant and general targets of both variants, and an affine Rayleigh one
    (affine coefficients are Rayleigh only)."""
    a0, b0, c0, a1, b1, c1 = rng.uniform(0.5, 2.0, 6)
    return [
        constant_coeffs(a0, c0, b=b0),
        constant_coeffs(a0, c0, d=b0),
        AffineCoeffs(0.1 * a1, b1, c1, a0 + 1.0, b0, c0).to_reduced(),
        general_coeffs(a=lambda z: a0 * math.exp(z) + 0.5, c=math.cos, d=lambda z: b0 * z),
        general_coeffs(a=lambda z: a0 * math.exp(0.3 * z) + 0.1, c=math.cos, b=math.sin),
    ]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_phase_of_a_reduced_structure_gives_the_bits_of_the_array_call(m):
    rng = np.random.default_rng(40 + m)
    lam = SpeedVector(rng.uniform(0.3, 1.5, m) * rng.choice([-1.0, 1.0], m))
    probe = soliton_arcsinh(1.0, 1.0, 1.0, 1.0, lam=lam)
    zs = np.concatenate([rng.uniform(-2.0, 2.0, 9), [0.0, -0.0]])
    for target in _targets(rng):
        st = synthesize_structure(target, m, lam)
        for red in (reduce(st, lam), reduce(st, lam, probe)):
            for k in ("a", "c", "b" if target.variant is Variant.RAYLEIGH else "d"):
                fn = getattr(red, k)
                stacked = fn(zs)
                for i, z in enumerate(zs):
                    for arg in (float(z), z):
                        one = fn(arg)
                        assert type(one) is float, (k, target.kind)
                        assert _bits(one) == stacked[i].tobytes(), (k, target.kind, z)
        # the synthesized fields at one point against the same point as a stack
        # of one: several rows of t @ lambda go through BLAS, which rounds
        # otherwise for m >= 2
        x, t = rng.uniform(-2.0, 2.0, 7), rng.uniform(-1.0, 1.0, (7, m))
        eta, xi = rng.uniform(-1.0, 1.0, 7), rng.uniform(-1.0, 1.0, (7, m))
        for f in (st.h, st.gamma, st.c_field, st.b_field or st.d_field):
            for i in range(x.size):
                one = f(float(x[i]), t[i], float(eta[i]), xi[i])
                row = f(x[i:i + 1], t[i:i + 1], eta[i:i + 1], xi[i:i + 1])
                assert _bits(one) == _bits(row[0] if f is not st.gamma else row), (f, i)
    for i in range(x.size):
        assert _bits(lam.dot(t[i])) == _bits(lam.dot(t[i:i + 1]))
        for arg in (float(x[i]), x[i]):
            one = lam.z(arg, t[i])
            assert type(one) is float and _bits(one) == _bits(lam.z(x[i:i + 1], t[i:i + 1]))


def test_one_phase_words_a_degenerate_a_as_the_array_call():
    def message(fn, z):
        with pytest.raises(DegenerateA) as err:
            fn(z)
        return str(err.value)

    lam = SpeedVector(np.array([0.8, 0.5]))
    target = AffineCoeffs(1.0, 0.0, 1.0, -0.5, 1.0, 0.0).to_reduced()   # a(0.5) = 0
    for rc in (target, reduce(synthesize_structure(target, 2, lam), lam),
               constant_coeffs(1e-11, 1.0, d=1.0)):
        for z in (0.5, np.float64(0.5)):
            assert message(rc.a, z) == message(rc.a, np.array([z])), rc.kind


def _positive_run_loops(zs, vals, z0):
    """The two while loops _positive_run replaced, kept as its reference."""
    i0 = int(np.argmin(np.abs(zs - z0)))
    if vals[i0] <= 0.0:
        return None
    lo_i = i0
    while lo_i > 0 and vals[lo_i - 1] > 0.0:
        lo_i -= 1
    hi_i = i0
    while hi_i < len(zs) - 1 and vals[hi_i + 1] > 0.0:
        hi_i += 1
    shrunk_lo = lo_i > 0
    shrunk_hi = hi_i < len(zs) - 1
    if shrunk_lo and lo_i + 1 < hi_i:
        lo_i += 1
    if shrunk_hi and hi_i - 1 > lo_i:
        hi_i -= 1
    return float(zs[lo_i]), float(zs[hi_i]), shrunk_lo, shrunk_hi


def test_positive_run_is_the_two_loop_scan():
    rng = np.random.default_rng(7)
    samples = np.array([1.0, 0.5, 0.0, -0.0, -1.0, math.nan])
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        zs = np.linspace(-1.0, 1.0, n)
        # mostly positive, so runs are long enough to shrink
        vals = samples[rng.choice(samples.size, n, p=[0.5, 0.2, 0.1, 0.05, 0.1, 0.05])]
        z0 = rng.choice([rng.uniform(-1.2, 1.2), -3.0, 3.0])      # anchors off the scan too
        assert _positive_run(zs, vals, z0) == _positive_run_loops(zs, vals, z0), (vals, z0)


STACK_SIZES = (1, 2, 7, 100)


def _forms(vs):
    """The numbers vs as floats, np.float64s, 0-d arrays and, where every one
    is integral, ints (-0.0 has no int form)."""
    forms = [[float(v) for v in vs], [np.float64(v) for v in vs],
             [np.array(float(v)) for v in vs]]
    if all(float(v).is_integer() and np.signbit(v) == (v < 0) for v in vs):
        forms.append([int(v) for v in vs])
    return forms


def _parts(v):
    return v if isinstance(v, tuple) else (v,)


def _assert_rows(name, fn, draw, rng, specials=(), numbers=1):
    """``fn`` at one point gives the bits of that point's row in a stack, and
    a Python float where the row is a number; a stack's values carry its
    leading axis.  draw(rng, n) gives n points as
    columns, (n,) for a number and (n, m) for a vector.  Four drawn points
    and ``specials``, with their first ``numbers`` arguments in every form of
    ``_forms``, sit at a random row of stacks of each of STACK_SIZES points;
    then every row of a drawn stack of the largest size is called alone."""
    def check(ones, rows, n, j):
        for one in ones:
            for got, part in zip(_parts(one), _parts(rows)):
                assert np.shape(part) == (n,) + np.shape(got), (name, np.shape(part))
                want = part[j]
                if want.ndim == 0:
                    assert type(got) is float, (name, got)
                else:
                    assert isinstance(got, np.ndarray) and got.shape == want.shape, name
                assert _bits(got) == want.tobytes(), (name, n, j)

    def alone(point):
        return [float(v) if np.ndim(v) == 0 else v for v in point]

    for point in [*zip(*draw(rng, 4)), *specials]:
        rest = alone(point[numbers:])
        ones = [fn(*form, *rest) for form in _forms(point[:numbers])]
        for n in STACK_SIZES:
            cols = [np.array(c, dtype=float) for c in draw(rng, n)]
            j = int(rng.integers(n))
            for c, v in zip(cols, point):
                c[j] = v
            check(ones, fn(*cols), n, j)
    cols = draw(rng, STACK_SIZES[-1])
    rows = fn(*cols)
    for j, point in enumerate(zip(*cols)):
        check([fn(*alone(point))], rows, STACK_SIZES[-1], j)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_a_point_has_the_bits_of_its_row_in_any_stack(m):
    """Every evaluator of points, from profiles to residuals, gives one point
    the bits of its row in any stack, so no value depends on its neighbours."""
    rng = np.random.default_rng(1600 + m)
    lam = SpeedVector(rng.uniform(0.3, 1.5, m) * rng.choice([-1.0, 1.0], m))

    def phases(lo, hi):
        return lambda rng, n: (rng.uniform(lo, hi, n),)

    def marks(lo, hi):
        """0.0, -0.0 and an integer, where [lo, hi] holds them."""
        return [v for v in (0.0, -0.0, float(round(0.5 * (lo + hi)))) if lo <= v <= hi]

    direct = vdp_implicit(EXP_CO, k1=0.0, z0=0.0, phi0=SQ2, domain=(-2.0, 2.0),
                          square_relation="direct")
    for name, prof, (lo, hi) in _families() + [("vdp-direct", direct, (-1.5, 0.0))]:
        specials = [(z,) for z in marks(lo, hi)]
        for fn in (prof.phi, prof.phi_prime, prof.phi_second):
            _assert_rows(name, fn, phases(lo, hi), rng, specials)
        # the lifted jet and the sweep's residual, at phases inside the window
        lifted = with_speed(prof, lam)
        u, st = as_multitime(lifted), synthesize_structure(lifted.coeffs, m, lam)

        def on_window(rng, n, lo=lo, hi=hi):
            t = rng.uniform(-0.3, 0.3, (n, m))
            return rng.uniform(lo, hi, n) + lam.dot(t), t

        specials = [(x, np.zeros(m)) for x in marks(lo, hi)]
        _assert_rows(f"{name} jet", u.jet, on_window, rng, specials)
        _assert_rows(f"{name} residual", lambda x, t, u=u, st=st: residual(u, st, x, t),
                     on_window, rng, specials)

    for name, ivp in _ivps():
        z = ivp.nodes

        def nodes_or_between(rng, n, z=z):
            # at a node the interval lookup is decided by a tie
            return (np.where(rng.random(n) < 0.5, rng.choice(z, n), rng.uniform(z[0], z[-1], n)),)

        specials = [(v,) for v in (*z[[0, 1, z.size // 2, -1]], 0.5 * (z[1] + z[2]))]
        for fn in (ivp.phi, ivp.phi_prime, ivp.phi_second):
            _assert_rows(f"{name} ivp", fn, nodes_or_between, rng, specials)

    probe = soliton_arcsinh(1.0, 1.0, 1.0, 1.0, lam=lam)

    def states(rng, n):
        return rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)

    def points(rng, n):
        return (rng.uniform(-2.0, 2.0, n), rng.uniform(-0.3, 0.3, (n, m)),
                rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, m)))

    for target in _targets(rng):
        st = synthesize_structure(target, m, lam)
        name = f"{target.kind.value} {target.variant.value}"
        for rc in (target, reduce(st, lam), reduce(st, lam, probe)):
            cubic = "b" if rc.variant is Variant.RAYLEIGH else "d"
            for fn in (rc.a, rc.c, getattr(rc, cubic)):
                _assert_rows(name, fn, phases(-2.0, 2.0), rng, [(z,) for z in (0.0, -0.0, 1.0)])
            for fn in (rc.cubic, rc.second):
                _assert_rows(name, fn, states, rng, [(0.0, 0.5, -0.0), (-1.0, -0.7, 1.3)])
        specials = [(1.0, np.zeros(m), 0.5, np.ones(m)), (-0.0, np.ones(m), 0.0, -np.ones(m))]
        # gamma is a constant zero field, returned unstacked
        for f in (st.h, st.c_field, st.b_field or st.d_field):
            _assert_rows(f"{name} field", f, points, rng, specials)

    _assert_rows("lambda.t", lam.dot, lambda rng, n: (rng.uniform(-1.0, 1.0, (n, m)),), rng,
                 [(np.arange(m, dtype=float),)], numbers=0)
    _assert_rows("phase", lam.z, lambda rng, n: points(rng, n)[:2], rng,
                 [(1.0, np.ones(m)), (-0.0, np.zeros(m))])

    sol = integrate_single_time_rayleigh(0.3, lambda x: 0.5 * math.sin(x), lambda x: 0.0,
                                         1.0, n_x=64, n_t=21)
    # the Lobatto times 0 and 1 take the interpolant's exact rows
    _assert_rows("single-time jet", sol.jet,
                 lambda rng, n: (rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 1.0, n)),
                 rng, [(1.0, 0.0), (3.0, 1.0), (2.0, 0.5)], numbers=2)
    field, st = prolong_field(sol.as_field(), m), prolongation_structure(m, 0.3)

    def on_circle(rng, n):
        return rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 1.0, (n, m))

    specials = [(1.0, np.zeros(m)), (3.0, np.full(m, 0.5))]
    _assert_rows("prolonged jet", field.jet, on_circle, rng, specials)
    _assert_rows("prolonged residual", lambda x, t: residual(field, st, x, t),
                 on_circle, rng, specials)
