"""The batched evaluation core against pointwise references.

Profiles, fields and structures evaluate a whole stack of points in one
call; a single point still gives Python floats, with the bits of its row in
any stack.  The references here are built one point at a time from scalar
calls, as the sweep used to be.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from mrayleigh.closed_form import (
    Family,
    Interval,
    _first_integral_antiderivative,
    _positive_run,
    _solve_branch,
    _stacked,
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
    GeometricStructure,
    SpeedVector,
    Variant,
    _constraint_gap,
    _unwrap,
    constant_coeffs,
    general_coeffs,
    prolongation_structure,
    reduce,
    synthesize_structure,
)
from mrayleigh.errors import DegenerateA, DomainExceeded, NoBracket
from mrayleigh.geometry import GridSpec, prolong_field, residual
from mrayleigh.oracle import (
    integrate_reduction,
    integrate_single_time_rayleigh,
    reduction_ode_residual,
    residual_sweep,
)
from mrayleigh.series import (
    AffineCoeffs,
    _derivative,
    _horner,
    evaluate,
    evaluate_prime,
    series_coefficients,
    series_soliton,
)

EXP_CO = general_coeffs(a=math.exp, c=math.exp, d=lambda z: 3.0)
SQ2 = 1.0 / math.sqrt(2.0)


# (name, builder of the profile, x window kept inside the domain)
_FAMILIES = [
    ("quadrature", lambda: soliton_quadrature(constant_coeffs(1.0, 1.0, b=1.0), K=4.0,
                                              z0=0.0, domain=(-2.0, 2.0)), (-1.5, 1.5)),
    ("arccosh", lambda: soliton_arccosh(1.0, 1.0, 1.0, math.e), (-3.0, 0.5)),
    ("arcsinh", lambda: soliton_arcsinh(1.0, 1.0, 1.0, 1.0), (-3.0, 3.0)),
    ("arcsin", lambda: soliton_arcsin(1.0, -1.0, 1.0, 1.0), (0.5, 4.0)),
    ("vdp-implicit", lambda: vdp_implicit(EXP_CO, k1=0.0, z0=0.0, phi0=SQ2,
                                          domain=(-2.0, 2.0)), (-1.5, 1.5)),
    ("vdp-implicit-k1", lambda: vdp_implicit(EXP_CO, k1=0.25, z0=0.0, phi0=1.0,
                                             domain=(-2.0, 2.0)), (-1.5, 0.5)),
    ("vdp-explicit", lambda: vdp_explicit(1.0, 1.0, 3.0, 1.0), (-3.0, 3.0)),
    ("series", lambda: series_soliton(series_coefficients(
        AffineCoeffs.from_sextuple((0, 0, 0, 1, 0, 1)), 0.0, 1.0, 60)), (-2.0, 2.0)),
]


def _families():
    """(name, profile, x window kept inside the domain)."""
    return [(name, build(), window) for name, build, window in _FAMILIES]


def _with_direct():
    """_families() and the direct square relation, a k1 = 0 negative control."""
    direct = vdp_implicit(EXP_CO, k1=0.0, z0=0.0, phi0=SQ2, domain=(-2.0, 2.0),
                          square_relation="direct")
    return _families() + [("vdp-direct", direct, (-1.5, 0.0))]


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
    """phi, phi' and phi'' of every profile and of each fresh integration's
    interpolants give one phase the bits of its row in any stack; none of
    them reads lambda, so one seed checks them."""
    rng = np.random.default_rng(1600)
    for name, prof, (lo, hi) in _with_direct():
        specials = [(z,) for z in _marks(lo, hi)]
        for fn in (prof.phi, prof.phi_prime, prof.phi_second):
            _assert_rows(name, fn, _phases(lo, hi), rng, specials)

    for name, ivp in _ivps():
        z = ivp.nodes

        def nodes_or_between(rng, n, z=z):
            # at a node the interval lookup is decided by a tie
            return (np.where(rng.random(n) < 0.5, rng.choice(z, n), rng.uniform(z[0], z[-1], n)),)

        specials = [(v,) for v in (*z[[0, 1, z.size // 2, -1]], 0.5 * (z[1] + z[2]))]
        for fn in (ivp.phi, ivp.phi_prime, ivp.phi_second):
            _assert_rows(f"{name} ivp", fn, nodes_or_between, rng, specials)


def test_reused_phase_work_cannot_be_seen_from_outside():
    """phi, phi' and phi'' share a family's per-phase work: in any order, and
    between calls on other phases, each gives a fresh profile's bits, and a
    write into what it returned changes no later result."""
    names = ("phi", "phi_prime", "phi_second")
    # w = K e^{-z} overflows at z = -800, where phi'' must not write into w
    huge = ("arcsinh-huge", lambda: soliton_arcsinh(1.0, 1.0, 1.0, 1.0), (-800.0, 1.0))
    for name, build, (lo, hi) in _FAMILIES + [huge]:
        prof = build()
        zs = np.linspace(lo, hi, 7)
        pairs = [(float(zs[3]), float(zs[1])), (zs, zs[::-1].copy()), (zs, zs[:5])]
        for z, other in pairs:
            want = {}
            for n in names:
                fresh = build()
                want[n, 0], want[n, 1] = (_bits(getattr(fresh, n)(v)) for v in (z, other))
            for order in itertools.permutations(names):
                for n in order:
                    assert _bits(getattr(prof, n)(z)) == want[n, 0], (name, order, n)
                assert _bits(getattr(prof, order[0])(other)) == want[order[0], 1], (name, order)
            for n in names:
                out = getattr(prof, n)(z)
                if isinstance(out, np.ndarray):
                    try:
                        out[0] = 123.0
                    except ValueError:      # a reused array is read-only
                        pass
                assert _bits(getattr(prof, n)(z)) == want[n, 0], (name, n)


def test_branch_solves_only_at_construction(monkeypatch):
    import mrayleigh.closed_form as cf

    solves = []
    monkeypatch.setattr(cf, "_solve_branch", lambda *a: solves.append(1) or _solve_branch(*a))
    lam = SpeedVector(np.array([1.0, 0.5]))
    prof = vdp_implicit(EXP_CO, k1=0.25, z0=0.0, phi0=1.0, domain=(-2.0, 2.0), lam=lam)
    assert solves
    solves.clear()
    st = synthesize_structure(prof.coeffs, 2, lam)
    rep = residual_sweep(prof, st, GridSpec((-1.5, 0.0, 9), ((0.0, 0.1, 3), (0.0, 0.1, 2))))
    assert rep.residuals.size == 54
    zs = np.linspace(-1.5, 0.5, 11)
    for mode in ("analytic", "fd"):
        reduction_ode_residual(prof.coeffs, prof, zs + 0.01, mode)
    prof.phi(0.3)
    assert solves == []


def _bisect_branch(L, k1, side, near, far, target):
    # the reference: geometric bisection of the whole bracket down to
    # xtol + rtol |phi|, polished by one Newton step
    lo, hi = np.full(target.shape, near), np.full(target.shape, far)
    for _ in range(200):
        wide = hi - lo > 1e-14 + 8.9e-16 * np.abs(k1 + side * hi)
        if not wide.any():
            break
        s = np.sqrt(lo * hi)
        low = L(k1 + side * s) < target
        lo, hi = np.where(wide & low, s, lo), np.where(wide & ~low, s, hi)
    root = k1 + side * np.sqrt(lo * hi)
    return root - (L(root) - target) * (root ** 3 - k1 ** 3) / 3.0


# evaluations of L per solve, the two bracket ends included; the bisection
# above takes 55-59
BRANCH_SOLVE_BUDGET = 12


@pytest.mark.parametrize("k1, phi0", [(0.25, 1.0), (0.25, 0.1), (-0.5, 1.0), (2.0, -3.0)])
def test_branch_solver_agrees_with_brentq(k1, phi0):
    calls = []
    L_once = _first_integral_antiderivative(k1)

    def L(phi):
        calls.append(1)
        return L_once(phi)

    side = 1.0 if phi0 > k1 else -1.0
    far_scale = max(1.0, abs(k1), 4.0 * abs(phi0 - k1))
    near, far = 4e-16 * max(1.0, abs(k1)), 1e12 * far_scale
    ends = L_once(k1 + side * np.array([near, far]))
    # the targets of the build on (-2, 2), whose H is 3 (1 - e^{-z}): with
    # (0.25, 1.0) its branch escapes, and its phi keeps 1,026 terms
    dom = vdp_implicit(EXP_CO, k1=k1, phi0=phi0, domain=(-2.0, 2.0)).domain
    inputs = [L_once(k1 + side * np.geomspace(1e-8, 1e2, 60) * far_scale),
              ends[0] + np.geomspace(1e-12, 1e-1, 30) * max(1.0, abs(ends[0])),
              ends[1] - np.geomspace(1e-12, 1e-1, 30) * max(1.0, abs(ends[1])),
              L_once(phi0) + 3.0 * (1.0 - np.exp(-np.linspace(dom.lo, dom.hi, 129)))]
    for target in inputs:
        calls.clear()
        got = _solve_branch(L, k1, side, near, far, target)
        assert len(calls) <= BRANCH_SOLVE_BUDGET, (len(calls), target[[0, -1]])
        for g, b, tg in zip(got, _bisect_branch(L_once, k1, side, near, far, target), target):
            lo, hi = sorted((k1 + side * near, k1 + side * far))
            ref = brentq(lambda p: L_once(p) - tg, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
            # brentq's own tolerance, plus the rounding of L over L'(phi) that
            # leaves any root defined only to that width
            floor = 4.0 * np.finfo(float).eps * max(1.0, abs(tg)) * abs(ref ** 3 - k1 ** 3) / 3.0
            bound = 1e-14 + 8.9e-16 * abs(ref) + floor
            assert abs(g - ref) <= bound, (g, ref, tg)
            assert abs(g - b) <= bound, (g, b, tg)


def test_branch_solver_raises_outside_its_bracket():
    L = _first_integral_antiderivative(0.25)
    ends = L(0.25 + np.array([1e-3, 1e3]))
    for target in (ends[0] - 1.0, ends[1] + 1e-6):
        with pytest.raises(NoBracket):
            _solve_branch(L, 0.25, 1.0, 1e-3, 1e3, np.array([0.5 * ends.sum(), target]))


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _fitted_antiderivatives(monkeypatch, build):
    """What ``build()`` returns, and (lo, hi, (sum, coefficients), numpy's
    fit, its rounding floor, numpy's series) for each Chebyshev
    antiderivative that it fits.  numpy's fit is chebinterpolate of the same
    integrand, at the degree where the fit stopped.  numpy's series trims
    that fit with chebtrim at the floor, keeping at least two coefficients,
    and integrates it with the Chebyshev class."""
    import mrayleigh.closed_form as cf
    from numpy.polynomial import chebyshev

    fits, degrees = [], []
    antiderivative, nodes = cf._cheb_antiderivative, cf._cheb_nodes

    def spy_nodes(deg):
        degrees.append(deg)
        return nodes(deg)

    def spy(fn, lo, hi, anchor):
        got = antiderivative(fn, lo, hi, anchor)
        deg = degrees[-1]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        coef = chebyshev.chebinterpolate(lambda u: fn(mid + half * u), deg)
        floor = (deg + 1) * 2.0 ** -52 * np.max(np.abs(coef))
        kept = coef[:max(2, len(chebyshev.chebtrim(coef, floor)))]
        fits.append((lo, hi, got, coef, floor,
                     chebyshev.Chebyshev(kept, domain=[lo, hi]).integ(1, lbnd=anchor)))
        return got

    monkeypatch.setattr(cf, "_cheb_nodes", spy_nodes)
    monkeypatch.setattr(cf, "_cheb_antiderivative", spy)
    return build(), fits


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
        # F fits at degree 64 and G at 128, so F and G have different lengths
        lambda: soliton_quadrature(general_coeffs(a=lambda z: 1.0, c=lambda z: math.cos(5.0 * z),
                                                  b=lambda z: 0.5), K=2.0, domain=(-3.0, 3.0)),
        lambda: vdp_implicit(EXP_CO, k1=0.0, phi0=rng.uniform(0.68, 0.72), domain=(-4.9, 0.5)),
        lambda: vdp_implicit(EXP_CO, k1=0.25, phi0=1.0, domain=(-2.0, 2.0)),
    ]
    fits = []
    for build in builds:
        prof, made = _fitted_antiderivatives(monkeypatch, build)
        fits += made
        if prof.family is not Family.QUADRATURE:
            continue
        # phi' sums F and G, the two fits before phi's, each on its own
        (*_, F), (*_, G) = made[-3:-1]
        K = prof.params["K"]
        zs = np.linspace(prof.domain.lo, prof.domain.hi, 41)
        for z in (float(zs[7]), zs[7:8], zs):
            want = np.exp(-F(z)) / np.sqrt(K - 2.0 * G(z))
            assert _bits(prof.phi_prime(z)) == _bits(want), z
    # a fit that ends unconverged at CHEB_MAX_DEGREE keeps its whole series
    assert max(len(fit[2][1]) for fit in fits) == 1026
    for lo, hi, (summed, got), _, _, ref in fits:
        assert _bits(got) == _bits(ref.coef), ref.coef.size
        zs = np.linspace(lo, hi, 41)
        for z in (float(zs[7]), zs[7], zs[7:8], zs, zs[:40].reshape(5, 8)):
            out, want = summed(z), ref(z)
            assert np.shape(out) == np.shape(want)
            assert _bits(out) == _bits(want), (ref.coef.size, z)


def test_trimmed_chebyshev_profiles_match_their_closed_forms(monkeypatch):
    """Seeded draws from the benchmark's quadrature and k1 = 0 vdp_implicit
    ranges: each series is trimmed exactly at its fit's rounding floor, the
    kept lengths are the published ``cheb_terms``, and phi' (and phi for
    vdp_implicit) keep 1e-13 relative accuracy against the closed forms on
    2,001 phases of the reported domain."""
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(30):
        # constant a, b, c: F = (c/a) z, G = (b/a) (1 - e^{-2 (c/a) z}) / (2 c/a)
        a, b, c = rng.uniform(0.8, 1.2, 3)
        K = rng.uniform(3.0, 5.0)
        prof, fits = _fitted_antiderivatives(monkeypatch, lambda: soliton_quadrature(
            constant_coeffs(a, c, b=b), K, domain=(-2.0, 2.0)))
        assert prof.params["cheb_terms"] == dict(zip(("F", "G", "phi"),
                                                     (len(f[2][1]) for f in fits[-3:])))
        z = np.linspace(prof.domain.lo, prof.domain.hi, 2001)
        k = c / a
        F, G = k * z, (b / a) * -np.expm1(-2.0 * k * z) / (2.0 * k)
        want = np.exp(-F) / np.sqrt(K - 2.0 * G)
        worst = max(worst, np.max(np.abs(prof.phi_prime(z) / want - 1.0)))

        # a = c = A e^z and d = D: H = (D/A) (1 - e^{-z}), phi^-2 = -(2/3)(H + C)
        A, D, phi0 = rng.uniform(0.95, 1.05), rng.uniform(2.85, 3.15), rng.uniform(0.68, 0.72)
        co = general_coeffs(a=lambda s: A * math.exp(s), c=lambda s: A * math.exp(s),
                            d=lambda s: D)
        prof, made = _fitted_antiderivatives(
            monkeypatch, lambda: vdp_implicit(co, k1=0.0, phi0=phi0, domain=(-2.0, 2.0)))
        fits += made
        assert prof.params["cheb_terms"] == {"H": len(made[-1][2][1])}
        z = np.linspace(prof.domain.lo, prof.domain.hi, 2001)
        phi = 1.0 / np.sqrt(-(2.0 / 3.0) * ((D / A) * -np.expm1(-z) - 1.5 / phi0 ** 2))
        for got, want in ((prof.phi(z), phi), (prof.phi_prime(z), (D / A) * np.exp(-z) * phi ** 3 / 3.0)):
            worst = max(worst, np.max(np.abs(got / want - 1.0)))

        for _, _, (_, got), coef, floor, _ in fits:
            kept = len(got) - 1                  # integrand terms under the antiderivative
            assert np.all(np.abs(coef[kept:]) <= floor)
            assert kept == 2 or abs(coef[kept - 1]) > floor
    assert worst <= 1e-13
    # the trim reads the bits of the fit's BLAS product: the kept lengths are
    # the same at any thread count
    prof = soliton_quadrature(constant_coeffs(1.0, 1.1, b=0.9), 4.0, domain=(-2.0, 2.0))
    assert prof.params["cheb_terms"] == {"F": 3, "G": 23, "phi": 46}
    prof = vdp_implicit(EXP_CO, k1=0.5, phi0=0.7, domain=(-2.0, 2.0))
    assert prof.params["cheb_terms"] == {"H": 18, "phi": 36}


def test_central_difference_calls_fn_once():
    """One call on the stacked shifted phases gives the bits of the two calls
    (fn(z + h) - fn(z - h)) / 2h, for every family's phi' and a stacked pair."""
    from mrayleigh.coefficients import _central

    def two_calls(fn, z, step):
        h = step * np.maximum(1.0, np.abs(z))
        return (fn(z + h) - fn(z - h)) / (2.0 * h)

    rng = np.random.default_rng(23)
    for name, prof, (lo, hi) in _families():
        def psi_xi(s, p=prof.phi_prime):
            v = p(s)
            return np.stack([v, 1.0 / (v * v)])

        for fn in (prof.phi_prime, psi_xi):
            calls = []

            def counted(s, fn=fn):
                calls.append(s.shape)
                return fn(s)

            for n in (1, 2, 7, 100):
                z = rng.uniform(lo, hi, n)
                calls.clear()
                got = _central(counted, z, 1e-6)
                assert calls == [(2 * n,)], (name, n)
                assert _bits(got) == _bits(two_calls(fn, z, 1e-6)), (name, n)


def _rare_branches():
    """(name, profile, phases): builds whose phases reach each branch that a
    one-phase call hands to the array expression, next to regular phases."""
    series = series_coefficients(AffineCoeffs.from_sextuple((0, 0, 0, 1.0, 0.3, 0.9)),
                                 0.1, 1.0, 400)
    band = [-360.0, -709.7, -709.5, -709.3, -800.0, -1.0]
    return [
        # the edge (rad <= 0) at z = 0, its slack, and phases just inside it
        ("arccosh-edge", soliton_arccosh(1.0, 1.0, 1.0, 1.0), [0.0, 1e-12, -1e-13, -0.5]),
        ("arcsin-edge", soliton_arcsin(1.0, -1.0, 1.0, 1.0, sigma=-1.0), [0.0, -1e-12, 1e-13, 0.5]),
        # w^2 = inf with w finite (sq rate w past the float range from
        # -709.3 down), and w = inf at z = -800
        ("arcsinh-band", soliton_arcsinh(1.0, 0.25, 1.0, 1.0), band),
        ("arccosh-band", soliton_arccosh(1.0, 0.25, 1.0, 1.0, sigma=-1.0), band),
        ("arcsinh-band-2", soliton_arcsinh(1.0, 2.0, 2.0, 1.0), [-354.85, -354.6, -400.0, 0.0]),
        # vdp_explicit's tail (t = 2z > 690), e = inf off the tail (t > 709
        # below a tail floor of 731), K < 0 up to its edge, and K = 0
        ("vdp-explicit-tail", vdp_explicit(1.0, 1.0, 3.0, 1.0),
         [0.5, 344.0, 345.0, 346.0, 354.0, 355.0, 400.0]),
        ("vdp-explicit-huge-off", vdp_explicit(1.0, 1.0, 3e300, 1.0),
         [0.0, 354.0, 360.0, 366.0, 370.0]),
        ("vdp-explicit-K<0", vdp_explicit(1.0, 1.0, 3.0, -0.5),
         [-3.0, 0.0, 0.3, 0.5 * math.log(2.0) - 1e-9]),
        ("vdp-explicit-K=0", vdp_explicit(1.0, 1.0, 3.0, 0.0), [-3.0, 0.0, 3.0]),
        ("vdp-direct", vdp_implicit(EXP_CO, k1=0.0, z0=0.0, phi0=SQ2, domain=(-2.0, 2.0),
                                    square_relation="direct"), np.linspace(-1.5, 0.0, 7)),
        ("series-N400", series_soliton(series),
         np.linspace(-0.45, 0.45, 21) * series.radius_estimate),
    ]


def test_scalar_calls_give_the_bits_of_the_array_call():
    # every branch that one phase hands to the array expression, warning-free,
    # in stacks drawn from the same branches
    rng = np.random.default_rng(404)
    for name, prof, zs in _rare_branches():
        zs = np.asarray(zs, dtype=float)
        assert prof.domain.contains(zs).all(), name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (prof.phi, prof.phi_prime, prof.phi_second):
                _assert_rows(name, fn, lambda rng, n, zs=zs: (rng.choice(zs, n),), rng,
                             [(z,) for z in zs])
    # the series sums one phase from the terms it keeps
    sol = series_coefficients(AffineCoeffs.from_sextuple((0, 0, 0, 1.0, 0.3, 0.9)), 0.1, 1.0, 400)
    zs = np.linspace(-0.45, 0.45, 41) * sol.radius_estimate
    for ev, coef in ((evaluate, sol.alpha), (evaluate_prime, _derivative(sol.alpha))):
        stacked = _horner(coef.tolist()[::-1], zs)
        for i, z in enumerate(zs):
            for arg in (float(z), z):
                one = ev(sol, arg)
                assert type(one) is float
                assert _bits(one) == stacked[i].tobytes(), z


def test_one_phase_takes_the_float_path_and_never_the_array_callable():
    def array_call(z):
        raise AssertionError("an in-domain phase reached the array callable")

    seen = []

    def one(x):
        seen.append(x)
        return 2.0 * x

    fn = _stacked(Interval(-1.0, 1.0), array_call, one)
    for z in (0.5, np.float64(-0.25), np.array(1.0), 1, -1.0 - 1e-13):
        val = fn(z)
        assert type(val) is float and val == 2.0 * float(z)
        assert type(seen[-1]) is float and seen[-1] == float(z)
    # outside, the domain check raises before either callable runs, with
    # the message of the array call
    for z in (1.5, -2.0, math.inf, math.nan):
        with pytest.raises(DomainExceeded) as scalar:
            fn(z)
        with pytest.raises(DomainExceeded) as stacked:
            fn(np.array([z]))
        assert str(scalar.value) == str(stacked.value)
    assert len(seen) == 5
    # a rare branch (None) hands the phase to the array callable instead
    shapes = []
    rare = _stacked(Interval(-1.0, 1.0), lambda z: shapes.append(z.shape) or 3.0 * z,
                    lambda x: None)
    assert rare(0.5) == 1.5 and shapes == [(1,)]


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
    for name, build, (lo, hi) in _FAMILIES:
        if name in ("quadrature", "arcsinh", "vdp-explicit", "vdp-implicit"):
            prof, z0 = build(), 0.5 * (lo + hi)
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


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_one_phase_of_a_reduced_structure_gives_the_bits_of_the_array_call(m):
    """Each target's coefficients and those of its reductions, the synthesized
    fields and the phase give one point the bits of its row in any stack,
    also for m >= 2: the phase sums lambda_alpha t^alpha in one written
    order, left to right, for a point and for a stack alike."""
    rng = np.random.default_rng(40 + m)
    lam = SpeedVector(rng.uniform(0.3, 1.5, m) * rng.choice([-1.0, 1.0], m))
    probe = soliton_arcsinh(1.0, 1.0, 1.0, 1.0, lam=lam)

    def states(rng, n):
        return rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)

    points = _points(m)
    for target in _targets(rng):
        st = synthesize_structure(target, m, lam)
        name = f"{target.kind.value} {target.variant.value}"
        for rc in (target, reduce(st, lam), reduce(st, lam, probe)):
            cubic = "b" if rc.variant is Variant.RAYLEIGH else "d"
            for fn in (rc.a, rc.c, getattr(rc, cubic)):
                _assert_rows(name, fn, _phases(-2.0, 2.0), rng, [(z,) for z in (0.0, -0.0, 1.0)])
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


def _general_structure(rng, m, variant):
    """A callable structure with a non-diagonal h, a full C and a fully
    symmetric B (or a full D), each moving with x and the jet through
    elementwise arithmetic alone, so a stack's rows round as its points do."""
    def symmetric(rank):
        T = rng.uniform(-1.0, 1.0, (m,) * rank)
        return sum(np.transpose(T, p) for p in itertools.permutations(range(rank)))

    def field(base, slope):
        return lambda x, t, eta, xi: base + np.multiply.outer(x * x + eta * xi[..., 0], slope)

    h = field(4.0 * np.eye(m) + 0.2 * symmetric(2), 0.1 * symmetric(2))
    cubic = ({"b_field": field(symmetric(3), symmetric(3))} if variant is Variant.RAYLEIGH
             else {"d_field": field(rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m))})
    return GeometricStructure(m=m, h=h, gamma=lambda x, t, eta, xi: np.zeros((m, m, m)),
                              c_field=field(rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m)),
                              **cubic)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_one_phase_of_a_general_reduced_structure_gives_the_bits_of_the_array_call(m):
    """reduce's a, c and b or d of a structure that is neither diagonal nor
    constant, with and without a probe, give one phase the bits of its row:
    every lambda-contraction sums in one written order, so the h^{ab}
    lambda_a lambda_b of one point and of a stack round alike."""
    rng = np.random.default_rng(70 + m)
    lam = SpeedVector(rng.uniform(0.3, 1.5, m) * rng.choice([-1.0, 1.0], m))
    probe = soliton_arcsinh(1.0, 1.0, 1.0, 1.0, lam=lam)
    for variant in Variant:
        st = _general_structure(rng, m, variant)
        for rc in (reduce(st, lam), reduce(st, lam, probe)):
            cubic = "b" if variant is Variant.RAYLEIGH else "d"
            for k in ("a", "c", cubic):
                _assert_rows(f"{variant.value} {k}", getattr(rc, k), _phases(-2.0, 2.0), rng,
                             [(z,) for z in (0.0, -0.0, 1.0)])


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
    if not vals[i0] > 0.0:      # a NaN anchor sample fails too
        return None
    lo_i = i0
    while lo_i > 0 and vals[lo_i - 1] > 0.0:
        lo_i -= 1
    hi_i = i0
    while hi_i < len(zs) - 1 and vals[hi_i + 1] > 0.0:
        hi_i += 1
    if lo_i > 0 and lo_i + 1 < hi_i and zs[lo_i + 1] <= z0:
        lo_i += 1
    if hi_i < len(zs) - 1 and hi_i - 1 > lo_i and zs[hi_i - 1] >= z0:
        hi_i -= 1
    return float(zs[lo_i]), float(zs[hi_i])


def test_positive_run_is_the_two_loop_scan():
    rng = np.random.default_rng(7)
    samples = np.array([1.0, 0.5, 0.0, -0.0, -1.0, math.nan])
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        zs = np.linspace(-1.0, 1.0, n)
        # mostly positive, so runs are long enough to shrink
        vals = samples[rng.choice(samples.size, n, p=[0.5, 0.2, 0.1, 0.05, 0.1, 0.05])]
        z0 = rng.choice([rng.uniform(-1.2, 1.2), -3.0, 3.0])      # anchors off the scan too
        want = _positive_run_loops(zs, vals, z0)
        try:
            got = _positive_run(zs, vals > 0.0, z0, LookupError("anchor"))
        except LookupError:
            got = None
        assert got == (None if want is None else Interval(*want)), (vals, z0)


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


def _phases(lo, hi):
    return lambda rng, n: (rng.uniform(lo, hi, n),)


def _marks(lo, hi):
    """0.0, -0.0 and an integer, where [lo, hi] holds them."""
    return [v for v in (0.0, -0.0, float(round(0.5 * (lo + hi)))) if lo <= v <= hi]


def _points(m):
    """The draw of (x, t, eta, xi) at m times."""
    return lambda rng, n: (rng.uniform(-2.0, 2.0, n), rng.uniform(-0.3, 0.3, (n, m)),
                           rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, m)))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_a_point_has_the_bits_of_its_row_in_any_stack(m):
    """Every evaluator of points that reads lambda, from lifted jets to
    residuals, gives one point the bits of its row in any stack, so no value
    depends on its neighbours."""
    rng = np.random.default_rng(1600 + m)
    lam = SpeedVector(rng.uniform(0.3, 1.5, m) * rng.choice([-1.0, 1.0], m))
    for name, prof, (lo, hi) in _with_direct():
        # the lifted jet and the sweep's residual, at phases inside the window
        lifted = with_speed(prof, lam)
        u, st = as_multitime(lifted), synthesize_structure(lifted.coeffs, m, lam)

        def on_window(rng, n, lo=lo, hi=hi):
            t = rng.uniform(-0.3, 0.3, (n, m))
            return rng.uniform(lo, hi, n) + lam.dot(t), t

        specials = [(x, np.zeros(m)) for x in _marks(lo, hi)]
        _assert_rows(f"{name} jet", u.jet, on_window, rng, specials)
        _assert_rows(f"{name} residual", lambda x, t, u=u, st=st: residual(u, st, x, t),
                     on_window, rng, specials)

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
    # the index-1 gap that check_constraint, and through it check_prolongation, reads
    specials = [(1.0, np.zeros(m), 0.5, np.ones(m)), (-0.0, np.ones(m), 0.0, -np.ones(m))]
    for variant in Variant:
        st = prolongation_structure(m, 0.3, variant)
        _assert_rows(f"{variant.value} index-1 gap",
                     lambda x, t, eta, xi, st=st: _unwrap(_constraint_gap(st, x, t, eta, xi)),
                     _points(m), rng, specials)
