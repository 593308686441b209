"""Closed-form traveling-wave profiles phi(z).

Every profile solves one of the reduced ODEs

    a phi'' - b (phi')^3 + c phi' = 0          (Rayleigh)
    a phi'' - d phi^2 phi' + c phi' = 0        (Van der Pol)

on a reported validity interval.  Families:

``quadrature``
    general-coefficient Rayleigh solution by nested antiderivatives,
    phi'(z) = exp(-F) / sqrt(K - 2 G) with F = int c/a and
    G = int (b/a) exp(-2 F), both anchored at z0 where phi(z0) = 0.
``arccosh``/``arcsinh``/``arcsin``
    constant-coefficient closed forms
    phi = sigma (a/c) sqrt(|c/b|) f(K e^{-(c/a) z}) + r with f one of
    arccosh (c/b > 0, w >= 1), arcsinh (c/b > 0, all z) and
    arcsin (c/b < 0, w <= 1).
``vdp_implicit``
    Van der Pol solution through the first integral
    phi^3/3 = (a/d) phi' + k1^3/3, valid when (a/d)' = c/d.  For k1 = 0
    this resolves to the closed form phi^{-2} = -(2/3)(int d/a + C); the
    sign-flipped relation phi^2 = -(2/3)(int d/a + C) is also constructible
    (square_relation="direct") but does not satisfy the ODE and exists so
    tests can demonstrate that failure.  For k1 != 0 the profile is defined
    implicitly on the monotone branch selected by phi(z0); the branch is
    solved once, when the profile is built, at the Chebyshev points of the
    domain, and phi is the Chebyshev antiderivative of the phi' found there.
``vdp_explicit``
    constant-coefficient Van der Pol profile
    phi(z) = 1 / sqrt(K e^{(2c/a) z} + d/(3c)).
``series``
    truncated power series (constructed by the series module).

Profiles carry phi, phi' and phi''.  The arc families, ``vdp_explicit``
and ``series`` differentiate their closed form; ``quadrature`` reads phi''
off the solved ODE (``ReducedCoeffs.second``); ``vdp_implicit`` applies the
chain rule to its first integral, with (d/a)' = -(c/a)(d/a).  Each
callable checks its domain, then takes z of shape (N,) and returns an array
of the same shape, or a Python float for a scalar z, in float arithmetic
with numpy's ufuncs on floats (a rare branch, such as an arc edge or an
overflowing exponential, takes the array expression).  A phase's value
never depends on the other phases in its call: no multi-row BLAS product
runs across them, and integer powers are written as products.  Each
Chebyshev antiderivative is one call that fits the integrand on numpy's
nodes and matrix, made once per degree, trims the fit at its rounding floor,
integrates it in float arithmetic and returns its sum, numpy's chebval
recurrence on Python floats for one phase, all with numpy's bits.
phi, phi' and phi'' of a profile share the family's per-phase work
(``vdp_implicit``'s phi and, apart from it, d/a; ``quadrature``'s phi';
the arc families' w; ``vdp_explicit``'s radicand), which keeps its last
result keyed on the phases' shape and bytes: a call on the last call's
phases reuses it, as read-only arrays.  No evaluation iterates: every phi
is a closed form, a Chebyshev sum or a series.  Lifting to a multitime
field via ``as_multitime`` uses the chain rule du/dt^a = -lambda_a phi'.
Evaluation outside the domain raises DomainExceeded; at finite endpoints
phi itself stays finite for the arc-family profiles while phi' may be
unbounded there, which is why residual testing keeps a guard band.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coefficients import (
    CoeffKind,
    ReducedCoeffs,
    SpeedVector,
    Variant,
    _central,
    _first,
    _require_finite,
    coeffs_to_json_dict,
    constant_coeffs,
)
from .errors import (
    BadParameters,
    CompatibilityViolated,
    DomainExceeded,
    EmptyDomain,
    NoBracket,
    WrongVariant,
)
from .geometry import FieldFunction


class Family(str, enum.Enum):
    QUADRATURE = "quadrature"
    ARCCOSH = "arccosh"
    ARCSINH = "arcsinh"
    ARCSIN = "arcsin"
    VDP_IMPLICIT = "vdp_implicit"
    VDP_EXPLICIT = "vdp_explicit"
    SERIES = "series"


class Interval:
    """Closed interval, possibly half-infinite; equal to another of the same ends."""

    __slots__ = ("lo", "hi", "outer")

    def __init__(self, lo: float, hi: float):
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise BadParameters(f"bad interval [{lo}, {hi}]")
        self.lo, self.hi = lo, hi
        # the bounds that ``contains`` accepts: 1e-12 relative slack at finite ends
        slack = [0.0 if math.isinf(v) else 1e-12 * max(1.0, abs(v)) for v in (lo, hi)]
        self.outer = (lo - slack[0], hi + slack[1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def contains(self, z):
        """Membership within ``outer``; a bool, or a bool array for arrays."""
        lo, hi = self.outer
        inside = np.logical_and(lo <= z, z <= hi)
        return bool(inside) if inside.ndim == 0 else inside

    def to_json(self):
        return [None if math.isinf(self.lo) else float(self.lo),
                None if math.isinf(self.hi) else float(self.hi)]


def _check_domain(dom: Interval, z):
    outside = np.logical_not(dom.contains(z))
    if np.any(outside):
        raise DomainExceeded(f"z = {_first(z, outside)} outside validity "
                             f"interval [{dom.lo}, {dom.hi}]")


def _reused(fn):
    """``fn`` over a phase array, keeping its last result: a call whose phases
    have the last call's shape and bytes returns the same arrays, which are
    read-only so that no caller can alter a later result."""
    # key and result are swapped as one tuple: a concurrent call may
    # recompute, but never pairs a key with another call's result
    last = (None, None)

    def call(z):
        nonlocal last
        key = (z.shape, z.tobytes())
        seen, out = last
        if seen != key:
            out = fn(z)
            for arr in out if isinstance(out, tuple) else (out,):
                arr.setflags(write=False)
            last = (key, out)
        return out
    return call


def _any(mask) -> bool:
    """Whether a bool, or any element of a bool array, is set."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def _stacked(dom: Interval, fn, one=None):
    """Profile callable over z of shape (N,) that raises DomainExceeded for z
    outside ``dom`` before ``fn`` runs.  A scalar z, checked by two float
    comparisons, goes to ``one`` (``fn`` by default) as a Python float, or
    to ``fn`` as a 1-element array where ``one`` returns None (a rare
    branch), and gives a Python float with the bits of the array call."""
    one = fn if one is None else one

    def call(z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            x = z.item()
            lo, hi = dom.outer
            if not lo <= x <= hi:   # NaN included; _check_domain words it
                _check_domain(dom, z)
            val = one(x)
            return float(fn(z.reshape(1))[0] if val is None else val)
        _check_domain(dom, z)
        return fn(z)
    return call


def _one(state, of):
    """The float path ``of(*state(x))``, None where ``state(x)`` is (a rare branch)."""
    def call(x):
        st = state(x)
        return None if st is None else of(*st)
    return call


@dataclass(frozen=True)
class SolitonProfile:
    """A traveling-wave profile phi with its speeds and validity interval."""

    family: Family
    params: dict
    lam: SpeedVector
    domain: Interval
    phi: Callable
    phi_prime: Callable
    phi_second: Callable
    coeffs: ReducedCoeffs | None = None

    def sample(self, zs):
        """Evaluate (z, phi, phi') over a grid, dropping out-of-domain z."""
        zs = np.asarray(zs, dtype=float).reshape(-1)
        zs = zs[self.domain.contains(zs)]
        return zs, self.phi(zs), self.phi_prime(zs)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "params": self.params,
            "lambda": self.lam.to_json(),
            "domain": self.domain.to_json(),
        }


def _default_lam(lam) -> SpeedVector:
    if lam is None:
        return SpeedVector(np.array([1.0]))
    return lam if isinstance(lam, SpeedVector) else SpeedVector(np.asarray(lam, float))


def _coeffs_payload(rc: ReducedCoeffs):
    try:
        return coeffs_to_json_dict(rc)
    except ValueError:
        return {"kind": CoeffKind.GENERAL.value, "variant": rc.variant.value}


CHEB_MAX_DEGREE = 1024      # Chebyshev antiderivatives stop doubling here
QUADRATURE_SCAN = 4001      # domain-search points of soliton_quadrature
VDP_SCAN = 2001             # domain-search points of vdp_implicit
COMPAT_TOL = 1e-6           # vdp_implicit's sampled check of (a/d)' = c/d
COMPAT_STEP = 1e-6          # _check_compatibility's central-difference step on a and d


@functools.cache
def _cheb_nodes(deg: int):
    """numpy's Chebyshev points of the first kind for a degree-``deg`` fit and
    their Vandermonde matrix, made once per degree and kept read-only.
    numpy.polynomial is imported here and at the trim, so only builds that
    fit load it."""
    from numpy.polynomial import chebyshev
    x = chebyshev.chebpts1(deg + 1)
    m = chebyshev.chebvander(x, deg)
    x.setflags(write=False)
    m.setflags(write=False)
    return x, m


def _clenshaw(c, x):
    """numpy's chebval recurrence for sum_k c[k] T_k(x), len(c) >= 3, with
    ``c`` Python floats and x a float or an array of phases."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ci in c[-3::-1]:
        c0, c1 = ci - c1, c0 + c1 * x2
    return c0 + c1 * x


def _cheb_antiderivative(fn, lo: float, hi: float, anchor: float):
    """(F, series): F(z) = int_anchor^z fn on [lo, hi], an array of z's
    shape, and its Chebyshev coefficients, a list of Python floats.

    ``fn`` is sampled at all Chebyshev points of [lo, hi] in one call (it
    takes and returns arrays); the interpolant is integrated term by term,
    and the degree doubles until the coefficient tail is negligible.
    Smooth integrands resolve to near machine precision; non-smooth ones
    get CHEB_MAX_DEGREE and whatever accuracy that buys, which the
    downstream residual checks will expose.  A sample that is not finite
    raises BadParameters.  The fit is numpy's chebinterpolate on the nodes
    and matrix ``_cheb_nodes`` keeps per degree, trimmed at its rounding
    floor: numpy's chebtrim drops the trailing coefficients at or below
    (deg + 1) 2^-52 max|coef|, the rounding of the (deg + 1)-term product
    that made them, keeping at least two.  An unconverged fit's tail lies
    far above that floor, so it keeps its whole series.  The integration
    is numpy's Chebyshev(coef, domain=[lo, hi]).integ(1, lbnd=anchor) in
    float arithmetic, so the coefficients have numpy's bits, and F sums
    them by numpy's chebval recurrence, which fuses no multiply-add, on
    Python floats for one phase: F has the bits numpy's Chebyshev class gives.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    deg = 64
    while True:
        us, m = _cheb_nodes(deg)
        zs = mid + half * us
        with np.errstate(over="ignore", invalid="ignore"):
            vals = fn(zs)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise BadParameters(f"integrand not finite at z = {_first(zs, bad)} "
                                f"on the window [{lo}, {hi}]")
        coef = np.dot(m.T, vals)
        coef[0] /= deg + 1
        coef[1:] /= 0.5 * (deg + 1)
        scale = float(np.max(np.abs(coef)))
        if float(np.max(np.abs(coef[-6:]))) <= 1e-13 * max(1.0, scale):
            break
        if deg >= CHEB_MAX_DEGREE:
            break
        deg *= 2
    # the tail at or below the rounding floor of the (deg + 1)-term product
    floor = (deg + 1) * 2.0 ** -52 * scale
    from numpy.polynomial.chebyshev import chebtrim
    coef = coef[:max(2, len(chebtrim(coef, floor)))]
    # numpy's mapparms, then chebint(coef, lbnd=off + scl anchor, scl=1/scl)
    off, scl = (hi * -1.0 - lo * 1.0) / (hi - lo), 2.0 / (hi - lo)
    inv = 1.0 / scl
    c = [v * inv for v in coef.tolist()]
    series = [c[0] * 0, c[0], c[1] / 4] + [0.0] * (len(c) - 2)
    for j in range(2, len(c)):
        series[j + 1] = c[j] / (2 * (j + 1))
        series[j - 1] -= c[j] / (2 * (j - 1))
    series[0] += 0 - _clenshaw(series, off + scl * anchor)

    def F(z):
        return _clenshaw(series, off + scl * z)

    return F, series


def _positive_run(zs: np.ndarray, ok: np.ndarray, z0: float, error: Exception) -> Interval:
    """Maximal contiguous subinterval of zs where the bool mask ok holds,
    containing the sample nearest z0.

    Raises ``error`` when ok fails at that anchor sample.  An edge short of
    the scan's end is pulled one scan step inward so that evaluation at the
    reported endpoint stays finite, unless that step would pass z0.
    """
    i0 = int(np.argmin(np.abs(zs - z0)))
    if not ok[i0]:
        raise error
    stops = np.flatnonzero(~ok)
    before, after = stops[stops < i0], stops[stops > i0]
    lo_i = int(before[-1]) + 1 if before.size else 0
    hi_i = int(after[0]) - 1 if after.size else len(zs) - 1
    if lo_i > 0 and lo_i + 1 < hi_i and zs[lo_i + 1] <= z0:
        lo_i += 1
    if hi_i < len(zs) - 1 and hi_i - 1 > lo_i and zs[hi_i - 1] >= z0:
        hi_i -= 1
    return Interval(float(zs[lo_i]), float(zs[hi_i]))


def soliton_quadrature(coeffs: ReducedCoeffs, K: float, z0: float = 0.0,
                       domain=(-10.0, 10.0), lam=None) -> SolitonProfile:
    """Rayleigh profile by nested quadrature, anchored with phi(z0) = 0.

    phi'(z) = exp(-F(z)) / sqrt(K - 2 G(z)), F = int_{z0}^{z} c/a,
    G = int_{z0}^{z} (b/a) exp(-2 F).  The radicand is scanned at
    QUADRATURE_SCAN points of the requested interval and the domain shrinks
    to the maximal positive subinterval containing z0 (EmptyDomain if the
    anchor itself fails).
    Antiderivatives are cached on Chebyshev grids, each numpy's fit trimmed
    at its rounding floor, refitted on the domain when it shrinks, and each
    summed on its own by numpy's Clenshaw recurrence, on Python floats for
    one phase, so evaluation is cheap and deterministic.  ``params`` records
    each series' kept length as ``cheb_terms``.
    """
    if coeffs.variant is not Variant.RAYLEIGH:
        raise WrongVariant("quadrature family solves the Rayleigh reduction")
    lam = _default_lam(lam)
    lo, hi = float(domain[0]), float(domain[1])
    K, z0 = float(K), float(z0)
    _require_finite(K=K, z0=z0, domain_lo=lo, domain_hi=hi)
    if not lo < hi:
        raise BadParameters("domain must satisfy lo < hi")
    if not lo <= z0 <= hi:
        raise BadParameters("anchor z0 must lie inside the requested domain")
    if K <= 0.0:
        raise EmptyDomain("the radicand K - 2G is nonpositive at the anchor")

    def build(a_lo, a_hi):
        """(F, G, terms): the sums of F and G on [a_lo, a_hi], and the
        length of each series."""
        F, F_series = _cheb_antiderivative(lambda s: coeffs.c(s) / coeffs.a(s),
                                           a_lo, a_hi, z0)
        G, G_series = _cheb_antiderivative(
            lambda s: coeffs.b(s) / coeffs.a(s) * np.exp(-2.0 * F(s)), a_lo, a_hi, z0)
        return F, G, {"F": len(F_series), "G": len(G_series)}

    F, G, terms = build(lo, hi)
    zs = np.linspace(lo, hi, QUADRATURE_SCAN)
    dom = _positive_run(zs, K - 2.0 * G(zs) > 0.0, z0,
                        EmptyDomain("the radicand K - 2G is nonpositive at the anchor"))
    if (dom.lo, dom.hi) != (lo, hi):
        F, G, terms = build(dom.lo, dom.hi)

    def prime(z):
        """phi' over one phase as a float or an array of phases."""
        rad = K - 2.0 * G(z)
        if _any(rad <= 0.0):
            raise DomainExceeded(f"radicand nonpositive at z = {_first(z, rad <= 0.0)}")
        return np.exp(-F(z)) / np.sqrt(rad)

    def second(prime):
        # the Rayleigh cubic term does not read phi
        return lambda z: coeffs.second(z, None, prime(z))

    phi_prime = _reused(prime)
    # the Chebyshev points lie inside the domain, so phi' is sampled unchecked
    PHI, phi_series = _cheb_antiderivative(phi_prime, dom.lo, dom.hi, z0)

    params = {"K": K, "z0": z0, "coeffs": _coeffs_payload(coeffs),
              "cheb_terms": terms | {"phi": len(phi_series)}}
    return SolitonProfile(Family.QUADRATURE, params, lam, dom, _stacked(dom, PHI),
                          _stacked(dom, phi_prime, prime),
                          _stacked(dom, second(phi_prime), second(prime)), coeffs=coeffs)


# (g, s) per arc family: the radicand under phi' is rad = g w^2 + s
_ARC_FORMS = {
    Family.ARCCOSH: (1.0, -1.0, np.arccosh),
    Family.ARCSINH: (1.0, 1.0, np.arcsinh),
    Family.ARCSIN: (-1.0, 1.0, np.arcsin),
}


def _arc_family(family, a, b, c, K, r, sigma, lam) -> SolitonProfile:
    """phi = sigma (a/c) sqrt(g c/b) f(w) + r with w = K e^{-(c/a) z}.

    f is arccosh, arcsinh or arcsin, with (g, s) = (1, -1), (1, 1) or
    (-1, 1) and rad = g w^2 + s, positive inside the domain.  Then
    phi' = -sigma sqrt(g c/b) w / sqrt(rad) and
    phi'' = s sigma sqrt(g c/b) (c/a) w rad^-1.5.  Where rad overflows
    (w > ~1e154), phi' = -sigma sqrt(g c/b) / sqrt(g + s / w^2) and
    phi'' = s sigma sqrt(g c/b) (c/a) w^-2 (g + s w^-2)^-1.5.  One phase
    runs in float arithmetic, with numpy's ufuncs on floats; the edge and
    an overflowing w or rad take the array expression.  arcsinh
    has rad >= 1 on all of R; the other two are valid on a half-line ending
    at (a/c) ln K, where rad <= 0, phi stays finite and phi', phi'' are
    infinite.
    """
    a, b, c, K, r = float(a), float(b), float(c), float(K), float(r)
    _require_finite(a=a, b=b, c=c, K=K, r=r)
    if a == 0.0 or c == 0.0 or b == 0.0:
        raise BadParameters("arc families need a, b, c all nonzero")
    if K <= 0.0:
        raise BadParameters("K must be positive")
    if sigma not in (1.0, -1.0, 1, -1):
        raise BadParameters("sigma must be +1 or -1")
    sigma = float(sigma)
    g, s, arc = _ARC_FORMS[family]
    Q = c / b
    if g * Q <= 0.0:
        raise BadParameters(f"{family.value} family needs c/b {'>' if g > 0 else '<'} 0")
    rate = c / a
    if math.isinf(rate):
        raise BadParameters("the rate c/a overflows, so w = K e^{-(c/a) z} is undefined")
    sq = math.sqrt(g * Q)
    amp = sigma * (a / c) * sq
    if not math.isfinite(amp):
        raise BadParameters("the amplitude (a/c) sqrt(g c/b) overflows, so phi is undefined")
    if g * s > 0.0:
        dom = Interval(-math.inf, math.inf)
    else:
        edge = (a / c) * math.log(K)
        dom = Interval(-math.inf, edge) if (rate > 0) == (g > 0) else Interval(edge, math.inf)

    log_2k = math.log(2.0) + math.log(K)

    @_reused
    def w(z):
        with np.errstate(over="ignore"):    # the callers handle w = inf and rad = inf
            ww = K * np.exp(-rate * z)
            rad = g * ww * ww + s
        return ww, rad, rad <= 0.0

    def w_one(x):
        """(w, rad) at one phase as Python floats, or None on a rare branch:
        w or w^2 overflowing, or the edge rad <= 0.  A Python float
        product overflows to inf without a warning."""
        t = -rate * x       # np.exp overflows past 709.78
        ww = K * float(np.exp(t)) if t < 709.0 else math.inf
        rad = g * ww * ww + s
        return (ww, rad) if 0.0 < rad < math.inf else None

    # the regular branch, over floats or arrays
    def phi_of(ww, rad):
        return amp * arc(ww) + r

    def prime_of(ww, rad):
        return -sigma * sq * ww / np.sqrt(rad)

    def second_of(ww, rad):
        val = s * sigma * sq * rate * ww * np.power(rad, -1.5)
        if np.isfinite(val).all():
            return val
        # sqrt(g c/b) (c/a) can overflow where w is small enough to bring
        # phi'' back into range: there w scales c/a first
        with np.errstate(over="ignore", invalid="ignore"):
            again = s * sigma * sq * (rate * ww) * np.power(rad, -1.5)
        return np.where(np.isfinite(val), val, again)

    def phi(z):
        ww, rad, at_edge = w(z)
        val = phi_of(np.where(at_edge, 1.0, ww), rad)
        huge = np.isinf(ww)     # arccosh w = arcsinh w = ln 2w in double there
        if huge.any():
            val[huge] = amp * (log_2k - rate * z[huge]) + r
        return val

    def derivative(of, k, edge):
        """phi' (k = 0) or phi'' (k = 1), ``edge`` at the edge.  Where rad
        overflows, rad = w^2 q with v = 1/w^2 and q = g + s v turns
        of(w, rad) into of(v^k, q), so that w enters no product there."""
        def fn(z):
            ww, rad, at_edge = w(z)
            big = np.isinf(rad)
            val = of(np.where(big, 1.0, ww), np.where(at_edge | big, 1.0, rad))
            if big.any():
                v = (1.0 / ww[big]) ** 2
                val[big] = of(v ** k, g + s * v)
            return np.where(at_edge, edge, val)
        return _stacked(dom, fn, _one(w_one, of))

    params = {"a": a, "b": b, "c": c, "K": K, "r": r, "sigma": sigma}
    return SolitonProfile(family, params, _default_lam(lam), dom,
                          _stacked(dom, phi, _one(w_one, phi_of)),
                          derivative(prime_of, 0, -sigma * math.inf),
                          derivative(second_of, 1, s * sigma * rate * math.inf),
                          coeffs=constant_coeffs(a, c, b=b))


def soliton_arccosh(a, b, c, K, r=0.0, sigma=1.0, lam=None) -> SolitonProfile:
    """phi = sigma (a/c) sqrt(c/b) arccosh(K e^{-(c/a) z}) + r, for c/b > 0.

    Valid where w = K e^{-(c/a) z} >= 1, a half-line ending (or starting)
    at (a/c) ln K.  phi is finite at that endpoint while phi' diverges.
    """
    return _arc_family(Family.ARCCOSH, a, b, c, K, r, sigma, lam)


def soliton_arcsinh(a, b, c, K, r=0.0, sigma=1.0, lam=None) -> SolitonProfile:
    """phi = sigma (a/c) sqrt(c/b) arcsinh(K e^{-(c/a) z}) + r, on all of R."""
    return _arc_family(Family.ARCSINH, a, b, c, K, r, sigma, lam)


def soliton_arcsin(a, b, c, K, r=0.0, sigma=1.0, lam=None) -> SolitonProfile:
    """phi = sigma (a/c) sqrt(-c/b) arcsin(K e^{-(c/a) z}) + r, for c/b < 0.

    Valid where w = K e^{-(c/a) z} <= 1, the half-line complementary to the
    arccosh family's.  phi is finite at the endpoint, phi' diverges there.
    """
    return _arc_family(Family.ARCSIN, a, b, c, K, r, sigma, lam)


def _check_compatibility(coeffs: ReducedCoeffs, lo: float, hi: float) -> None:
    """Sample a' d - a d' - d c = 0, the condition (a/d)' = c/d, within COMPAT_TOL."""
    z = np.linspace(lo, hi, 21)
    ap = _central(coeffs.a, z, COMPAT_STEP)
    dp = _central(coeffs.d, z, COMPAT_STEP)
    a, d, c = coeffs.a(z), coeffs.d(z), coeffs.c(z)
    resid = ap * d - a * dp - d * c
    scale = np.maximum(1.0, np.max(np.abs([ap * d, a * dp, d * c]), axis=0))
    bad = ~(np.abs(resid) <= COMPAT_TOL * scale)
    if bad.any():
        raise CompatibilityViolated(f"(a/d)' = c/d fails at z = {_first(z, bad)}: "
                                    f"residual {_first(resid, bad):.3e}")


def _first_integral_antiderivative(k1: float):
    """L with L'(phi) = 3 / (phi^3 - k1^3), the separated Van der Pol side."""
    s3 = math.sqrt(3.0)

    def L(phi):
        num = np.abs(phi - k1)
        den = np.sqrt(phi * phi + phi * k1 + k1 * k1)
        return (np.log(num / den) - s3 * np.arctan((2.0 * phi + k1) / (k1 * s3))) / (k1 * k1)

    return L


_XTOL, _RTOL, _MAXITER = 1e-14, 8.9e-16, 200


def _solve_branch(L, k1: float, side: float, near: float, far: float, target):
    """phi = k1 + side * s with L(phi) = target and near <= s <= far, for a
    1-D array of targets.

    Along s > 0, L rises from -inf (at k1) towards its far limit, so a target
    outside [L(k1 + side near), L(k1 + side far)] has no root in the bracket
    and raises NoBracket.  Each element starts at the bracket's geometric
    mean and steps in u = ln s by Newton, dL/du = 3/q with q = phi^2 + phi k1
    + k1^2, stretched for the rate kappa at which dL/du decays: exact where
    the branch collapses (kappa -> 0) and escapes (kappa -> 2).  A step that
    leaves the element's bracket bisects it at the geometric mean.  It stops
    at a step within _XTOL + _RTOL |phi|, or at a residual within L's rounding
    4 eps max(1, |target|): where L is flat, that defines the root only to
    within that over L'(phi).  NoBracket is raised after _MAXITER steps.
    """
    outside = ~((L(k1 + side * near) <= target) & (target <= L(k1 + side * far)))
    if outside.any():
        raise NoBracket(f"no root on this branch for the target {_first(target, outside)}")
    root, todo, t = np.empty(target.shape), np.arange(target.size), target
    s, lo, hi = (np.full(t.shape, v) for v in (math.sqrt(near * far), near, far))
    for _ in range(_MAXITER):
        phi = k1 + side * s
        q = phi * phi + phi * k1 + k1 * k1
        f = L(phi) - t
        lo, hi = np.where(f < 0.0, s, lo), np.where(f < 0.0, hi, s)
        du, kappa = -f * q / 3.0, (2.0 * phi + k1) * side * s / q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = s * np.exp(np.where(kappa * du == 0.0, du, -np.log1p(-kappa * du) / kappa))
        done = ((np.abs(new - s) <= _XTOL + _RTOL * np.abs(phi))
                | (np.abs(f) <= 4.0 * 2.0 ** -52 * np.maximum(1.0, np.abs(t))))
        root[todo[done]] = k1 + side * new[done]
        new = np.where((lo <= new) & (new <= hi), new, np.sqrt(lo * hi))
        todo, s, lo, hi, t = (v[~done] for v in (todo, new, lo, hi, t))
        if not todo.size:
            return root
    raise NoBracket(f"branch root not found in {_MAXITER} steps")


def vdp_implicit(coeffs: ReducedCoeffs, k1: float, z0: float = 0.0,
                 phi0: float | None = None, domain=(-5.0, 5.0),
                 square_relation: str = "reciprocal", lam=None) -> SolitonProfile:
    """Van der Pol profile through the first integral phi^3/3 = (a/d) phi' + k.

    Requires the compatibility relation (a/d)' = c/d (checked by sampling,
    CompatibilityViolated otherwise); k = k1^3 / 3.  ``phi0`` anchors the
    profile, phi(z0) = phi0, and for k1 != 0 also selects the monotone
    branch (phi0 above or below k1).

    k1 = 0 resolves in closed form.  With H(z) = int_{z0}^{z} d/a:

        reciprocal: phi^{-2} = -(2/3) (H(z) + C),  C = -(3/2) / phi0^2
        direct:     phi^2    = -(2/3) (H(z) + C),  C = -(3/2) phi0^2

    Only the reciprocal relation satisfies the ODE; the direct one is kept
    strictly as a negative control for the residual tests, and exists for
    k1 = 0 only.  The domain shrinks to the maximal subinterval around z0
    on which the squared quantity stays positive (k1 = 0).

    For k1 != 0, phi solves L(phi) = H(z) + C with L' = 3 / (phi^3 - k1^3)
    and C = L(phi0).  The domain shrinks to the maximal subinterval around z0
    on which |phi - k1| stays above 4e-16 max(1, |k1|), where the branch
    collapses onto k1 to float resolution, and below 1e12 max(1, |k1|,
    4 |phi0 - k1|), where it escapes.  The root is solved once, by
    _solve_branch's bracketed Newton iteration in ln|phi - k1|, at the
    Chebyshev points of the domain, against H refitted there when the
    domain shrinks, and phi is phi0 plus the Chebyshev antiderivative of
    phi' = (d/a)(phi^3 - k1^3)/3 there.  ``params`` records the kept
    length of each series (H, and phi for k1 != 0) as ``cheb_terms``.
    """
    if coeffs.variant is not Variant.VAN_DER_POL:
        raise WrongVariant("vdp_implicit needs Van der Pol coefficients")
    if phi0 is None:
        raise BadParameters("phi0 (the anchor value at z0) is required")
    lam = _default_lam(lam)
    lo, hi = float(domain[0]), float(domain[1])
    k1, phi0 = float(k1), float(phi0)
    _require_finite(k1=k1, phi0=phi0, domain_lo=lo, domain_hi=hi)
    if not lo < hi or not lo <= z0 <= hi:
        raise BadParameters("need lo < hi with z0 inside the domain")
    if square_relation not in ("reciprocal", "direct"):
        raise BadParameters("square_relation must be 'reciprocal' or 'direct'")
    if square_relation == "direct" and k1 != 0.0:
        raise BadParameters("square_relation 'direct' exists only for k1 = 0")

    _check_compatibility(coeffs, lo, hi)

    def d_over_a(s):
        return coeffs.d(s) / coeffs.a(s)

    H, H_series = _cheb_antiderivative(d_over_a, lo, hi, z0)
    zs = np.linspace(lo, hi, VDP_SCAN)

    k3 = k1 * k1 * k1

    # phi' from the first integral with r = d/a, and its derivative, in which
    # r' = -(c/a) r follows from the compatibility relation; k1 = 0 included
    def prime_from(p, r):
        return r * (p * p * p - k3) / 3.0

    def second_from(p, r, dr, dp):
        return dr * (p * p * p - k3) / 3.0 + r * p * p * dp

    def profile(params, dom, phi, prime_from, second_from):
        """The profile whose phi' and phi'' reuse one phi and one d/a over
        an array of phases; one phase, a float, computes them afresh."""
        def ratio(z):
            a = coeffs.a(z)
            return a, coeffs.d(z) / a

        def jet(phi, ratio):
            def phi_prime(z):
                p, (_, r) = phi(z), ratio(z)
                return prime_from(p, r)

            def phi_second(z):
                p, (a, r) = phi(z), ratio(z)
                return second_from(p, r, -(coeffs.c(z) / a) * r, prime_from(p, r))
            return phi, phi_prime, phi_second

        params = {**params, "z0": float(z0), "phi0": phi0,
                  "coeffs": _coeffs_payload(coeffs)}
        # phi and d/a are kept apart, so that a call of phi alone computes no d/a
        fns = zip(jet(_reused(phi), _reused(ratio)), jet(phi, ratio))
        return SolitonProfile(Family.VDP_IMPLICIT, params, lam, dom,
                              *(_stacked(dom, fn, one) for fn, one in fns), coeffs=coeffs)

    if k1 == 0.0:
        if phi0 == 0.0:
            raise BadParameters("phi0 must be nonzero for the k1 = 0 branch")
        sgn = math.copysign(1.0, phi0)
        reciprocal = square_relation == "reciprocal"
        C = -1.5 / (phi0 * phi0) if reciprocal else -1.5 * (phi0 * phi0)

        def squared(z):
            return -(2.0 / 3.0) * (H(z) + C)

        dom = _positive_run(zs, squared(zs) > 0.0, z0,
                            EmptyDomain("the squared relation is nonpositive at the anchor"))

        def phi(z):
            P = squared(z)
            if _any(P <= 0.0):
                raise DomainExceeded(f"phi{'^-2' if reciprocal else '^2'} "
                                     f"nonpositive at z = {_first(z, P <= 0.0)}")
            return sgn / np.sqrt(P) if reciprocal else sgn * np.sqrt(P)

        params = {"k1": 0.0, "square_relation": square_relation,
                  "cheb_terms": {"H": len(H_series)}}
        if reciprocal:
            return profile(params, dom, phi, prime_from, second_from)

        # the negative control differentiates its own relation
        def direct_prime(p, r):
            return -r / (3.0 * p)

        def direct_second(p, r, dr, dp):
            return -dr / (3.0 * p) + r * dp / (3.0 * p * p)

        return profile(params, dom, phi, direct_prime, direct_second)

    # k1 != 0: implicit relation L(phi) = H(z) + C on a monotone branch
    if phi0 == k1:
        raise BadParameters("phi0 = k1 is the constant solution; "
                            "the implicit branches exclude it")
    L = _first_integral_antiderivative(k1)
    side = 1.0 if phi0 > k1 else -1.0
    C = float(L(phi0))
    near = 4e-16 * max(1.0, abs(k1))
    far = 1e12 * max(1.0, abs(k1), 4.0 * abs(phi0 - k1))
    L_near, L_far = (float(L(k1 + side * s)) for s in (near, far))
    target = H(zs) + C
    solvable = (L_near < target) & (target < L_far - 1e-12 * max(1.0, abs(L_far)))
    dom = _positive_run(zs, solvable, z0,
                        NoBracket("the requested branch has no root at the anchor"))
    if (dom.lo, dom.hi) != (lo, hi):
        # as quadrature refits F and G: H on [lo, hi] carries the rounding
        # of its largest values there, which the branch amplifies where phi
        # is large
        H, H_series = _cheb_antiderivative(d_over_a, dom.lo, dom.hi, z0)

    def branch_prime(z):
        p = _solve_branch(L, k1, side, near, far, H(z) + C)
        return prime_from(p, d_over_a(z))

    # phi' is sampled once, at the Chebyshev points of the domain
    PHI, phi_series = _cheb_antiderivative(branch_prime, dom.lo, dom.hi, z0)

    def phi(z):
        return phi0 + PHI(z)

    return profile({"k1": k1, "branch": "above" if side > 0 else "below",
                    "cheb_terms": {"H": len(H_series), "phi": len(phi_series)}},
                   dom, phi, prime_from, second_from)


def vdp_explicit(a, c, d, K, lam=None) -> SolitonProfile:
    """phi(z) = 1 / sqrt(K e^{(2c/a) z} + d/(3c)), constant coefficients.

    Satisfies the first integral a phi' - (d/3) phi^3 + c phi = 0 and hence
    the Van der Pol reduction.  The domain is where the radicand stays
    positive; when it is unbounded the approached limits (0 on the decaying
    side, sqrt(3c/d) on the saturating side) are attached as metadata
    ``limit_neg_inf`` / ``limit_pos_inf``.
    """
    a, c, d, K = float(a), float(c), float(d), float(K)
    _require_finite(a=a, c=c, d=d, K=K)
    if a == 0.0 or c == 0.0:
        raise BadParameters("need a != 0 and c != 0")
    lam = _default_lam(lam)
    # c / a first, so that 2c cannot overflow where the rate is finite
    rate = 2.0 * (c / a)
    three_c = 3.0 * c
    if math.isinf(three_c):
        raise BadParameters("the offset d/(3c) cannot be formed: 3c overflows")
    off = d / three_c
    log_abs_k = math.log(abs(K)) if K != 0.0 else 0.0
    # past this exponent K e^{rate z} dwarfs off and a direct exp overflows
    tail_floor = max(690.0, math.log(max(abs(off), 1.0)) + 40.0)

    # domain analysis: where K e^{rate z} + off > 0
    if K <= 0.0 and off <= 0.0:
        raise EmptyDomain("constant radicand is nonpositive" if K == 0.0
                          else "radicand is negative everywhere")
    if K >= 0.0 and off >= 0.0:
        dom = Interval(-math.inf, math.inf)
    else:
        # the domain lies past the radicand's one zero, on the side where it
        # grows; comparisons pick that side, as the product K rate can underflow
        ratio = -off / K
        if rate == 0.0 or ratio == 0.0 or math.isinf(ratio):
            what = "rate 2c/a" if rate == 0.0 else "ratio -d/(3cK)"
            how = "underflows to 0" if rate == 0.0 or ratio == 0.0 else "overflows"
            raise BadParameters(f"the {what} {how}, so the radicand's zero cannot be placed")
        zb = math.log(ratio) / rate
        grows = (K > 0.0) == (rate > 0.0)
        edge = zb + math.copysign(1e-9 * max(1.0, abs(zb)), 1.0 if grows else -1.0)
        dom = Interval(edge, math.inf) if grows else Interval(-math.inf, edge)
    if math.isinf(rate):
        raise BadParameters("the rate 2c/a overflows, so K e^{(2c/a) z} is undefined")
    if math.isinf(off):
        raise BadParameters("the offset d/(3c) overflows, so the radicand is undefined")

    @_reused
    def radicand(z):
        """(e, tail, t): e = K e^{t} + off with t = ln|K| + rate z, and the
        points (K > 0 only) where t alone decides the value, whose e may be
        infinite.  Raises where e <= 0 off the tail."""
        if K == 0.0:
            return np.full(z.shape, off), np.zeros(z.shape, bool), np.zeros(z.shape)
        t = log_abs_k + rate * z
        term = np.where(t > 709.0, math.inf, np.exp(np.minimum(t, 709.0)))
        e = np.copysign(term, K) + off
        tail = t > tail_floor if K > 0.0 else np.zeros(z.shape, bool)
        bad = ~tail & (e <= 0.0)
        if bad.any():
            raise DomainExceeded(f"radicand nonpositive at z = {_first(z, bad)}")
        return e, tail, np.where(tail, t, 0.0)

    def radicand_one(x):
        """(e,) at one phase as a Python float, or None on a rare branch: an
        exponent past the tail floor or exp's range, or e <= 0."""
        if K == 0.0:
            return (off,)
        t = log_abs_k + rate * x
        e = math.copysign(float(np.exp(t)), K) + off if t <= min(709.0, tail_floor) else 0.0
        return (e,) if e > 0.0 else None

    # derivatives are written through s = (e - off)/e = 1 - off/e, which stays
    # bounded where e is large; (e - off)^2 would overflow long before then.
    # Off the tail, over floats or arrays:
    def phi_of(e):
        return 1.0 / np.sqrt(e)

    def prime_of(e):
        return -0.5 * rate * (1.0 - off / e) / np.sqrt(e)

    def second_of(e):
        s = 1.0 - off / e
        return rate * rate * (0.75 * s - 0.5) * s / np.sqrt(e)

    def stacked(k, of):
        """The profile callable that is of(e) off the tail and k e^{-t/2} on it."""
        def fn(z):
            e, tail, t = radicand(z)
            return np.where(tail, k * np.exp(-0.5 * t), of(e))
        return _stacked(dom, fn, _one(radicand_one, of))

    def tail_limit(e_tail):
        if e_tail <= 0.0:
            return None
        return 0.0 if math.isinf(e_tail) else 1.0 / math.sqrt(e_tail)

    if K == 0.0:
        e_plus = e_minus = off
    elif rate > 0.0:
        e_plus, e_minus = math.copysign(math.inf, K), off
    else:
        e_plus, e_minus = off, math.copysign(math.inf, K)

    params = {
        "a": a, "c": c, "d": d, "K": K,
        "limit_pos_inf": tail_limit(e_plus) if math.isinf(dom.hi) else None,
        "limit_neg_inf": tail_limit(e_minus) if math.isinf(dom.lo) else None,
    }
    return SolitonProfile(Family.VDP_EXPLICIT, params, lam, dom, stacked(1.0, phi_of),
                          stacked(-0.5 * rate, prime_of), stacked(0.25 * rate * rate, second_of),
                          coeffs=constant_coeffs(a, c, d=d))


def as_multitime(profile: SolitonProfile) -> FieldFunction:
    """Lift a profile to the field u(x, t) = phi(x - lambda_alpha t^alpha).

    lambda is the profile's own speed vector (``with_speed`` changes it).
    The jet follows by the chain rule: du/dt^a = -lambda_a phi',
    d2u/dt^a dt^b = lambda_a lambda_b phi'', d2u/dx2 = phi''.  The phase is
    computed once per call and phi, phi', phi'' are called once each on
    it, so the work they share runs once.
    Points whose phase leaves the profile domain raise DomainExceeded.
    """
    lam = profile.lam
    lv = lam.values

    def jet(x, t):
        z = lam.z(x, t)
        phi, d1, d2 = profile.phi(z), profile.phi_prime(z), profile.phi_second(z)
        return (phi, np.multiply.outer(d1, -lv),
                np.multiply.outer(d2, np.outer(lv, lv)), d2)

    return FieldFunction(jet, m=lam.m)


def with_speed(profile: SolitonProfile, lam: SpeedVector) -> SolitonProfile:
    """The same profile attached to a different speed covector."""
    return replace(profile, lam=lam)
