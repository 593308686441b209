"""Independent verification routes: ODE integration, residual sweeps, decay.

Nothing here reuses the closed-form construction logic.  The reduction is
re-integrated numerically from initial data, the multitime residual is
evaluated from the jet of the candidate field at every grid point in one
array pass, and the damped
single-time equation u_tt - u_xx = eps (u_t - u_t^3) is solved by a
spectral method of lines.  Agreement between these routes and the
constructed profiles is what the test suite certifies.

scipy is a dependency but loads on the first call of integrate_reduction
or integrate_single_time_rayleigh, so `import mrayleigh` costs about a
numpy import and the CLI's profile, series, decay and verify --family
stationary never load scipy.  Keep the scipy imports inside those two
functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closed_form import Interval, SolitonProfile, _stacked, as_multitime
from .coefficients import ReducedCoeffs, Variant, _central, _require_finite, _unwrap
from .errors import (
    BadParameters,
    BlowUp,
    CFLViolation,
    DomainExceeded,
    EmptyDomain,
    StiffnessFailure,
    WrongVariant,
)
from .geometry import FieldFunction, GridSpec, ResidualReport, _residual

# terminal-event threshold for the reduction integrator
OVERFLOW_GUARD = 1e12

# solver failures with the state already past this are classified
# as finite-z blow-up rather than stiffness
_BLOWUP_FLOOR = 1e6

TOL_MIN = 1e-12
TOL_MAX = 1e-4
CHAIN_SKIP_TOL = 1e-12      # the chain check skips |phi'| below this
DECAY_SAMPLES = 2000        # decay_check's samples along the ray
SPECTRAL_TOL = 1e-10        # rtol = atol of the single-time integrator
FD_STEP_FIRST = 1e-5        # central-difference step, scaled by max(1, |z|)


def _along(fn, z: np.ndarray) -> np.ndarray:
    """A profile callable over the phases z, broadcast to z's shape (a
    callable that ignores its argument may return a constant)."""
    return np.broadcast_to(np.asarray(fn(z), dtype=float), z.shape)


def _rhs_for(coeffs: ReducedCoeffs):
    def rhs(z, y):
        phi, psi = y
        return [psi, coeffs.second(z, phi, psi)]
    return rhs


@dataclass
class IvpSolution:
    """Dense numerical solution of the reduced ODE on one z-interval.

    ``phi`` and ``phi_prime`` are cubic Hermite splines through the nodes,
    ``phi_second`` is the derivative of the phi' spline; like a profile's
    callables, each raises DomainExceeded for z outside ``span``.
    """

    coeffs: ReducedCoeffs
    nodes: np.ndarray
    phi_values: np.ndarray
    phi_prime_values: np.ndarray
    phi: Callable = field(repr=False)
    phi_prime: Callable = field(repr=False)
    phi_second: Callable = field(repr=False)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])


def _integrate_one_way(rhs, z0, z1, y0, tol):
    """solve_ivp leg with blow-up classification and 3-point node refinement."""
    from scipy.integrate import solve_ivp

    def overflow(z, y):
        return OVERFLOW_GUARD - float(np.max(np.abs(y)))
    overflow.terminal = True

    sol = solve_ivp(rhs, (z0, z1), y0, method="RK45", rtol=tol, atol=tol,
                    dense_output=True, events=[overflow])
    blew_up = sol.status == 1 and sol.t_events[0].size > 0
    if not blew_up and sol.status < 0:
        # the step-size controller died; distinguish escape from stiffness
        last = float(np.max(np.abs(sol.y[:, -1]))) if sol.y.size else 0.0
        if last > _BLOWUP_FLOOR:
            blew_up = True
        else:
            raise StiffnessFailure(
                f"integrator failed at z = {sol.t[-1]}: {sol.message}")
    if blew_up:
        raise BlowUp(f"solution escaped before z = {z1}",
                     z_reached=float(sol.t[-1]))

    # refine: three interior samples per accepted step
    zs = [sol.t[0]]
    for za, zb in zip(sol.t[:-1], sol.t[1:]):
        zs.extend(za + (zb - za) * np.array([0.25, 0.5, 0.75]))
        zs.append(zb)
    zs = np.array(zs)
    vals = sol.sol(zs)
    return zs, vals[0], vals[1]


def integrate_reduction(coeffs: ReducedCoeffs, phi0: float, phi_prime0: float,
                        span: tuple[float, float] = (-10.0, 10.0),
                        z0: float | None = None,
                        tol: float = 1e-10) -> IvpSolution:
    """Integrate the reduced ODE as a first-order system in (phi, phi').

    Initial data is posed at ``z0`` (default: the left end of ``span``) and
    the solver runs toward both ends when z0 is interior.  Tolerance outside
    [1e-12, 1e-4] raises BadParameters.  Escape past 1e12 raises BlowUp
    with the z reached, other integrator failures raise StiffnessFailure.
    """
    from scipy.interpolate import CubicHermiteSpline

    if not (TOL_MIN <= tol <= TOL_MAX):
        raise BadParameters(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    lo, hi = float(span[0]), float(span[1])
    if not lo < hi:
        raise BadParameters("span must be an increasing pair")
    if z0 is None:
        z0 = lo
    z0 = float(z0)
    if not (lo <= z0 <= hi):
        raise BadParameters("z0 must lie inside span")

    rhs = _rhs_for(coeffs)
    y0 = [float(phi0), float(phi_prime0)]
    segs = []
    if z0 > lo:
        zb, pb, qb = _integrate_one_way(rhs, z0, lo, y0, tol)
        segs.append((zb[::-1][:-1], pb[::-1][:-1], qb[::-1][:-1]))
    segs.append((np.array([z0]), np.array([y0[0]]), np.array([y0[1]])))
    if z0 < hi:
        zf, pf, qf = _integrate_one_way(rhs, z0, hi, y0, tol)
        segs.append((zf[1:], pf[1:], qf[1:]))

    z = np.concatenate([s[0] for s in segs])
    phi = np.concatenate([s[1] for s in segs])
    psi = np.concatenate([s[2] for s in segs])
    keep = np.concatenate([[True], np.diff(z) > 0])
    z, phi, psi = z[keep], phi[keep], psi[keep]
    psi_prime = rhs(z, (phi, psi))[1]

    dom = Interval(float(z[0]), float(z[-1]))
    psi_spline = CubicHermiteSpline(z, psi, psi_prime)
    return IvpSolution(coeffs, z, phi, psi, _stacked(dom, CubicHermiteSpline(z, phi, psi)),
                       _stacked(dom, psi_spline), _stacked(dom, psi_spline.derivative()))


def bernoulli_chain_check(coeffs: ReducedCoeffs, profile, samples,
                          tol: float = 1e-6) -> bool:
    """Check both stages of the order reduction along a profile.

    psi = phi' must satisfy psi' = -(c/a) psi + (b/a) psi^3, and
    xi = psi^-2 the linear equation xi' - 2 (c/a) xi = -2 (b/a).  Both
    derivatives come from central finite differences of the profile, so
    neither route trusts a supplied second derivative.  Samples where
    |phi'| < CHAIN_SKIP_TOL are skipped with a warning (xi is undefined
    there); if every sample is skipped the answer is vacuously true.
    """
    if coeffs.variant is not Variant.RAYLEIGH:
        raise WrongVariant("the cubic-in-psi chain applies to the B-field variant")
    z = np.asarray(samples, dtype=float).reshape(-1)
    psi = _along(profile.phi_prime, z)
    flat = np.abs(psi) < CHAIN_SKIP_TOL
    z, psi = z[~flat], psi[~flat]
    a, b, c = coeffs.a(z), coeffs.b(z), coeffs.c(z)

    def psi_xi(s):
        p = _along(profile.phi_prime, s)
        return np.stack([p, p ** -2])

    # one difference of the pair reads phi' twice per sample
    dpsi, dxi = _central(psi_xi, z, FD_STEP_FIRST)
    if not np.all(np.abs(dpsi + (c / a) * psi - (b / a) * psi ** 3) <= tol):
        return False
    if not np.all(np.abs(dxi - 2.0 * (c / a) * psi ** -2 + 2.0 * (b / a)) <= tol):
        return False
    if flat.any():
        warnings.warn(f"{np.count_nonzero(flat)} samples skipped where |phi'| < {CHAIN_SKIP_TOL}",
                      RuntimeWarning, stacklevel=2)
    return True


def reduction_ode_residual(coeffs: ReducedCoeffs, profile, zs,
                           derivative_mode: str = "analytic") -> ResidualReport:
    """Residual of the reduced ODE along a profile, as a labelled report.

    ``derivative_mode`` picks where phi'' comes from: "analytic" uses the
    profile's own second derivative, "fd" central-differences phi' so that
    the check does not trust the constructed phi''.
    """
    if derivative_mode not in ("analytic", "fd"):
        raise BadParameters("derivative_mode must be 'analytic' or 'fd'")
    z = np.asarray(zs, dtype=float).reshape(-1)
    p = _along(profile.phi_prime, z)
    if derivative_mode == "fd":
        pp = _central(lambda s: _along(profile.phi_prime, s), z, FD_STEP_FIRST)
    else:
        pp = _along(profile.phi_second, z)
    cubic = coeffs.cubic(z, _along(profile.phi, z), p)
    residuals = coeffs.a(z) * pp - cubic + coeffs.c(z) * p
    return ResidualReport.from_samples(z.reshape(-1, 1), residuals, ("z",))


def residual_sweep(u, structure, grid: GridSpec,
                   skip_out_of_domain: bool = False) -> ResidualReport:
    """Evaluate the variant residual of ``u`` at every grid point at once.

    ``u`` may be a FieldFunction or a SolitonProfile, which is lifted by
    ``as_multitime`` through its own speed vector.  With
    ``skip_out_of_domain`` the points whose phase lies outside the
    profile's validity interval are dropped before evaluation; if every
    point drops, EmptyDomain is raised.  Otherwise an out-of-domain point
    raises DomainExceeded.
    """
    x, t = grid.arrays()
    if isinstance(u, SolitonProfile):
        if skip_out_of_domain:
            keep = u.domain.contains(u.lam.z(x, t))
            if not keep.any():
                raise EmptyDomain("every grid point fell outside the profile domain")
            x, t = x[keep], t[keep]
        u = as_multitime(u)
    residuals = _residual(u, structure, x, t)
    return ResidualReport.from_samples(np.column_stack([x, t]),
                                       np.broadcast_to(residuals, x.shape), grid.labels())


@dataclass(frozen=True)
class DecayResult:
    """Outcome of following a profile along a ray in multitime."""

    direction: tuple[float, ...]
    threshold: float
    horizon: float
    ok: bool
    crossing_radius: float | None
    final_value: float
    limit_metadata: dict

    def to_json_dict(self) -> dict:
        return {
            "direction": [float(v) for v in self.direction],
            "threshold": float(self.threshold),
            "horizon": float(self.horizon),
            "ok": bool(self.ok),
            "crossing_radius": None if self.crossing_radius is None
            else float(self.crossing_radius),
            "final_value": float(self.final_value),
            "limit_metadata": self.limit_metadata,
        }


def decay_check(profile: SolitonProfile, direction, threshold: float = 1e-3,
                horizon: float = 1e3, x: float = 0.0) -> DecayResult:
    """Does |phi| fall below ``threshold`` along t = s * direction, s -> horizon?

    The phase is z = x - s (lambda . direction); the ray is sampled at
    DECAY_SAMPLES points up to the horizon, restricted to the profile's
    validity interval.  ok means a crossing radius exists past which every
    remaining sample stays under the threshold.  Known asymptotic limits
    recorded on the profile are passed through as metadata for the relevant
    phase direction.
    """
    horizon, threshold, x = float(horizon), float(threshold), float(x)
    for name, v in (("horizon", horizon), ("threshold", threshold)):
        if not (math.isfinite(v) and v > 0.0):
            raise BadParameters(f"{name} must be finite and positive, got {v}")
    _require_finite(x=x)
    direction = np.asarray(direction, dtype=float)
    if not np.all(np.isfinite(direction)):
        raise BadParameters(f"direction must be finite, got {direction.tolist()}")
    if direction.size != profile.lam.m:
        raise BadParameters("direction length must match the number of times")
    rate = float(np.dot(profile.lam.values, direction))
    if rate == 0.0:
        raise BadParameters("phase is constant along this direction")
    s = np.linspace(0.0, horizon, DECAY_SAMPLES)
    z = x - rate * s
    inside = profile.domain.contains(z)
    if not inside.any():
        raise EmptyDomain("the ray never meets the profile domain")
    s, z = s[inside], z[inside]
    vals = np.abs(_along(profile.phi, z))

    below = vals <= threshold
    crossing = None
    if below[-1]:
        # earliest sample past which no later sample exceeds the threshold
        idx = np.where(~below)[0]
        first_stable = 0 if idx.size == 0 else idx[-1] + 1
        crossing = float(s[first_stable])
    side = "-inf" if rate > 0 else "+inf"
    key = "limit_neg_inf" if rate > 0 else "limit_pos_inf"
    meta = {"phase_tends_to": side}
    if key in profile.params:
        meta["stated_limit"] = profile.params[key]
    return DecayResult(tuple(float(v) for v in direction), threshold,
                       horizon, crossing is not None, crossing,
                       float(vals[-1]), meta)


@dataclass
class SingleTimeSolution:
    """Spectral method-of-lines solution of u_tt - u_xx = eps (u_t - u_t^3).

    Periodic on x in [0, 2 pi).  Fourier coefficients of u and u_t are
    splined over t (quintic), so ``jet`` gives the field and the derivatives
    entering the residual at arbitrary (x, t): u_t and u_tt from the
    velocity spline and its derivative, u_xx by wavenumber multiplication.
    """

    epsilon: float
    t_final: float
    n_x: int
    _k: np.ndarray = field(repr=False)
    _su: object = field(repr=False)
    _sv: object = field(repr=False)
    _svd: object = field(repr=False)

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * max(1.0, self.t_final)
        outside = (t < -slack) | (t > self.t_final + slack)
        if np.any(outside):
            raise DomainExceeded(f"t = {np.ravel(t)[np.argmax(np.ravel(outside))]} "
                                 f"outside the integrated range [0, {self.t_final}]")
        return t

    def _coeffs(self, spline, t) -> np.ndarray:
        """Complex Fourier coefficients at t, on a trailing axis."""
        row = np.asarray(spline(t))
        half = row.shape[-1] // 2
        return row[..., :half] + 1j * row[..., half:]

    def _trig(self, ch: np.ndarray, x, order: int = 0):
        """The order-th x-derivative of the real field with coefficients ch
        at x; ch's leading axes broadcast against x's."""
        w = np.full(ch.shape[-1], 2.0)
        w[0] = 1.0
        if self.n_x % 2 == 0:
            w[-1] = 1.0
        fac = (1j * self._k) ** order if order else 1.0
        waves = np.exp(1j * self._k * np.expand_dims(np.asarray(x, dtype=float), -1))
        return _unwrap(np.real(np.einsum("...k,...k->...", w * fac * ch, waves)) / self.n_x)

    def jet(self, x, t):
        """(u, u_t, u_tt, u_xx) at x and t, which broadcast together."""
        t = self._check_t(t)
        cu = self._coeffs(self._su, t)
        u, u_xx = self._trig(cu, x), self._trig(cu, x, order=2)
        del cu                  # one coefficient set alive at a time
        u_t = self._trig(self._coeffs(self._sv, t), x)
        u_tt = self._trig(self._coeffs(self._svd, t), x)
        return u, u_t, u_tt, u_xx

    def as_field(self) -> FieldFunction:
        """The solution as a one-time field; t has a trailing axis of length 1."""
        def jet(x, t):
            u, u_t, u_tt, u_xx = self.jet(x, np.asarray(t, dtype=float)[..., 0])
            return u, np.expand_dims(u_t, -1), np.expand_dims(u_tt, (-2, -1)), u_xx

        return FieldFunction(jet, m=1)

    def residual_estimate(self, n_probe_x: int = 48, n_probe_t: int = 33) -> float:
        """Max |u_tt - u_xx - eps (u_t - u_t^3)| over an off-grid probe lattice."""
        xs = np.linspace(0.1, 2.0 * np.pi - 0.1, n_probe_x)
        ts = np.linspace(0.0, self.t_final, n_probe_t)[:, None]
        cu, cv, ca = (self._coeffs(sp, ts) for sp in (self._su, self._sv, self._svd))
        ut = self._trig(cv, xs)
        r = (self._trig(ca, xs) - self._trig(cu, xs, order=2)
             - self.epsilon * (ut - ut ** 3))
        return float(np.max(np.abs(r)))


def integrate_single_time_rayleigh(epsilon: float, u0, v0, t_final: float,
                                   n_x: int = 512, n_t: int = 201) -> SingleTimeSolution:
    """Solve the damped wave equation on the periodic circle, spectrally.

    ``u0`` and ``v0`` give initial displacement and velocity as functions
    of x; ``n_x`` modes are integrated with tolerance SPECTRAL_TOL and
    ``n_t`` time slices are stored.  Integrator failure, overflow
    included, surfaces as CFLViolation without a RuntimeWarning.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import make_interp_spline

    _require_finite(epsilon=epsilon, t_final=t_final)
    if t_final <= 0.0:
        raise BadParameters("t_final must be positive")
    if n_x < 1 or n_t < 6:
        raise BadParameters("n_x must be at least 1 and n_t at least 6 (a quintic "
                            f"spline in t), got n_x = {n_x}, n_t = {n_t}")
    x = np.linspace(0.0, 2.0 * np.pi, n_x, endpoint=False)
    k = np.fft.rfftfreq(n_x, d=1.0 / n_x)
    u_init = np.array([u0(xi) for xi in x], dtype=float)
    v_init = np.array([v0(xi) for xi in x], dtype=float)
    y0 = np.concatenate([u_init, v_init])

    def rhs(t, y):
        u, v = y[:n_x], y[n_x:]
        uxx = np.fft.irfft(-(k ** 2) * np.fft.rfft(u), n_x)
        return np.concatenate([v, uxx + epsilon * (v - v ** 3)])

    ts = np.linspace(0.0, t_final, n_t)
    # a solution that overflows makes the step controller give up, which
    # raises below; the overflow itself is not worth a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853",
                        rtol=SPECTRAL_TOL, atol=SPECTRAL_TOL, t_eval=ts)
    if not sol.success:
        raise CFLViolation(f"time integration failed: {sol.message}")

    U = sol.y[:n_x, :].T
    V = sol.y[n_x:, :].T
    cu = np.fft.rfft(U, axis=1)
    cv = np.fft.rfft(V, axis=1)
    su = make_interp_spline(ts, np.concatenate([cu.real, cu.imag], axis=1),
                            k=5, axis=0)
    sv = make_interp_spline(ts, np.concatenate([cv.real, cv.imag], axis=1),
                            k=5, axis=0)
    return SingleTimeSolution(float(epsilon), float(t_final), n_x,
                              k, su, sv, sv.derivative())
