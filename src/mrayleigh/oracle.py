"""Independent verification routes: ODE integration, residual sweeps, decay.

Nothing here reuses the closed-form construction logic.  The reduction is
re-integrated numerically from initial data, the multitime residual is
evaluated from the jet of the candidate field at every grid point in one
array pass, and the damped
single-time equation u_tt - u_xx = eps (u_t - u_t^3) is solved by a
spectral method of lines.  Agreement between these routes and the
constructed profiles is what the test suite certifies.

Both integrating routes take their steps from one Dormand-Prince 5(4)
stepper in numpy, ``_dp45``, in integrating-factor (Lawson) form: the
reduction's flow is the identity, the single-time equation's the exact
rotation of each Fourier mode, and numpy is the only dependency.  Its
linear combinations stay np.dot, so its steps are scipy RK45's bit for
bit; they combine stages, not points.  A point's value never depends on
the other points in its call: no multi-row BLAS product runs across
points, and integer powers are written as products.
"""

from __future__ import annotations

import bisect
import math
import warnings
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
from .geometry import FieldFunction, GridSpec, ResidualReport, residual

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
TAU_R_MAX = 1e-4            # a single-time solve past this residual is not trusted
SPECTRAL_MAX_STEPS = 2000   # accepted steps the single-time integrator may take
FD_STEP_FIRST = 1e-5        # central-difference step, scaled by max(1, |z|)


def _along(fn, z: np.ndarray) -> np.ndarray:
    """A profile callable over the phases z, broadcast to z's shape (a
    callable that ignores its argument may return a constant)."""
    return np.broadcast_to(np.asarray(fn(z), dtype=float), z.shape)


# Dormand-Prince 5(4) as scipy's RK45 writes it: stage nodes C, stage
# matrix A, 5th-order weights B, error weights E (5th minus 4th order, the
# first-same-as-last stage included) and the 4th-order continuous
# extension P (Shampine, Math. Comp. 46, 1986)
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# stage i with its node and its row of A, sliced once
_DP_STAGES = [(i, _DP_C[i], _DP_A[i, :i]) for i in range(1, 6)]


def _rms(x: np.ndarray) -> float:
    # numpy's norm of a real vector is sqrt(x.dot(x)), without its dispatch
    norm = np.linalg.norm(x) if x.dtype.kind == "c" else math.sqrt(x.dot(x))
    return float(norm) / math.sqrt(x.size)


def _still(y, s):
    return y        # the flow of a system with no linear part


def _theta_powers(theta) -> np.ndarray:
    """The rows theta, theta^2, theta^3, theta^4 that ``_dp45``'s continuous
    extension takes for the step fractions theta."""
    theta = np.asarray(theta, dtype=float)
    return theta[None].repeat(4, axis=0).cumprod(axis=0)


def _dp45(fun, t0: float, t1: float, y0: np.ndarray, tol: float, flow=_still):
    """Dormand-Prince 5(4) steps from t0 to t1 under scipy RK45's controller.

    The error is the RMS norm against rtol = atol = tol, the first step
    follows Hairer, Norsett & Wanner (Solving ODEs I, II.4), and each step
    factor is 0.9 err^(-1/5) clamped to [0.2, 10].  Each stage, the update,
    the error estimate and the continuous extension is one np.dot over
    scipy's operands, so the steps are RK45's bit for bit (a Python sum
    rounds otherwise, and the error estimate cancels).  The state is a 1-d
    array, real or complex, and the steps take integrating-factor (Lawson)
    form: flow(y, s) advances y exactly by the time s (a scalar, or one per
    row of y) under a linear part that ``fun`` leaves out, and only fun is
    stepped.  A system with no linear part keeps the default flow, the
    identity, under which these are plain steps.  Yields (t, y, dense) per
    accepted step, where dense(p) gives the states at the step fractions
    theta = p[0], one row each, from the continuous extension; p holds
    their powers theta, ..., theta^4 (``_theta_powers``), so a caller that
    samples every step at the same fractions forms them once.  t0 = t1
    yields nothing.  Raises StiffnessFailure when the step falls below ten
    float spacings at t or is NaN.
    """
    if t0 == t1:
        return
    direction = 1.0 if t1 > t0 else -1.0

    def g(t, s, w):
        # fun seen from t, in the frame that the flow carries along
        return flow(fun(t + s, flow(w, s)), -s)

    t, y = t0, y0
    f = fun(t, y)
    interval = abs(t1 - t0)
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((g(t, h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h1, interval)

    K = np.empty((7, y.size), dtype=y.dtype)
    KT = K.T        # slices of it are views that follow K
    stages = [(i, c, KT[:, :i], row) for i, c, row in _DP_STAGES]
    while t != t1:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:
                raise StiffnessFailure("required step size is less than spacing between numbers")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for i, c, Ki, row in stages:
                K[i] = g(t, c * h, y + np.dot(Ki, row) * h)
            w = y + h * np.dot(KT[:, :6], _DP_B)
            y_new = flow(w, h)
            f_new = fun(t_new, y_new)
            K[6] = flow(f_new, -h)
            scale = tol + np.maximum(np.abs(y), np.abs(w)) * tol
            err = _rms(np.dot(KT, _DP_E) * h / scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True

        def dense(p, y=y, h=h, Q=np.dot(KT, _DP_P)):
            ys = (y[:, None] + h * np.dot(Q, p)).T
            return flow(ys, p[0] * h)

        yield t_new, y_new, dense
        t, y, f = t_new, y_new, f_new


def _rhs_for(coeffs: ReducedCoeffs):
    def rhs(z, y):
        phi, psi = y.tolist()
        return np.array([psi, coeffs.second(z, phi, psi)])
    return rhs


def _hermite(z: np.ndarray, y: np.ndarray, dy: np.ndarray, derivative: bool = False):
    """The piecewise cubic Hermite interpolant through (z, y) with slopes
    dy, or its derivative, as the callables ``_stacked`` takes: over an
    array of phases, and at one phase as a float.  One phase finds its
    interval by bisect over the nodes as floats, the index searchsorted
    gives, and runs the same cubic in float arithmetic: numpy fuses no
    multiply-add, so the bits are numpy's."""
    last = z.size - 2
    zs, ys, dys = z.tolist(), y.tolist(), dy.tolist()

    def cubic(x, z, y, dy, i):
        h = z[i + 1] - z[i]
        s = (x - z[i]) / h
        d0, d1, rise = dy[i] * h, dy[i + 1] * h, y[i + 1] - y[i]
        c2, c3 = 3 * rise - 2 * d0 - d1, d0 + d1 - 2 * rise
        if derivative:
            return (d0 + s * (2 * c2 + 3 * s * c3)) / h
        return y[i] + s * (d0 + s * (c2 + s * c3))

    def fn(x):
        return cubic(x, z, y, dy, np.clip(np.searchsorted(z, x, side="right") - 1, 0, last))

    def one(x):
        return cubic(x, zs, ys, dys, min(max(bisect.bisect_right(zs, x) - 1, 0), last))
    return fn, one


class IvpSolution:
    """Dense numerical solution of the reduced ODE on one z-interval.

    ``phi`` and ``phi_prime`` are piecewise cubic Hermite interpolants
    through the nodes, with slopes phi' and phi'' from the ODE, and
    ``phi_second`` is the derivative of the phi' interpolant; like a
    profile's callables, each raises DomainExceeded for z outside ``span``,
    and one phase runs in float arithmetic with the array call's bits.
    """

    __slots__ = ("coeffs", "nodes", "phi_values", "phi_prime_values",
                 "phi", "phi_prime", "phi_second")

    def __init__(self, coeffs: ReducedCoeffs, nodes: np.ndarray, phi_values: np.ndarray,
                 phi_prime_values: np.ndarray, phi: Callable, phi_prime: Callable,
                 phi_second: Callable):
        self.coeffs, self.nodes = coeffs, nodes
        self.phi_values, self.phi_prime_values = phi_values, phi_prime_values
        self.phi, self.phi_prime, self.phi_second = phi, phi_prime, phi_second

    @property
    def span(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])


# the step fractions of the interior samples, and their powers for the
# continuous extension, formed once
_QUARTERS = (0.25, 0.5, 0.75)
_QUARTER_POWERS = _theta_powers(_QUARTERS)


def _integrate_one_way(rhs, z0, z1, y0, tol):
    """One leg of the reduction from its first row (z0, y0) toward z1, with
    three interior samples per accepted step from the continuous extension;
    blow-up is told from stiffness.  The phases are Python floats until the
    leg ends, each za + (z - za) q as numpy would form it."""
    zs, ys = [z0], [y0[None, :]]
    try:
        for z, y, dense in _dp45(rhs, z0, z1, y0, tol):
            phi, psi = y.tolist()
            if abs(phi) >= OVERFLOW_GUARD or abs(psi) >= OVERFLOW_GUARD:
                raise BlowUp(f"solution escaped before z = {z1}", z_reached=float(z))
            za = zs[-1]
            dz = z - za
            zs.extend([za + dz * q for q in _QUARTERS])
            zs.append(z)
            ys.extend((dense(_QUARTER_POWERS), y[None, :]))
    except StiffnessFailure as e:
        # the step-size controller died; distinguish escape from stiffness
        if np.max(np.abs(ys[-1])) > _BLOWUP_FLOOR:
            raise BlowUp(f"solution escaped before z = {z1}",
                         z_reached=float(zs[-1])) from None
        raise StiffnessFailure(f"integrator failed at z = {zs[-1]}: {e}") from None
    return np.array(zs), np.concatenate(ys)


def integrate_reduction(coeffs: ReducedCoeffs, phi0: float, phi_prime0: float,
                        span: tuple[float, float] = (-10.0, 10.0),
                        z0: float | None = None,
                        tol: float = 1e-10) -> IvpSolution:
    """Integrate the reduced ODE as a first-order system in (phi, phi').

    Initial data is posed at ``z0`` (default: the left end of ``span``) and
    the solver runs toward both ends when z0 is interior.  Tolerance outside
    [1e-12, 1e-4] and non-finite initial data or span raise BadParameters.
    Escape past 1e12 raises BlowUp with the z reached, other integrator
    failures raise StiffnessFailure.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise BadParameters(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    lo, hi = float(span[0]), float(span[1])
    _require_finite(phi0=float(phi0), phi_prime0=float(phi_prime0), span_lo=lo, span_hi=hi)
    if not lo < hi:
        raise BadParameters("span must be an increasing pair")
    if z0 is None:
        z0 = lo
    z0 = float(z0)
    if not (lo <= z0 <= hi):
        raise BadParameters("z0 must lie inside span")

    rhs = _rhs_for(coeffs)
    y0 = np.array([float(phi0), float(phi_prime0)])
    # the backward leg reversed ends on (z0, y0), which the forward leg starts on
    (zb, yb), (zf, yf) = (_integrate_one_way(rhs, z0, end, y0, tol) for end in (lo, hi))
    z, y = np.concatenate([zb[::-1], zf[1:]]), np.concatenate([yb[::-1], yf[1:]])
    keep = np.concatenate([[True], np.diff(z) > 0])
    z, (phi, psi) = z[keep], y[keep].T.copy()
    psi_prime = coeffs.second(z, phi, psi)

    dom = Interval(float(z[0]), float(z[-1]))
    return IvpSolution(coeffs, z, phi, psi, _stacked(dom, *_hermite(z, phi, psi)),
                       _stacked(dom, *_hermite(z, psi, psi_prime)),
                       _stacked(dom, *_hermite(z, psi, psi_prime, derivative=True)))


def bernoulli_chain_check(coeffs: ReducedCoeffs, profile, samples,
                          tol: float = 1e-6) -> bool:
    """Check both stages of the order reduction along a profile.

    psi = phi' must satisfy psi' = -(c/a) psi + (b/a) psi^3, and
    xi = psi^-2 the linear equation xi' - 2 (c/a) xi = -2 (b/a).  Stage 1 is
    the fd route of ``reduction_ode_residual`` over a, so no supplied phi''
    is trusted; stage 2 is stage 1 times -2/psi^3, since xi' = -2 psi'/psi^3,
    so xi is never differenced.  Samples where |phi'| < CHAIN_SKIP_TOL are
    skipped with a warning (xi is undefined there); if every sample is
    skipped the answer is vacuously true.
    """
    if coeffs.variant is not Variant.RAYLEIGH:
        raise WrongVariant("the cubic-in-psi chain applies to the B-field variant")
    z = np.asarray(samples, dtype=float).reshape(-1)
    psi = _along(profile.phi_prime, z)
    flat = np.abs(psi) < CHAIN_SKIP_TOL
    if not flat.all():
        z, psi = z[~flat], psi[~flat]
        stage1 = reduction_ode_residual(coeffs, profile, z, "fd").residuals / coeffs.a(z)
        stage2 = stage1 * (-2.0 / (psi * psi * psi))
        if not (np.all(np.abs(stage1) <= tol) and np.all(np.abs(stage2) <= tol)):
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
    # phi at z right after phi', before the shifted phases of the fd route,
    # so that a profile's per-phase work is reused between them
    p, phi = _along(profile.phi_prime, z), _along(profile.phi, z)
    if derivative_mode == "fd":
        pp = _central(lambda s: _along(profile.phi_prime, s), z, FD_STEP_FIRST)
    else:
        pp = _along(profile.phi_second, z)
    cubic = coeffs.cubic(z, phi, p)
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
    residuals = residual(u, structure, x, t)
    return ResidualReport.from_samples(np.column_stack([x, t]),
                                       np.broadcast_to(residuals, x.shape), grid.labels())


class DecayResult:
    """Outcome of following a profile along a ray in multitime.

    ``ok`` is read off ``crossing_radius``: the profile decays when a
    crossing radius exists.
    """

    __slots__ = ("direction", "threshold", "horizon", "crossing_radius", "final_value",
                 "limit_metadata")

    def __init__(self, direction: tuple[float, ...], threshold: float, horizon: float,
                 crossing_radius: float | None, final_value: float, limit_metadata: dict):
        self.direction, self.threshold, self.horizon = direction, threshold, horizon
        self.crossing_radius, self.final_value = crossing_radius, final_value
        self.limit_metadata = limit_metadata

    @property
    def ok(self) -> bool:
        return self.crossing_radius is not None

    def to_json_dict(self) -> dict:
        return {"direction": self.direction, "threshold": self.threshold,
                "horizon": self.horizon, "crossing_radius": self.crossing_radius,
                "final_value": self.final_value,
                "limit_metadata": dict(self.limit_metadata), "ok": self.ok}


def decay_check(profile: SolitonProfile, direction, threshold: float = 1e-3,
                horizon: float = 1e3, x: float = 0.0) -> DecayResult:
    """Does |phi| fall below ``threshold`` along t = s * direction, s -> horizon?

    The phase is z = x - s (lambda . direction); the ray is sampled at
    DECAY_SAMPLES points up to the horizon, restricted to the profile's
    validity interval; a ray that never meets the interval, or leaves it
    before the horizon, raises EmptyDomain.  ok means a crossing radius
    exists past which every remaining sample stays under the threshold.
    Known asymptotic limits recorded on the profile are passed through as
    metadata for the relevant phase direction.
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
    rate = profile.lam.dot(direction)
    if rate == 0.0:
        raise BadParameters("phase is constant along this direction")
    s = np.linspace(0.0, horizon, DECAY_SAMPLES)
    z = x - rate * s
    inside = profile.domain.contains(z)
    if not inside.any():
        raise EmptyDomain("the ray never meets the profile domain")
    if not inside[-1]:
        # the samples past the edge say nothing of the ray's tail
        raise EmptyDomain(f"the ray leaves the profile domain after s = "
                          f"{float(s[inside][-1])}, before the horizon {horizon}")
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
                       horizon, crossing, float(vals[-1]), meta)


def _lobatto(n: int, t_final: float):
    """n Chebyshev-Lobatto times on [0, t_final], ascending, with their
    barycentric weights (Berrut & Trefethen, SIAM Rev. 46, 2004)."""
    t = t_final * np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) ** 2
    w = np.where(np.arange(n) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    return t, w


class SingleTimeSolution:
    """Spectral method-of-lines solution of u_tt - u_xx = eps (u_t - u_t^3).

    Periodic on x in [0, 2 pi).  The Fourier coefficients of u and u_t
    (forward-normalised, so a coefficient is a mode's amplitude) are
    stored at n_t Chebyshev-Lobatto times and interpolated in t by the
    barycentric formula, so ``jet`` gives the field and the derivatives
    entering the residual at arbitrary (x, t): u_t from the velocity
    slices, u_tt from the barycentric differentiation matrix applied to
    them (never from the equation), u_xx by wavenumber multiplication,
    all four from one basis exp(i k x); each point forms its own
    interpolation and basis rows.
    """

    __slots__ = ("epsilon", "t_final", "n_x", "_k", "_cu", "_cv", "_ca")

    def __init__(self, epsilon: float, t_final: float, n_x: int, _k: np.ndarray,
                 _cu: np.ndarray, _cv: np.ndarray, _ca: np.ndarray):
        self.epsilon, self.t_final, self.n_x, self._k = epsilon, t_final, n_x, _k
        self._cu = _cu      # coefficients of u, one row per time
        self._cv = _cv      # of u_t
        self._ca = _ca      # of u_tt, differentiated from _cv

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * max(1.0, self.t_final)
        outside = ~((t >= -slack) & (t <= self.t_final + slack))     # NaN is outside
        if np.any(outside):
            raise DomainExceeded(f"t = {np.ravel(t)[np.argmax(np.ravel(outside))]} "
                                 f"outside the integrated range [0, {self.t_final}]")
        return t

    def _interpolant(self, t):
        """Interpolation of coefficient slices to the times t, coefficients
        on a trailing axis; each time's row multiplies the slices alone, as
        BLAS rounds a multi-row product otherwise (an einsum costs more)."""
        nodes, w = _lobatto(len(self._cu), self.t_final)
        d = t[..., None] - nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = w / d
            rows /= rows.sum(axis=-1, keepdims=True)
        hit = d == 0
        on = hit.any(axis=-1)
        rows[on] = hit[on]
        return lambda slices: (rows[..., None, :] @ slices)[..., 0, :]

    def _basis(self, x):
        """exp(i k x) at x, wavenumbers on a trailing axis."""
        return np.exp(1j * self._k * np.expand_dims(np.asarray(x, dtype=float), -1))

    def _trig(self, ch: np.ndarray, basis: np.ndarray, order: int = 0):
        """The order-th x-derivative of the real field with coefficients ch
        at the points of ``basis`` (from ``_basis``); ch's leading axes
        broadcast against theirs."""
        w = np.full(ch.shape[-1], 2.0)
        w[0] = 1.0
        if self.n_x % 2 == 0:
            w[-1] = 1.0
        fac = (1j * self._k) ** order if order else 1.0
        return _unwrap(np.real(np.einsum("...k,...k->...", w * fac * ch, basis)))

    def jet(self, x, t):
        """(u, u_t, u_tt, u_xx) at x and t, which broadcast together, from
        one Fourier basis formed per call and shared by the four."""
        at = self._interpolant(self._check_t(t))
        basis = self._basis(x)
        cu = at(self._cu)
        u, u_xx = self._trig(cu, basis), self._trig(cu, basis, order=2)
        del cu                  # one coefficient set alive at a time
        u_t = self._trig(at(self._cv), basis)
        u_tt = self._trig(at(self._ca), basis)
        return u, u_t, u_tt, u_xx

    def as_field(self) -> FieldFunction:
        """The solution as a one-time field; t has a trailing axis of length 1."""
        def jet(x, t):
            u, u_t, u_tt, u_xx = self.jet(x, np.asarray(t, dtype=float)[..., 0])
            return u, np.expand_dims(u_t, -1), np.expand_dims(u_tt, (-2, -1)), u_xx

        return FieldFunction(jet, m=1)

    def residual_estimate(self, n_probe_x: int = 48, n_probe_t: int = 33) -> float:
        """Max |u_tt - u_xx - eps (u_t - u_t^3)| over an off-grid probe lattice,
        from the three derivatives ``jet`` gives, formed as it forms them (u
        itself is not read)."""
        at = self._interpolant(np.linspace(0.0, self.t_final, n_probe_t)[:, None])
        basis = self._basis(np.linspace(0.1, 2.0 * np.pi - 0.1, n_probe_x))
        uxx = self._trig(at(self._cu), basis, order=2)
        ut = self._trig(at(self._cv), basis)
        utt = self._trig(at(self._ca), basis)
        return float(np.max(np.abs(utt - uxx - self.epsilon * (ut - ut * ut * ut))))


def integrate_single_time_rayleigh(epsilon: float, u0, v0, t_final: float,
                                   n_x: int = 512, n_t: int = 201) -> SingleTimeSolution:
    """Solve the damped wave equation on the periodic circle, spectrally.

    ``u0`` and ``v0`` give initial displacement and velocity as functions
    of x.  Each of the ``n_x`` Fourier modes of (u, u_t) rotates exactly
    under u_tt = u_xx, so Lawson steps of ``_dp45`` integrate only
    eps (u_t - u_t^3), with rtol = atol = SPECTRAL_TOL (Lawson, SIAM J.
    Numer. Anal. 4, 1967), and fill ``n_t`` slices at Chebyshev-Lobatto
    times from the continuous extension.  Integrator failure, overflow
    or more than SPECTRAL_MAX_STEPS steps included, surfaces as
    CFLViolation without a RuntimeWarning.
    """
    _require_finite(epsilon=epsilon, t_final=t_final)
    if t_final <= 0.0:
        raise BadParameters("t_final must be positive")
    if n_x < 1 or n_t < 6:
        raise BadParameters("n_x must be at least 1 and n_t at least 6 (at least a "
                            f"quintic in t), got n_x = {n_x}, n_t = {n_t}")
    x = np.linspace(0.0, 2.0 * np.pi, n_x, endpoint=False)
    k = np.fft.rfftfreq(n_x, d=1.0 / n_x)
    n_k = k.size
    # mode amplitudes (forward-normalised transforms), so that the
    # tolerance means the same at every n_x
    y0 = np.concatenate([np.fft.rfft([u0(xi) for xi in x], norm="forward"),
                         np.fft.rfft([v0(xi) for xi in x], norm="forward")])
    k_or_1 = np.where(k > 0, k, 1.0)

    def flow(y, s):
        # each mode of (u, u_t) rotates exactly under u_tt = u_xx
        s = np.expand_dims(np.asarray(s, dtype=float), -1)
        cos, sin = np.cos(k * s), np.sin(k * s)
        u, v = y[..., :n_k], y[..., n_k:]
        return np.concatenate([cos * u + np.where(k > 0, sin / k_or_1, s) * v,
                               cos * v - k * sin * u], axis=-1)

    def damping(t, y):
        v = np.fft.irfft(y[n_k:], n_x, norm="forward")
        nv = np.fft.rfft(epsilon * (v - v * v * v), norm="forward")
        if not np.all(np.isfinite(nv)):
            raise CFLViolation(f"time integration failed: the state overflowed at t = {t}")
        return np.concatenate([np.zeros(n_k), nv])

    ts, w = _lobatto(n_t, float(t_final))
    slices = np.empty((n_t, 2 * n_k), dtype=complex)
    slices[0], t_old, done = y0, 0.0, 1
    # an overflowing state raises in damping; the overflow itself is not
    # worth a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            steps = _dp45(damping, 0.0, float(t_final), y0, SPECTRAL_TOL, flow)
            for n, (t, _, dense) in enumerate(steps, 1):
                if n > SPECTRAL_MAX_STEPS:
                    raise CFLViolation(f"time integration failed: {SPECTRAL_MAX_STEPS} "
                                       f"accepted steps reached only t = {t_old}")
                upto = np.searchsorted(ts, t, side="right")
                slices[done:upto] = dense(_theta_powers((ts[done:upto] - t_old) / (t - t_old)))
                t_old, done = t, upto
        except StiffnessFailure as e:
            raise CFLViolation(f"time integration failed at t = {t_old}: {e}") from None

    # the barycentric differentiation matrix, diagonal by the negative sum
    d = ts[:, None] - ts
    np.fill_diagonal(d, 1.0)
    D = w / w[:, None] / d
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    cu, cv = slices[:, :n_k], slices[:, n_k:]
    return SingleTimeSolution(float(epsilon), float(t_final), n_x, k, cu, cv, D @ cv)
