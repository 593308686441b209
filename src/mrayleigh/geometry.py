"""Multitime differential operators and PDE residual checks.

The connection-corrected Hessian of a scalar field u(x, t^1, ..., t^m) is

    (Hess u)_{ab} = d2u/dt^a dt^b - Gamma^g_{ab} du/dt^g

and the box operator is its h-trace, h^{ab} (Hess u)_{ab}.  The two wave
equations verified here read, in residual form,

    rayleigh:    h^{ab} u_{ab} - C^g u_g + B^{abc} u_a u_b u_c - u_xx
    van der pol: h^{ab} u_{ab} - C^g u_g + u^2 D^g u_g - u_xx

with u_a = du/dt^a.  Every field and residual here is evaluated at one
point (x a float, t of shape (m,)) or at a stack of N points (x of shape
(N,), t of shape (N, m)) through the same code.  Fields may carry analytic
partials; anything missing falls back to central finite differences whose
steps scale with the coordinate (first order 1e-5 * max(1, |coord|), second
order 5e-5 * max(1, |coord|); the larger second-order step keeps the
roundoff part of the difference quotient well below the 1e-6 residual
budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import (
    CONSTRAINT_TOL,
    GeometricStructure,
    Variant,
    _constraint_gap,
    _cubic_term,
    _normalize_points,
    _require_finite,
    _unwrap,
)
from .errors import ConditionViolated, DimensionMismatch, WrongVariant

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 5e-5


def _h1(coord):
    return FD_STEP_FIRST * np.maximum(1.0, np.abs(coord))


def _h2(coord):
    return FD_STEP_SECOND * np.maximum(1.0, np.abs(coord))


def _points(x, t):
    """x as a float or an (N,) array, t as an (m,) or (N, m) array."""
    x = np.asarray(x, dtype=float)
    return (float(x) if x.ndim == 0 else x), np.asarray(t, dtype=float)


@dataclass(frozen=True)
class FieldFunction:
    """Scalar field u(x, t) with optional analytic partial derivatives.

    Every callable takes one point (x a float, t of shape (m,)) or a stack
    of N points (x of shape (N,), t of shape (N, m)), indexing t with
    ``...``.  ``u`` and ``d2x`` return the value and d2u/dx2, ``grad_t``
    du/dt^a with a trailing (m,) axis and ``hess_t`` the second time
    partials with a trailing (m, m).  Each partial may be None, in which
    case central differences of ``u`` are used.  At one point ``value``
    and ``second_x`` return Python floats.
    """

    u: Callable
    grad_t: Callable | None = None
    hess_t: Callable | None = None
    d2x: Callable | None = None
    m: int | None = None

    def value(self, x, t):
        x, t = _points(x, t)
        return _unwrap(self.u(x, t))

    def time_gradient(self, x, t) -> np.ndarray:
        x, t = _points(x, t)
        if self.grad_t is not None:
            return np.asarray(self.grad_t(x, t), dtype=float)
        out = np.empty(t.shape)
        for a in range(t.shape[-1]):
            h = _h1(t[..., a])
            tp, tm = t.copy(), t.copy()
            tp[..., a] += h
            tm[..., a] -= h
            out[..., a] = (self.u(x, tp) - self.u(x, tm)) / (2.0 * h)
        return out

    def time_hessian(self, x, t) -> np.ndarray:
        x, t = _points(x, t)
        if self.hess_t is not None:
            return np.asarray(self.hess_t(x, t), dtype=float)
        n = t.shape[-1]
        out = np.empty(t.shape + (n,))
        u0 = self.u(x, t)
        for a in range(n):
            ha = _h2(t[..., a])
            tp, tm = t.copy(), t.copy()
            tp[..., a] += ha
            tm[..., a] -= ha
            out[..., a, a] = (self.u(x, tp) - 2.0 * u0 + self.u(x, tm)) / (ha * ha)
        for a in range(n):
            for bb in range(a + 1, n):
                ha, hb = _h2(t[..., a]), _h2(t[..., bb])
                tpp, tpm, tmp, tmm = t.copy(), t.copy(), t.copy(), t.copy()
                tpp[..., a] += ha; tpp[..., bb] += hb
                tpm[..., a] += ha; tpm[..., bb] -= hb
                tmp[..., a] -= ha; tmp[..., bb] += hb
                tmm[..., a] -= ha; tmm[..., bb] -= hb
                val = (self.u(x, tpp) - self.u(x, tpm)
                       - self.u(x, tmp) + self.u(x, tmm)) / (4.0 * ha * hb)
                out[..., a, bb] = out[..., bb, a] = val
        return out

    def second_x(self, x, t):
        x, t = _points(x, t)
        if self.d2x is not None:
            return _unwrap(self.d2x(x, t))
        h = _h2(x)
        return _unwrap((self.u(x + h, t) - 2.0 * self.u(x, t) + self.u(x - h, t)) / (h * h))


def stationary_solution(slope: float, intercept: float) -> FieldFunction:
    """u(x, t) = slope * x + intercept, a solution for every structure."""
    slope, intercept = float(slope), float(intercept)
    _require_finite(slope=slope, intercept=intercept)
    return FieldFunction(
        u=lambda x, t: slope * x + intercept,
        grad_t=lambda x, t: np.zeros(np.shape(t)),
        hess_t=lambda x, t: np.zeros(np.shape(t) + np.shape(t)[-1:]),
        d2x=lambda x, t: np.zeros(np.shape(x)),
        m=None,
    )


def traveling_sine() -> FieldFunction:
    """u(x, t) = sin(x - t), the d'Alembert solution of u_tt = u_xx (m = 1)."""
    return FieldFunction(
        u=lambda x, t: np.sin(x - t[..., 0]),
        grad_t=lambda x, t: np.expand_dims(-np.cos(x - t[..., 0]), -1),
        hess_t=lambda x, t: np.expand_dims(-np.sin(x - t[..., 0]), (-2, -1)),
        d2x=lambda x, t: -np.sin(x - t[..., 0]),
        m=1,
    )


def prolong_field(u1: FieldFunction, m: int) -> FieldFunction:
    """Lift a single-time field to m times via v(x, t) = u(x, t^1).

    Analytic partials of ``u1`` carry over; index-1 slots hold the
    single-time derivatives and all others vanish identically.
    """
    if u1.m not in (None, 1):
        raise DimensionMismatch("can only prolong a single-time field")
    if m < 1:
        raise DimensionMismatch("need m >= 1")

    def grad(x, t):
        out = np.zeros(np.shape(t))
        out[..., 0] = u1.time_gradient(x, t[..., :1])[..., 0]
        return out

    def hess(x, t):
        out = np.zeros(np.shape(t) + (m,))
        out[..., 0, 0] = u1.time_hessian(x, t[..., :1])[..., 0, 0]
        return out

    return FieldFunction(u=lambda x, t: u1.value(x, t[..., :1]), grad_t=grad,
                         hess_t=hess, d2x=lambda x, t: u1.second_x(x, t[..., :1]),
                         m=m)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice over (x, t^1, ..., t^m).

    Each axis is a (lo, hi, count) triple; points are produced in row-major
    order with x varying slowest.
    """

    x_axis: tuple[float, float, int]
    t_axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in [self.x_axis])
        object.__setattr__(self, "x_axis", axes[0])
        t_axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.t_axes)
        object.__setattr__(self, "t_axes", t_axes)
        for lo, hi, n in (self.x_axis, *self.t_axes):
            if not np.all(np.isfinite([lo, hi])):
                raise ValueError(f"grid axis ends must be finite, got [{lo}, {hi}]")
            if n < 1 or (n > 1 and hi < lo):
                raise ValueError("grid axes need hi >= lo and count >= 1")

    @property
    def m(self) -> int:
        return len(self.t_axes)

    def n_points(self) -> int:
        total = self.x_axis[2]
        for _, _, n in self.t_axes:
            total *= n
        return total

    def axis_values(self):
        def vals(lo, hi, n):
            return np.array([0.5 * (lo + hi)]) if n == 1 else np.linspace(lo, hi, n)
        return [vals(*self.x_axis)] + [vals(*ax) for ax in self.t_axes]

    def arrays(self):
        """Every lattice point at once: x of shape (N,), t of shape (N, m)."""
        x, *ts = (g.reshape(-1) for g in np.meshgrid(*self.axis_values(), indexing="ij"))
        t = np.empty((x.size, self.m))
        for a, ta in enumerate(ts):
            t[:, a] = ta
        return x, t

    def labels(self) -> list[str]:
        return ["x"] + [f"t{i + 1}" for i in range(self.m)]

    def points(self):
        """Yield (x, t) pairs over the lattice, in the order of ``arrays``."""
        x, t = self.arrays()
        for i in range(x.size):
            yield float(x[i]), t[i]


@dataclass(frozen=True)
class ResidualReport:
    """Residual samples over labelled coordinates, with summary statistics."""

    points: np.ndarray          # (n, k)
    residuals: np.ndarray       # (n,)
    labels: tuple[str, ...]     # k coordinate names
    max_abs: float
    rms: float

    @classmethod
    def from_samples(cls, points, residuals, labels) -> "ResidualReport":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        residuals = np.asarray(residuals, dtype=float)
        if residuals.size == 0:
            raise ValueError("residual report needs at least one sample")
        if points.shape[0] != residuals.size or points.shape[1] != len(labels):
            raise ValueError("points, residuals and labels disagree on shape")
        max_abs = float(np.max(np.abs(residuals)))
        rms = float(np.sqrt(np.mean(residuals ** 2)))
        return cls(points=points, residuals=residuals, labels=tuple(labels),
                   max_abs=max_abs, rms=rms)

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "points": [[float(v) for v in row] for row in self.points],
            "residuals": [float(r) for r in self.residuals],
            "max_abs": self.max_abs,
            "rms": self.rms,
        }

    def csv_header(self) -> list[str]:
        return list(self.labels) + ["residual"]

    def csv_rows(self):
        for row, r in zip(self.points, self.residuals):
            yield [float(v) for v in row] + [float(r)]


def hessian(u: FieldFunction, structure: GeometricStructure, x, t) -> np.ndarray:
    """Connection-corrected Hessian (d2u/dt^a dt^b - Gamma^g_{ab} du/dt^g)."""
    x, t = _points(x, t)
    if t.shape[-1:] != (structure.m,):
        raise DimensionMismatch("t has the wrong number of components")
    eta = u.value(x, t)
    xi = u.time_gradient(x, t)
    g = structure.gamma(x, t, eta, xi)
    return u.time_hessian(x, t) - np.einsum("...gab,...g->...ab", g, xi)


def box(u: FieldFunction, structure: GeometricStructure, x, t):
    """h-trace of the corrected Hessian, h^{ab} (Hess u)_{ab}."""
    x, t = _points(x, t)
    eta = u.value(x, t)
    xi = u.time_gradient(x, t)
    h = structure.h(x, t, eta, xi)
    return _unwrap(np.einsum("...ab,...ab->...", h, hessian(u, structure, x, t)))


def _assemble(structure: GeometricStructure, x, t, eta, xi, hess, d2x):
    """h^{ab} u_{ab} - C^g u_g + (cubic term) - u_xx from the jet of u."""
    h = structure.h(x, t, eta, xi)
    C = structure.c_field(x, t, eta, xi)
    return (np.einsum("...ab,...ab->...", h, hess)
            - np.einsum("...g,...g->...", C, xi)
            + _cubic_term(structure, x, t, eta, xi)
            - d2x)


def _residual(u: FieldFunction, structure: GeometricStructure, x, t):
    x, t = _points(x, t)
    if t.shape[-1:] != (structure.m,):
        raise DimensionMismatch("t has the wrong number of components")
    return _unwrap(_assemble(structure, x, t, u.value(x, t), u.time_gradient(x, t),
                             u.time_hessian(x, t), u.second_x(x, t)))


def rayleigh_residual(u: FieldFunction, structure: GeometricStructure, x, t):
    """Residual h^{ab} u_{ab} - C^g u_g + B^{abc} u_a u_b u_c - u_xx."""
    if structure.variant is not Variant.RAYLEIGH:
        raise WrongVariant("structure carries a D field, use vdp_residual")
    return _residual(u, structure, x, t)


def vdp_residual(u: FieldFunction, structure: GeometricStructure, x, t):
    """Residual h^{ab} u_{ab} - C^g u_g + u^2 D^g u_g - u_xx."""
    if structure.variant is not Variant.VAN_DER_POL:
        raise WrongVariant("structure carries a B field, use rayleigh_residual")
    return _residual(u, structure, x, t)


def residual_for(structure: GeometricStructure):
    """The residual function matching the structure's variant."""
    return rayleigh_residual if structure.variant is Variant.RAYLEIGH else vdp_residual


def check_reversibility(structure: GeometricStructure, sample_points) -> bool:
    """True iff C and B (or D) are odd under t -> -t, within CONSTRAINT_TOL.

    Multitime reversibility: u(x, -t) solves the equation whenever u(x, t)
    does exactly when the damping fields flip sign with time.
    """
    for pt in _normalize_points(sample_points, structure.m):
        x, t, eta, xi = pt.x, pt.t, pt.eta, pt.xi
        for f in (structure.c_field, structure.b_field or structure.d_field):
            odd_gap = np.asarray(f(x, t, eta, xi), float) + np.asarray(f(x, -t, eta, xi), float)
            if not np.all(np.abs(odd_gap) <= CONSTRAINT_TOL):
                return False
    return True


def check_prolongation(u1: FieldFunction, structure: GeometricStructure,
                       grid: GridSpec) -> ResidualReport:
    """Verify that v(x, t) = u1(x, t^1) solves the multitime equation.

    First samples the jet of the prolonged field at every
    ``max(1, N // 50)``-th grid point and checks the index-1 algebraic
    condition of ``check_constraint`` there within CONSTRAINT_TOL (raising
    ConditionViolated on failure), then evaluates the variant residual over
    the whole grid.
    """
    m = structure.m
    if grid.m != m:
        raise DimensionMismatch("grid and structure disagree on m")
    v = prolong_field(u1, m)
    x, t = grid.arrays()

    stride = max(1, x.size // 50)
    xs, ts = x[::stride], t[::stride]
    xi = np.zeros(ts.shape)
    xi[:, 0] = v.time_gradient(xs, ts)[:, 0]
    gap = _constraint_gap(structure, xs, ts, v.value(xs, ts), xi)
    if not np.all(np.abs(gap) <= CONSTRAINT_TOL):
        raise ConditionViolated(
            "index-1 condition fails on the sampled jet of the prolonged field")

    residuals = np.broadcast_to(_residual(v, structure, x, t), x.shape)
    return ResidualReport.from_samples(np.column_stack([x, t]), residuals, grid.labels())
