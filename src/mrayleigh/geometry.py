"""Multitime differential operators and PDE residual checks.

The connection-corrected Hessian of a scalar field u(x, t^1, ..., t^m) is

    (Hess u)_{ab} = d2u/dt^a dt^b - Gamma^g_{ab} du/dt^g

and the box operator is its h-trace, h^{ab} (Hess u)_{ab}.  The two wave
equations verified here read, in residual form,

    rayleigh:    h^{ab} u_{ab} - C^g u_g + B^{abc} u_a u_b u_c - u_xx
    van der pol: h^{ab} u_{ab} - C^g u_g + u^2 D^g u_g - u_xx

with u_a = du/dt^a.  The operator is second order, so every residual reads
the same 2-jet of u: (u, du/dt^a, d2u/dt^a dt^b, d2u/dx2).  A field is the
one callable that returns that jet, at one point (x a float, t of shape
(m,)), at a stack of N points (x of shape (N,), t of shape (N, m)) or at x
and t that broadcast together, through the same code.  Nothing here
differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import (
    CONSTRAINT_TOL,
    GeometricStructure,
    _constraint_gap,
    _cubic_term,
    _normalize_points,
    _require_finite,
    _unwrap,
)
from .errors import ConditionViolated, DimensionMismatch


def _points(x, t):
    """x as a float or an (N,) array, t as an (m,) or (N, m) array."""
    x = np.asarray(x, dtype=float)
    return (float(x) if x.ndim == 0 else x), np.asarray(t, dtype=float)


@dataclass(frozen=True)
class FieldFunction:
    """Scalar field u(x, t), given by its 2-jet.

    ``jet(x, t)`` returns (u, du/dt^a, d2u/dt^a dt^b, d2u/dx2) at one point
    (x a float, t of shape (m,)) or at a stack of N points (x of shape
    (N,), t of shape (N, m)), indexing t with ``...``: the time gradient
    carries a trailing (m,) axis and the time Hessian a trailing (m, m).
    x and t may also broadcast together, as x of shape (n_x, 1) and t of
    shape (1, n_t, 1) in ``check_prolongation``; the jet may return
    arrays that only broadcast to the points.  ``m`` is the number of
    times, or None for a field that takes any.
    """

    jet: Callable
    m: int | None = None

    def at(self, x, t):
        """The jet at (x, t); at one point u and d2u/dx2 are Python floats."""
        x, t = _points(x, t)
        u, grad, hess, d2x = self.jet(x, t)
        return (_unwrap(u), np.asarray(grad, dtype=float),
                np.asarray(hess, dtype=float), _unwrap(d2x))


def stationary_solution(slope: float, intercept: float) -> FieldFunction:
    """u(x, t) = slope * x + intercept, a solution for every structure."""
    slope, intercept = float(slope), float(intercept)
    _require_finite(slope=slope, intercept=intercept)
    return FieldFunction(lambda x, t: (slope * x + intercept, np.zeros(np.shape(t)),
                                       np.zeros(np.shape(t) + np.shape(t)[-1:]),
                                       np.zeros(np.shape(x))))


def traveling_sine() -> FieldFunction:
    """u(x, t) = sin(x - t), the d'Alembert solution of u_tt = u_xx (m = 1)."""
    def jet(x, t):
        s = np.sin(x - t[..., 0])
        return (s, np.expand_dims(-np.cos(x - t[..., 0]), -1),
                np.expand_dims(-s, (-2, -1)), -s)

    return FieldFunction(jet, m=1)


def _require_single_time(u1: FieldFunction, m: int):
    if u1.m not in (None, 1):
        raise DimensionMismatch("can only prolong a single-time field")
    if m < 1:
        raise DimensionMismatch("need m >= 1")


def _lift_slots(g1, h1, shape, m: int):
    """The time gradient and Hessian of v(x, t) = u(x, t^1) over points of
    ``shape``, from u's single-time ones: index-1 slots hold them and all
    others vanish."""
    grad = np.zeros(shape + (m,))
    grad[..., 0] = g1[..., 0]
    hess = np.zeros(shape + (m, m))
    hess[..., 0, 0] = h1[..., 0, 0]
    return grad, hess


def prolong_field(u1: FieldFunction, m: int) -> FieldFunction:
    """Lift a single-time field to m times via v(x, t) = u(x, t^1)."""
    _require_single_time(u1, m)

    def jet(x, t):
        u, g1, h1, d2x = u1.at(x, t[..., :1])
        return (u, *_lift_slots(g1, h1, np.shape(t)[:-1], m), d2x)

    return FieldFunction(jet, m=m)


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


def _jet_at(u: FieldFunction, structure: GeometricStructure, x, t):
    """x, t and the jet of u there, after checking t against the structure."""
    x, t = _points(x, t)
    if t.shape[-1:] != (structure.m,):
        raise DimensionMismatch("t has the wrong number of components")
    return (x, t, *u.at(x, t))


def _hessian(structure: GeometricStructure, x, t, eta, xi, hess):
    return hess - np.einsum("...gab,...g->...ab", structure.gamma(x, t, eta, xi), xi)


def hessian(u: FieldFunction, structure: GeometricStructure, x, t) -> np.ndarray:
    """Connection-corrected Hessian (d2u/dt^a dt^b - Gamma^g_{ab} du/dt^g)."""
    x, t, eta, xi, hess, _ = _jet_at(u, structure, x, t)
    return _hessian(structure, x, t, eta, xi, hess)


def box(u: FieldFunction, structure: GeometricStructure, x, t):
    """h-trace of the corrected Hessian, h^{ab} (Hess u)_{ab}."""
    x, t, eta, xi, hess, _ = _jet_at(u, structure, x, t)
    return _unwrap(np.einsum("...ab,...ab->...", structure.h(x, t, eta, xi),
                             _hessian(structure, x, t, eta, xi, hess)))


def _assemble(structure: GeometricStructure, x, t, eta, xi, hess, d2x):
    """h^{ab} u_{ab} - C^g u_g + (cubic term) - u_xx from the jet at (x, t)."""
    h = structure.h(x, t, eta, xi)
    C = structure.c_field(x, t, eta, xi)
    return (np.einsum("...ab,...ab->...", h, hess)
            - np.einsum("...g,...g->...", C, xi)
            + _cubic_term(structure, x, t, eta, xi)
            - d2x)


def residual(u: FieldFunction, structure: GeometricStructure, x, t):
    """Residual h^{ab} u_{ab} - C^g u_g + (cubic term) - u_xx of u at (x, t).

    The cubic term is B^{abc} u_a u_b u_c (Rayleigh) or u^2 D^g u_g (Van
    der Pol), whichever the structure carries.
    """
    return _unwrap(_assemble(structure, *_jet_at(u, structure, x, t)))


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

    Reads the jet of u1 once, on the lattice's (x, t^1) axes, and lifts it
    to every grid point (v is constant along t^2, ..., t^m).  Checks the
    index-1 algebraic condition of ``check_constraint`` at every
    ``max(1, N // 50)``-th grid point within CONSTRAINT_TOL (raising
    ConditionViolated on failure), then evaluates the variant residual over
    the whole grid.
    """
    m = structure.m
    if grid.m != m:
        raise DimensionMismatch("grid and structure disagree on m")
    _require_single_time(u1, m)
    xs, t1 = grid.axis_values()[:2]
    plane = (xs.size, t1.size)
    lattice = plane + tuple(n for _, _, n in grid.t_axes[1:])
    u, g1, h1, d2x = u1.at(xs[:, None], t1[None, :, None])

    def lift(v, tail=()):
        # broadcast over t^2, ..., t^m, then one row per grid point
        v = np.broadcast_to(v, plane + tail).reshape(plane + (1,) * (m - 1) + tail)
        return np.broadcast_to(v, lattice + tail).reshape((-1,) + tail)

    grad, hess = _lift_slots(g1, h1, plane, m)
    eta, xi, hess, d2x = lift(u), lift(grad, (m,)), lift(hess, (m, m)), lift(d2x)
    x, t = grid.arrays()

    stride = max(1, x.size // 50)
    gap = _constraint_gap(structure, x[::stride], t[::stride], eta[::stride], xi[::stride])
    if not np.all(np.abs(gap) <= CONSTRAINT_TOL):
        raise ConditionViolated(
            "index-1 condition fails on the sampled jet of the prolonged field")

    residuals = np.broadcast_to(_assemble(structure, x, t, eta, xi, hess, d2x), x.shape)
    return ResidualReport.from_samples(np.column_stack([x, t]), residuals, grid.labels())
