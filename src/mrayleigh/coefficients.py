"""Geometric structures and their traveling-wave reduction.

A geometric structure on m times bundles the tensor fields (h, Gamma, C and
B or D) that enter the multitime Rayleigh and Van der Pol wave equations.
Contracting the fields with a speed covector lambda along the ansatz
u(x, t) = phi(z), z = x - lambda_alpha t^alpha, produces the scalar
coefficients of the reduced ODE:

    a(z) = h^{ab} lambda_a lambda_b - 1
    b(z) = B^{abc} lambda_a lambda_b lambda_c      (Rayleigh variant)
    c(z) = C^g lambda_g
    d(z) = D^g lambda_g                            (Van der Pol variant)

so that the PDE residual on the ansatz equals a phi'' - b (phi')^3 + c phi'
(respectively a phi'' - d phi^2 phi' + c phi').  The reverse map
``synthesize_structure`` realizes prescribed reduced coefficients through a
canonical diagonal structure; ``reduce`` of that structure returns the
original coefficients.

All tensor fields are callables ``f(x, t, eta, xi)``; ``eta`` stands for
the field value u and ``xi`` for its temporal gradient at the evaluation
point, so structures may depend on the first jet.  A field takes one point
(x a float, t and xi of shape (m,)) or a stack of N points (x and eta of
shape (N,), t and xi of shape (N, m)) and indexes its arguments with
``...`` so both work; its value carries the same leading axes, or none when
it is constant.  Index conventions: ``h(...)[..., a, b]`` is h^{ab},
``gamma(...)[..., g, a, b]`` is Gamma^g_{ab} (symmetric in a, b),
``b_field(...)[..., a, b, c]`` is B^{abc} (fully symmetric).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadParameters,
    DegenerateA,
    DimensionMismatch,
    MrayleighError,
    WrongVariant,
    ZeroLeadingSpeed,
)

# Degeneracy guard on the reduced leading coefficient a(z).
DEGENERACY_TOL = 1e-10
# Acceptance tolerance for pointwise constraint and consistency residuals.
CONSTRAINT_TOL = 1e-9
# verify_reduction_consistency draws this many phases, seeded, from this range
CONSISTENCY_SAMPLES, CONSISTENCY_SEED, CONSISTENCY_Z_RANGE = 100, 0, (-2.0, 2.0)


def _unwrap(v):
    """A 0-d result as a Python float; stacked results stay arrays."""
    return float(v) if isinstance(v, float) or np.ndim(v) == 0 else np.asarray(v, dtype=float)


def _lead(z) -> tuple:
    """The leading axes of a phase: () for one point, z.shape for a stack."""
    return () if isinstance(z, float) else z.shape


def _first(z, bad) -> float:
    """The first phase flagged in ``bad``, for error messages."""
    return float(np.ravel(z)[np.argmax(np.ravel(bad))])


def _central(fn, z, step):
    """Central difference (fn(z + h) - fn(z - h)) / 2h, h = step max(1, |z|)."""
    h = step * np.maximum(1.0, np.abs(z))
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def _require_finite(**values):
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise BadParameters(f"{', '.join(bad)} must be finite")


class Variant(enum.Enum):
    """Which cubic damping enters the equation: (phi')^3 or phi^2 phi'."""

    RAYLEIGH = "rayleigh"
    VAN_DER_POL = "van_der_pol"


class CoeffKind(enum.Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    GENERAL = "general"


@dataclass(frozen=True)
class SpeedVector:
    """Covector of wave speeds; induces the phase z = x - lambda . t."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("lambda must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise BadParameters("lambda components must be finite")
        if not np.any(arr != 0.0):
            raise BadParameters("lambda must not be identically zero")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.size

    def dot(self, t):
        """lambda_alpha t^alpha: a float for t of shape (m,), (N,) for (N, m),
        each row summed as one point is (BLAS sums a multi-row @ otherwise)."""
        v = np.einsum("...a,a->...", np.asarray(t, dtype=float), self.values)
        return float(v) if v.ndim == 0 else v

    def z(self, x, t):
        """Traveling-wave phase x - lambda_alpha t^alpha, one or stacked.

        One point (x a float, t of shape (m,)) takes float arithmetic.
        """
        d = self.dot(t)
        if isinstance(x, float) and isinstance(d, float):
            return float(x) - d
        return _unwrap(np.asarray(x, dtype=float) - d)

    def to_json(self):
        return [float(v) for v in self.values]


@dataclass(frozen=True)
class EvalPoint:
    """A first-jet evaluation point (x, t, eta, xi) for tensor fields."""

    x: float
    t: np.ndarray
    eta: float = 0.0
    xi: np.ndarray | None = None

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        object.__setattr__(self, "t", t)
        xi = self.xi
        xi = np.zeros_like(t) if xi is None else np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != t.shape:
            raise DimensionMismatch("xi must have the same length as t")
        object.__setattr__(self, "xi", xi)

    @property
    def m(self) -> int:
        return self.t.size


TensorField = Callable[[float, np.ndarray, float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GeometricStructure:
    """Tensor-field bundle (h, Gamma, C, B|D) on m times.

    Exactly one of ``b_field`` (Rayleigh) and ``d_field`` (Van der Pol) must
    be populated.  Symmetry of h, Gamma and B is the caller's obligation for
    callable fields; the ``constant_structure`` helper checks it for
    constant data.
    """

    m: int
    h: TensorField
    gamma: TensorField
    c_field: TensorField
    b_field: TensorField | None = None
    d_field: TensorField | None = None

    def __post_init__(self):
        if self.m < 1:
            raise DimensionMismatch("need at least one time variable")
        if (self.b_field is None) == (self.d_field is None):
            raise BadParameters("exactly one of b_field and d_field must be set")

    @property
    def variant(self) -> Variant:
        return Variant.RAYLEIGH if self.b_field is not None else Variant.VAN_DER_POL


def _constant_field(value):
    arr = np.asarray(value, dtype=float)
    arr.flags.writeable = False
    return lambda x, t, eta, xi: arr


def constant_structure(h, c=None, b=None, d=None, gamma=None) -> GeometricStructure:
    """Build a structure with constant tensor data, checking symmetry.

    ``b`` may be a full (m, m, m) array or a scalar placed in the (1,1,1)
    slot; ``d`` and ``c`` likewise accept scalars for the first component.
    When neither b nor d is given an all-zero Rayleigh b-tensor is used.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    m = h.shape[0]
    if h.shape != (m, m):
        raise DimensionMismatch("h must be a square matrix")
    if not np.allclose(h, h.T, rtol=0.0, atol=1e-14):
        raise BadParameters("h must be symmetric")

    def vec(v):
        if v is None:
            return np.zeros(m)
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            out = np.zeros(m)
            out[0] = float(v)
            return out
        if v.shape != (m,):
            raise DimensionMismatch("vector field data must have length m")
        return v

    c_arr = vec(c)
    d_arr = vec(d) if d is not None else None

    b_arr = None
    if b is not None:
        b = np.asarray(b, dtype=float)
        if b.ndim == 0:
            b_arr = np.zeros((m, m, m))
            b_arr[0, 0, 0] = float(b)
        else:
            if b.shape != (m, m, m):
                raise DimensionMismatch("b tensor data must have shape (m, m, m)")
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                if not np.allclose(b, np.transpose(b, perm), rtol=0.0, atol=1e-14):
                    raise BadParameters("B must be fully symmetric")
            b_arr = b
    if b_arr is None and d_arr is None:
        b_arr = np.zeros((m, m, m))

    if gamma is None:
        g_arr = np.zeros((m, m, m))
    else:
        g_arr = np.asarray(gamma, dtype=float)
        if g_arr.shape != (m, m, m):
            raise DimensionMismatch("gamma data must have shape (m, m, m)")
        if not np.allclose(g_arr, np.transpose(g_arr, (0, 2, 1)), rtol=0.0, atol=1e-14):
            raise BadParameters("Gamma must be symmetric in its lower indices")

    return GeometricStructure(
        m=m,
        h=_constant_field(h),
        gamma=_constant_field(g_arr),
        c_field=_constant_field(c_arr),
        b_field=None if b_arr is None else _constant_field(b_arr),
        d_field=None if d_arr is None else _constant_field(d_arr),
    )


ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class ReducedCoeffs:
    """Scalar coefficients of the reduced traveling-wave ODE.

    ``a`` and ``c`` are always present; exactly one of ``b`` (Rayleigh) and
    ``d`` (Van der Pol) is, and ``variant`` is read off which one, as
    ``GeometricStructure.variant`` is.  Each accessor takes one phase z (and
    returns a Python float) or an array of phases (and returns an array of
    the same shape).  Every evaluation of a(z) is guarded: values with
    |a(z)| <= DEGENERACY_TOL raise DegenerateA, since the reduction is
    singular there.  ``params`` carries the numeric payload for constant
    and affine kinds and is what serializes; general coefficients hold
    arbitrary callables and cannot round-trip through JSON.

    The callables ``a_fn`` ... ``d_fn`` take a phase or an array of phases;
    ``general_coeffs`` wraps scalar callables to that contract.
    """

    kind: CoeffKind
    a_fn: ScalarFn
    c_fn: ScalarFn
    b_fn: ScalarFn | None = None
    d_fn: ScalarFn | None = None
    params: dict | None = None

    def __post_init__(self):
        if (self.b_fn is None) == (self.d_fn is None):
            raise BadParameters("exactly one of b_fn and d_fn must be set")

    @property
    def variant(self) -> Variant:
        return Variant.RAYLEIGH if self.b_fn is not None else Variant.VAN_DER_POL

    def _apply(self, fn, z):
        if isinstance(z, (int, float)) or np.ndim(z) == 0:
            return float(fn(float(z)))
        z = np.asarray(z, dtype=float)
        val = np.asarray(fn(z), dtype=float)
        return val if val.shape == z.shape else np.broadcast_to(val, z.shape)

    def a(self, z):
        val = self._apply(self.a_fn, z)
        if isinstance(val, float) and not abs(val) <= DEGENERACY_TOL:
            return val
        bad = np.abs(val) <= DEGENERACY_TOL
        if np.any(bad):
            raise DegenerateA(f"a({_first(z, bad)}) = {_first(val, bad)} "
                              f"is within {DEGENERACY_TOL} of zero")
        return val

    def c(self, z):
        return self._apply(self.c_fn, z)

    def b(self, z):
        if self.b_fn is None:
            raise WrongVariant("no b coefficient on a Van der Pol coefficient set")
        return self._apply(self.b_fn, z)

    def d(self, z):
        if self.d_fn is None:
            raise WrongVariant("no d coefficient on a Rayleigh coefficient set")
        return self._apply(self.d_fn, z)

    def cubic(self, z, phi, psi):
        """The cubic damping term of the reduced ODE at z, with psi = phi'.

        b(z) psi^3 (Rayleigh) or d(z) phi^2 psi (Van der Pol); only the
        Van der Pol term reads ``phi``.
        """
        if self.b_fn is not None:
            return self.b(z) * (psi * psi * psi)
        return self.d(z) * phi * phi * psi

    def second(self, z, phi, psi):
        """phi'' from the solved reduced ODE: (cubic - c psi) / a, with psi = phi'."""
        return (self.cubic(z, phi, psi) - self.c(z) * psi) / self.a(z)


def constant_coeffs(a, c, b=None, d=None) -> ReducedCoeffs:
    """Constant reduced coefficients; pass exactly one of b, d."""
    if (b is None) == (d is None):
        raise BadParameters("pass exactly one of b and d")
    a, c = float(a), float(c)
    params = {"a": a, "c": c}
    if b is not None:
        b = params["b"] = float(b)
        _require_finite(**params)
        return ReducedCoeffs(CoeffKind.CONSTANT, lambda z: a, lambda z: c,
                             b_fn=lambda z: b, params=params)
    d = params["d"] = float(d)
    _require_finite(**params)
    return ReducedCoeffs(CoeffKind.CONSTANT, lambda z: a, lambda z: c,
                         d_fn=lambda z: d, params=params)


@dataclass(frozen=True)
class AffineCoeffs:
    """Affine Rayleigh coefficient data; sextuple order is (slopes, then constants).

    a(z) = a_slope z + a_const, b(z) = b_slope z + b_const,
    c(z) = c_slope z + c_const.  The series recurrence reads the six numbers
    directly; ``to_reduced`` gives the coefficient functions.
    """

    a_slope: float
    b_slope: float
    c_slope: float
    a_const: float
    b_const: float
    c_const: float

    def __post_init__(self):
        for name, v in vars(self).items():
            object.__setattr__(self, name, float(v))
        _require_finite(**vars(self))

    @classmethod
    def from_sextuple(cls, seq) -> "AffineCoeffs":
        vals = list(seq)
        if len(vals) != 6:
            raise ValueError("need exactly six values (three slopes, three constants)")
        return cls(*vals)

    def sextuple(self) -> tuple[float, ...]:
        return (self.a_slope, self.b_slope, self.c_slope,
                self.a_const, self.b_const, self.c_const)

    def to_reduced(self) -> ReducedCoeffs:
        """The AFFINE-kind ReducedCoeffs with these slopes and constants."""
        a1, b1, c1, a0, b0, c0 = self.sextuple()
        params = {"a": [a1, a0], "b": [b1, b0], "c": [c1, c0]}
        return ReducedCoeffs(
            CoeffKind.AFFINE,
            lambda z: a1 * z + a0,
            lambda z: c1 * z + c0,
            b_fn=lambda z: b1 * z + b0,
            params=params,
        )


def general_coeffs(a: ScalarFn, c: ScalarFn, b: ScalarFn | None = None,
                   d: ScalarFn | None = None) -> ReducedCoeffs:
    """Wrap arbitrary scalar callables as reduced coefficients.

    The callables take one float; an array of phases is evaluated by
    calling them once per phase.
    """
    if (b is None) == (d is None):
        raise BadParameters("pass exactly one of b and d")
    b_fn, d_fn = (None if f is None else _per_phase(f) for f in (b, d))
    return ReducedCoeffs(CoeffKind.GENERAL, _per_phase(a), _per_phase(c),
                         b_fn=b_fn, d_fn=d_fn)


def _per_phase(fn: ScalarFn):
    """``fn`` applied to each phase of an array; a float goes straight to ``fn``."""
    return lambda z: (fn(z) if isinstance(z, float) else
                      np.fromiter(map(fn, z.ravel().tolist()), float, z.size).reshape(z.shape))


def coeffs_to_json_dict(rc: ReducedCoeffs) -> dict:
    """Serialize constant or affine coefficients (general ones cannot)."""
    if rc.kind is CoeffKind.GENERAL or rc.params is None:
        raise ValueError("general coefficients hold callables and do not serialize")
    return {"kind": rc.kind.value, "variant": rc.variant.value, **rc.params}


def coeffs_from_json_dict(obj: dict) -> ReducedCoeffs:
    kind = obj.get("kind")
    if kind == CoeffKind.CONSTANT.value:
        if obj.get("variant") == Variant.VAN_DER_POL.value:
            return constant_coeffs(obj["a"], obj["c"], d=obj["d"])
        return constant_coeffs(obj["a"], obj["c"], b=obj["b"])
    if kind == CoeffKind.AFFINE.value:
        a1, a0 = obj["a"]
        b1, b0 = obj["b"]
        c1, c0 = obj["c"]
        return AffineCoeffs(a1, b1, c1, a0, b0, c0).to_reduced()
    raise ValueError(f"cannot deserialize coefficient kind {kind!r}")


def _contraction(structure: GeometricStructure, lam: SpeedVector, name: str,
                 x, t, eta, xi):
    """One raw lambda-contraction ("a", "b", "c" or "d") at one or stacked jet points."""
    lv = lam.values
    if name == "a":
        return np.einsum("...ab,a,b->...", structure.h(x, t, eta, xi), lv, lv) - 1.0
    if name == "b":
        return np.einsum("...abc,a,b,c->...", structure.b_field(x, t, eta, xi), lv, lv, lv)
    field = structure.c_field if name == "c" else structure.d_field
    return np.einsum("...g,g->...", field(x, t, eta, xi), lv)


def _cubic_term(structure: GeometricStructure, x, t, eta, xi):
    """B^{abc} xi_a xi_b xi_c (Rayleigh) or eta^2 D^g xi_g (Van der Pol)."""
    if structure.b_field is not None:
        B = structure.b_field(x, t, eta, xi)
        return np.einsum("...abc,...a,...b,...c->...", B, xi, xi, xi)
    return eta * eta * np.einsum("...g,...g->...", structure.d_field(x, t, eta, xi), xi)


def _classify(fns: dict) -> tuple[CoeffKind, dict | None]:
    """Sample the contraction closures around z = 0 to tag them constant/affine/general."""
    step = 0.7
    zs = step * np.arange(-2.0, 3.0)
    try:
        samples = {k: np.broadcast_to(fn(zs), zs.shape) for k, fn in fns.items()}
    except MrayleighError:
        # e.g. a profile probe whose domain does not reach every sample
        return CoeffKind.GENERAL, None
    scale = max(1.0, *(np.max(np.abs(v)) for v in samples.values()))
    tol = 1e-12 * scale
    if all(np.max(np.abs(v - v[2])) <= tol for v in samples.values()):
        return CoeffKind.CONSTANT, {k: float(v[2]) for k, v in samples.items()}
    if all(np.max(np.abs(np.diff(v, n=2))) <= step * step * tol for v in samples.values()):
        params = {}
        for k, v in samples.items():
            slope = (v[3] - v[1]) / (2.0 * step)
            params[k] = [float(slope), float(v[2] - slope * zs[2])]
        return CoeffKind.AFFINE, params
    return CoeffKind.GENERAL, None


def reduce(structure: GeometricStructure, lam: SpeedVector,
           probe=None) -> ReducedCoeffs:
    """Contract a structure with lambda into reduced ODE coefficients.

    The returned coefficients are functions of the phase z, evaluated on
    the traveling-wave foliation at t = 0, so x = z.  The jet (eta, xi) is
    zero when ``probe`` is None; a soliton profile as ``probe`` makes it
    follow the ansatz, eta = phi(z) and xi = -lambda phi'(z).  Structures
    that ignore the jet, such as synthesized ones, reduce to the same
    coefficients either way.

    Raises DegenerateA when |a(0)| <= DEGENERACY_TOL.
    """
    if lam.m != structure.m:
        raise DimensionMismatch(
            f"lambda has {lam.m} components, structure has m = {structure.m}")

    def jet(z):
        if probe is None:
            return 0.0, np.zeros(_lead(z) + (structure.m,))
        return probe.phi(z), np.multiply.outer(probe.phi_prime(z), -lam.values)

    def coeff(name):
        def fn(z):
            z = _unwrap(z)      # one phase reaches the fields as x a float
            return _contraction(structure, lam, name, z, np.zeros(_lead(z) + (structure.m,)),
                                *jet(z))
        return fn

    names = ("a", "c", "b" if structure.variant is Variant.RAYLEIGH else "d")
    fns = {k: coeff(k) for k in names}

    # construction-time degeneracy probe at the anchor phase
    a_ref = float(fns["a"](0.0))
    if abs(a_ref) <= DEGENERACY_TOL:
        raise DegenerateA(f"a(0.0) = {a_ref} at the probed point")

    kind, params = _classify(fns)
    return ReducedCoeffs(
        kind=kind,
        a_fn=fns["a"],
        c_fn=fns["c"],
        b_fn=fns.get("b"),
        d_fn=fns.get("d"),
        params=params,
    )


def synthesize_structure(target: ReducedCoeffs, m: int, lam: SpeedVector) -> GeometricStructure:
    """Realize prescribed reduced coefficients by a canonical structure.

    The member chosen from the infinite family: h diagonal with
    h^{11}(z) = (a(z) + 1 - sum_{alpha >= 2} lambda_alpha^2) / lambda_1^2
    and unit remaining diagonal, C supported on index 1 with
    C^1 = c(z)/lambda_1, B supported on (1,1,1) with B^111 = b(z)/lambda_1^3
    (or D^1 = d(z)/lambda_1), and Gamma identically zero.  ``reduce`` of
    the result with the same lambda returns the target coefficients.
    """
    if lam.m != m:
        raise DimensionMismatch(f"lambda has {lam.m} components, m = {m}")
    lam1 = float(lam.values[0])
    if lam1 == 0.0:
        raise ZeroLeadingSpeed("canonical synthesis needs lambda_1 != 0")
    rest = float(np.dot(lam.values[1:], lam.values[1:]))
    eye = np.eye(m)

    def h(x, t, eta, xi):
        z = lam.z(x, t)
        out = np.empty(_lead(z) + (m, m))
        out[...] = eye
        out[..., 0, 0] = (target.a(z) + 1.0 - rest) / (lam1 * lam1)
        return out

    def leading(coeff, scale, rank):
        """The rank-``rank`` field supported on its (1, ..., 1) slot, coeff(z) / scale."""
        def field(x, t, eta, xi):
            z = lam.z(x, t)
            out = np.zeros(_lead(z) + (m,) * rank)
            out[(...,) + (0,) * rank] = coeff(z) / scale
            return out
        return field

    gamma = _constant_field(np.zeros((m, m, m)))
    if target.variant is Variant.RAYLEIGH:
        return GeometricStructure(m=m, h=h, gamma=gamma, c_field=leading(target.c, lam1, 1),
                                  b_field=leading(target.b, lam1 * lam1 * lam1, 3))
    return GeometricStructure(m=m, h=h, gamma=gamma, c_field=leading(target.c, lam1, 1),
                              d_field=leading(target.d, lam1, 1))


def prolongation_structure(m: int, epsilon: float,
                           variant: Variant = Variant.RAYLEIGH) -> GeometricStructure:
    """Structure under which u(x, t^1) prolongs a single-time solution.

    h is the identity, C and the cubic slot are supported on index 1 with
    weight epsilon, and Gamma^1_{11} is chosen jet-dependently so that the
    index-1 algebraic condition h^{ab} Gamma^1_{ab} xi_1 = C^1 xi_1 -
    B^{111} xi_1^3 (or its eta^2 D^1 counterpart) holds identically.
    """
    if m < 1:
        raise DimensionMismatch(f"m must be at least 1, got {m}")
    eps = float(epsilon)
    h = _constant_field(np.eye(m))
    c_arr = np.zeros(m)
    c_arr[0] = eps
    c_field = _constant_field(c_arr)

    def gamma_from(weight):
        out = np.zeros(np.shape(weight) + (m, m, m))
        out[..., 0, 0, 0] = eps * (1.0 - weight * weight)
        return out

    if variant is Variant.RAYLEIGH:
        b_arr = np.zeros((m, m, m))
        b_arr[0, 0, 0] = eps
        return GeometricStructure(m=m, h=h, c_field=c_field,
                                  gamma=lambda x, t, eta, xi: gamma_from(xi[..., 0]),
                                  b_field=_constant_field(b_arr))

    d_arr = np.zeros(m)
    d_arr[0] = eps
    return GeometricStructure(m=m, h=h, c_field=c_field,
                              gamma=lambda x, t, eta, xi: gamma_from(eta),
                              d_field=_constant_field(d_arr))


def _normalize_points(points, m: int) -> list[EvalPoint]:
    out = []
    for p in points:
        pt = p if isinstance(p, EvalPoint) else EvalPoint(*p)
        if pt.m != m:
            raise DimensionMismatch("sample point has the wrong number of times")
        out.append(pt)
    return out


def _constraint_gap(structure: GeometricStructure, x, t, eta, xi):
    """h^{ab} Gamma^g_{ab} xi_g - (C^g xi_g - cubic term), one or stacked."""
    h = structure.h(x, t, eta, xi)
    g = structure.gamma(x, t, eta, xi)
    lhs = np.einsum("...ab,...gab,...g->...", h, g, xi)
    rhs = (np.einsum("...g,...g->...", structure.c_field(x, t, eta, xi), xi)
           - _cubic_term(structure, x, t, eta, xi))
    return lhs - rhs


def check_constraint(structure: GeometricStructure, sample_points) -> bool:
    """Check h^{ab} Gamma^g_{ab} xi_g = C^g xi_g - B^{abc} xi_a xi_b xi_c.

    For the Van der Pol variant the right-hand side is
    C^g xi_g - eta^2 D^g xi_g.  True iff the pointwise residual stays
    within CONSTRAINT_TOL at every sample.  The constraint does not involve
    the speeds; each sample point must carry the structure's m times.
    """
    for pt in _normalize_points(sample_points, structure.m):
        gap = _constraint_gap(structure, pt.x, pt.t, pt.eta, pt.xi)
        if not np.all(np.abs(gap) <= CONSTRAINT_TOL):
            return False
    return True


def verify_reduction_consistency(structure: GeometricStructure, lam: SpeedVector) -> bool:
    """Check that the contractions depend on (x, t) only through z.

    Draws CONSISTENCY_SAMPLES phases z from CONSISTENCY_Z_RANGE and pairs of
    time points t, t' with matching phase (x adjusted so x - lambda.t = z)
    and compares the contractions; any relative disagreement above
    CONSTRAINT_TOL means the structure does not reduce to well-defined
    coefficient functions of z along this lambda.
    """
    if lam.m != structure.m:
        raise DimensionMismatch("lambda does not match the structure")
    rng = np.random.default_rng(CONSISTENCY_SEED)
    zeros = np.zeros(structure.m)
    names = ("a", "c", "b" if structure.variant is Variant.RAYLEIGH else "d")
    for _ in range(CONSISTENCY_SAMPLES):
        z = rng.uniform(*CONSISTENCY_Z_RANGE)
        t1 = rng.uniform(-3.0, 3.0, structure.m)
        t2 = rng.uniform(-3.0, 3.0, structure.m)
        for key in names:
            v1 = float(_contraction(structure, lam, key, z + lam.dot(t1), t1, 0.0, zeros))
            v2 = float(_contraction(structure, lam, key, z + lam.dot(t2), t2, 0.0, zeros))
            if not np.all(np.abs(v1 - v2) <= CONSTRAINT_TOL * max(1.0, abs(v1), abs(v2))):
                return False
    return True
