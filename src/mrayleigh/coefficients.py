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
original coefficients' values, as GENERAL coefficients.

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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    BadParameters,
    DegenerateA,
    DimensionMismatch,
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


def _contract(T, lv, rank: int):
    """T's first ``rank`` indices contracted with the weights lv, innermost
    index first, each sum taken left to right: acc = T[0] lv[0], then
    acc = acc + T[g] lv[g].  T is nested lists of floats or an array whose
    leading indices are the contracted ones; elementwise float arithmetic
    rounds alike in both."""
    if rank == 0:
        return T
    acc = _contract(T[0], lv, rank - 1) * lv[0]
    for g in range(1, len(lv)):
        acc = acc + _contract(T[g], lv, rank - 1) * lv[g]
    return acc


def _lead(z) -> tuple:
    """The leading axes of a phase: () for one point, z.shape for a stack."""
    return () if isinstance(z, float) else z.shape


def _first(z, bad) -> float:
    """The first phase flagged in ``bad``, for error messages."""
    return float(np.ravel(z)[np.argmax(np.ravel(bad))])


def _central(fn, z, step):
    """Central difference (fn(z + h) - fn(z - h)) / 2h, h = step max(1, |z|),
    for z of shape (N,), from one call of fn on the 2N shifted phases; fn's
    value is split on its last axis, and a phase's bits do not depend on
    the other phases in its call."""
    h = step * np.maximum(1.0, np.abs(z))
    both = fn(np.concatenate([z + h, z - h]))
    return (both[..., :z.size] - both[..., z.size:]) / (2.0 * h)


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
        # the components as Python floats, the weights of every contraction
        object.__setattr__(self, "floats", tuple(arr.tolist()))

    @property
    def m(self) -> int:
        return self.values.size

    def contract(self, T, rank: int = 1):
        """T with its last ``rank`` indices, each of length m, contracted with
        lambda: a float for T of shape (m,) * rank, (N,) for (N,) + (m,) * rank.

        Every point is summed in one written order, ``_contract``'s: one point
        over Python floats from ``.tolist()``, a stack over arrays with its
        leading axes moved behind the contracted ones, so a point has the bits
        of its row by construction.
        """
        T = np.asarray(T, dtype=float)
        lead = T.ndim - rank
        if lead < 0 or T.shape[lead:] != (self.m,) * rank:
            raise DimensionMismatch(f"cannot contract shape {T.shape} with lambda "
                                    f"on its last {rank} axes, m = {self.m}")
        if lead == 0:
            return _contract(T.tolist(), self.floats, rank)
        return _contract(T.transpose(*range(lead, T.ndim), *range(lead)), self.floats, rank)

    def dot(self, t):
        """lambda_alpha t^alpha: a float for t of shape (m,), (N,) for (N, m),
        each point summed left to right, lambda_0 t^0 first (``contract``)."""
        return self.contract(t)

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


def constant_structure(h, c=None, b=None, d=None) -> GeometricStructure:
    """Build a structure with constant tensor data, checking symmetry.

    ``b`` may be a full (m, m, m) array or a scalar placed in the (1,1,1)
    slot; ``d`` and ``c`` likewise accept scalars for the first component.
    When neither b nor d is given an all-zero Rayleigh b-tensor is used.
    Gamma is zero; ``prolongation_structure`` replaces it by a
    jet-dependent field.
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

    return GeometricStructure(
        m=m,
        h=_constant_field(h),
        gamma=_constant_field(np.zeros((m, m, m))),
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
    singular there.  ``params`` is the numeric payload that serializes, and
    ``kind`` is read off it: one number per coefficient is CONSTANT, a
    [slope, constant] pair each is AFFINE, and None is GENERAL, whose
    arbitrary callables cannot round-trip through JSON.

    The callables ``a_fn`` ... ``d_fn`` take a phase or an array of phases;
    ``general_coeffs`` wraps scalar callables to that contract.
    """

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

    @property
    def kind(self) -> CoeffKind:
        if self.params is None:
            return CoeffKind.GENERAL
        return CoeffKind.AFFINE if isinstance(self.params["a"], list) else CoeffKind.CONSTANT

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
        """phi'' from the solved reduced ODE: (cubic - c psi) / a, with psi = phi'.

        One phase takes float arithmetic: a_fn, c_fn and b_fn or d_fn are
        called once each, and the products, difference and quotient are the
        accessor expression's, in its order, so the result has its bits and
        type.  A degenerate a falls through to that expression, which raises
        DegenerateA through ``a``.
        """
        if isinstance(z, (int, float)) or np.ndim(z) == 0:
            z = float(z)
            cubic = (float(self.b_fn(z)) * (psi * psi * psi) if self.b_fn is not None
                     else float(self.d_fn(z)) * phi * phi * psi)
            num = cubic - float(self.c_fn(z)) * psi
            a = float(self.a_fn(z))
            if not abs(a) <= DEGENERACY_TOL:
                return num / a
        return (self.cubic(z, phi, psi) - self.c(z) * psi) / self.a(z)


def _coeffs_from_params(params: dict) -> ReducedCoeffs:
    """CONSTANT or AFFINE coefficients from ``params``, keyed a, c and the
    cubic slot b or d: one number each, or a [slope, constant] pair each."""
    params, numbers, fns = dict(params), {}, {}
    for k, v in params.items():
        if isinstance(v, list):
            slope, const = params[k] = [float(p) for p in v]
            numbers.update({f"{k}_slope": slope, f"{k}_const": const})
            fns[f"{k}_fn"] = lambda z, s=slope, c=const: s * z + c
        else:
            numbers[k] = params[k] = float(v)
            fns[f"{k}_fn"] = lambda z, c=params[k]: c
    _require_finite(**numbers)
    return ReducedCoeffs(params=params, **fns)


def constant_coeffs(a, c, b=None, d=None) -> ReducedCoeffs:
    """Constant reduced coefficients; pass exactly one of b, d."""
    if (b is None) == (d is None):
        raise BadParameters("pass exactly one of b and d")
    slot = "b" if b is not None else "d"
    return _coeffs_from_params({"a": a, "c": c, slot: b if d is None else d})


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
        return _coeffs_from_params({"a": [a1, a0], "b": [b1, b0], "c": [c1, c0]})


def general_coeffs(a: ScalarFn, c: ScalarFn, b: ScalarFn | None = None,
                   d: ScalarFn | None = None) -> ReducedCoeffs:
    """Wrap arbitrary scalar callables as reduced coefficients.

    The callables take one float; an array of phases is evaluated by
    calling them once per phase.
    """
    if (b is None) == (d is None):
        raise BadParameters("pass exactly one of b and d")
    b_fn, d_fn = (None if f is None else _per_phase(f) for f in (b, d))
    return ReducedCoeffs(_per_phase(a), _per_phase(c), b_fn=b_fn, d_fn=d_fn)


def _per_phase(fn: ScalarFn):
    """``fn`` applied to each phase of an array; a float goes straight to ``fn``."""
    return lambda z: (fn(z) if isinstance(z, float) else
                      np.fromiter(map(fn, z.ravel().tolist()), float, z.size).reshape(z.shape))


def coeffs_to_json_dict(rc: ReducedCoeffs) -> dict:
    """Serialize constant or affine coefficients (general ones cannot)."""
    if rc.params is None:
        raise ValueError("general coefficients hold callables and do not serialize")
    return {"kind": rc.kind.value, "variant": rc.variant.value, **rc.params}


def coeffs_from_json_dict(obj: dict) -> ReducedCoeffs:
    kind = obj.get("kind")
    if kind not in (CoeffKind.CONSTANT.value, CoeffKind.AFFINE.value):
        raise ValueError(f"cannot deserialize coefficient kind {kind!r}")
    slot = "d" if obj.get("variant") == Variant.VAN_DER_POL.value else "b"
    params = {k: obj[k] for k in ("a", "c", slot)}
    if any(isinstance(v, list) != (kind == CoeffKind.AFFINE.value) for v in params.values()):
        raise ValueError(f"coefficients of kind {kind!r} do not match their values {params}")
    return _coeffs_from_params(params)


def _contraction(structure: GeometricStructure, lam: SpeedVector, name: str,
                 x, t, eta, xi):
    """One raw lambda-contraction ("a", "b", "c" or "d") at one or stacked jet
    points, in ``SpeedVector.contract``'s one written order: a float where
    the field's value is one point's, an array where it is a stack."""
    if name == "a":
        return lam.contract(structure.h(x, t, eta, xi), 2) - 1.0
    if name == "b":
        return lam.contract(structure.b_field(x, t, eta, xi), 3)
    field = structure.c_field if name == "c" else structure.d_field
    return lam.contract(field(x, t, eta, xi))


def _cubic_term(structure: GeometricStructure, x, t, eta, xi):
    """B^{abc} xi_a xi_b xi_c (Rayleigh) or eta^2 D^g xi_g (Van der Pol)."""
    if structure.b_field is not None:
        B = structure.b_field(x, t, eta, xi)
        return np.einsum("...abc,...a,...b,...c->...", B, xi, xi, xi)
    return eta * eta * np.einsum("...g,...g->...", structure.d_field(x, t, eta, xi), xi)


def reduce(structure: GeometricStructure, lam: SpeedVector,
           probe=None) -> ReducedCoeffs:
    """Contract a structure with lambda into reduced ODE coefficients.

    The returned coefficients are functions of the phase z, evaluated on
    the traveling-wave foliation at t = 0, so x = z.  The jet (eta, xi) is
    zero when ``probe`` is None; a soliton profile as ``probe`` makes it
    follow the ansatz, eta = phi(z) and xi = -lambda phi'(z).  Structures
    that ignore the jet, such as synthesized ones, reduce to the same
    coefficients either way.

    The result is always GENERAL: ``reduce`` never infers a CONSTANT or
    AFFINE kind from sampled values, which can miss a varying coefficient.
    Serializable kinds come only from their constructors (``constant_coeffs``,
    ``AffineCoeffs.to_reduced`` and ``coeffs_from_json_dict``).

    Raises DegenerateA when |a(0)| <= DEGENERACY_TOL.
    """
    if lam.m != structure.m:
        raise DimensionMismatch(
            f"lambda has {lam.m} components, structure has m = {structure.m}")

    # one phase's zero t (and zero xi without a probe), shared by every call
    zero = np.zeros(structure.m)
    zero.flags.writeable = False

    def zeros(z):
        return zero if isinstance(z, float) else np.zeros(z.shape + (structure.m,))

    def jet(z):
        if probe is None:
            return 0.0, zeros(z)
        return probe.phi(z), np.multiply.outer(probe.phi_prime(z), -lam.values)

    def coeff(name):
        def fn(z):
            z = _unwrap(z)      # one phase reaches the fields as x a float
            return _contraction(structure, lam, name, z, zeros(z), *jet(z))
        return fn

    names = ("a", "c", "b" if structure.variant is Variant.RAYLEIGH else "d")
    fns = {k: coeff(k) for k in names}

    # construction-time degeneracy probe at the anchor phase
    a_ref = float(fns["a"](0.0))
    if abs(a_ref) <= DEGENERACY_TOL:
        raise DegenerateA(f"a(0.0) = {a_ref} at the probed point")

    return ReducedCoeffs(fns["a"], fns["c"], b_fn=fns.get("b"), d_fn=fns.get("d"))


def synthesize_structure(target: ReducedCoeffs, m: int, lam: SpeedVector) -> GeometricStructure:
    """Realize prescribed reduced coefficients by a canonical structure.

    The member chosen from the infinite family: h diagonal with
    h^{11}(z) = (a(z) + 1 - sum_{alpha >= 2} lambda_alpha^2) / lambda_1^2
    and unit remaining diagonal, C supported on index 1 with
    C^1 = c(z)/lambda_1, B supported on (1,1,1) with B^111 = b(z)/lambda_1^3
    (or D^1 = d(z)/lambda_1), and Gamma identically zero.  ``reduce`` of
    the result with the same lambda returns the target's values.
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

    cubic = ({"b_field": leading(target.b, lam1 * lam1 * lam1, 3)}
             if target.variant is Variant.RAYLEIGH else {"d_field": leading(target.d, lam1, 1)})
    return GeometricStructure(m=m, h=h, gamma=_constant_field(np.zeros((m, m, m))),
                              c_field=leading(target.c, lam1, 1), **cubic)


def prolongation_structure(m: int, epsilon: float,
                           variant: Variant = Variant.RAYLEIGH) -> GeometricStructure:
    """Structure under which u(x, t^1) prolongs a single-time solution.

    It is the constant structure with h the identity, C and the cubic slot
    supported on index 1 with weight epsilon, and a jet-dependent
    Gamma^1_{11} chosen so that the index-1 algebraic condition
    h^{ab} Gamma^1_{ab} xi_1 = C^1 xi_1 - B^{111} xi_1^3 (or its
    eta^2 D^1 counterpart) holds identically.
    """
    if m < 1:
        raise DimensionMismatch(f"m must be at least 1, got {m}")
    eps = float(epsilon)
    rayleigh = variant is Variant.RAYLEIGH
    st = constant_structure(np.eye(m), c=eps, **{"b" if rayleigh else "d": eps})

    def gamma(x, t, eta, xi):
        weight = xi[..., 0] if rayleigh else eta
        out = np.zeros(np.shape(weight) + (m, m, m))
        out[..., 0, 0, 0] = eps * (1.0 - weight * weight)
        return out

    return replace(st, gamma=gamma)


def _jet_points(structure: GeometricStructure, x, t, eta, xi):
    """(x, t, eta, xi) as one jet point or N stacked ones, after checking that
    t and xi carry the structure's m times and that x and eta are each one
    value or one per point."""
    t, xi = np.asarray(t, dtype=float), np.asarray(xi, dtype=float)
    if t.shape[-1:] != (structure.m,) or xi.shape != t.shape:
        raise DimensionMismatch(f"t and xi must have shape (m,) or (N, m), m = {structure.m}")
    if any(np.shape(v) not in ((), t.shape[:-1]) for v in (x, eta)):
        raise DimensionMismatch(f"x and eta must have shape () or {t.shape[:-1]}")
    return _unwrap(x), t, _unwrap(eta), xi


def _constraint_gap(structure: GeometricStructure, x, t, eta, xi):
    """h^{ab} Gamma^g_{ab} xi_g - (C^g xi_g - cubic term), one or stacked."""
    h = structure.h(x, t, eta, xi)
    g = structure.gamma(x, t, eta, xi)
    lhs = np.einsum("...ab,...gab,...g->...", h, g, xi)
    rhs = (np.einsum("...g,...g->...", structure.c_field(x, t, eta, xi), xi)
           - _cubic_term(structure, x, t, eta, xi))
    return lhs - rhs


def check_constraint(structure: GeometricStructure, x, t, eta, xi) -> bool:
    """Check h^{ab} Gamma^g_{ab} xi_g = C^g xi_g - B^{abc} xi_a xi_b xi_c.

    For the Van der Pol variant the right-hand side is
    C^g xi_g - eta^2 D^g xi_g.  Takes one jet point or N stacked ones, as
    the tensor fields do, and evaluates the gap once over all of them.
    True iff the pointwise residual stays within CONSTRAINT_TOL at every
    point.  The constraint does not involve the speeds; t and xi must carry
    the structure's m times (DimensionMismatch otherwise).
    """
    gap = _constraint_gap(structure, *_jet_points(structure, x, t, eta, xi))
    return bool(np.all(np.abs(gap) <= CONSTRAINT_TOL))


def verify_reduction_consistency(structure: GeometricStructure, lam: SpeedVector) -> bool:
    """Check that the contractions depend on (x, t) only through z.

    Draws CONSISTENCY_SAMPLES phases z from CONSISTENCY_Z_RANGE and pairs of
    time points t, t' with matching phase (x adjusted so x - lambda.t = z)
    and compares the contractions; any relative disagreement above
    CONSTRAINT_TOL means the structure does not reduce to well-defined
    coefficient functions of z along this lambda.  Each contraction is
    evaluated once on the stack of t and once on the stack of t'.
    """
    m = structure.m
    if lam.m != m:
        raise DimensionMismatch("lambda does not match the structure")
    # row i holds sample i's z, t and t' in the order of per-sample uniform draws
    u = np.random.default_rng(CONSISTENCY_SEED).random((CONSISTENCY_SAMPLES, 1 + 2 * m))
    lo, hi = CONSISTENCY_Z_RANGE
    z = lo + (hi - lo) * u[:, 0]
    t1, t2 = -3.0 + 6.0 * u[:, 1:1 + m], -3.0 + 6.0 * u[:, 1 + m:]
    zeros = np.zeros((CONSISTENCY_SAMPLES, m))
    for key in ("a", "c", "b" if structure.variant is Variant.RAYLEIGH else "d"):
        v1 = _contraction(structure, lam, key, z + lam.dot(t1), t1, 0.0, zeros)
        v2 = _contraction(structure, lam, key, z + lam.dot(t2), t2, 0.0, zeros)
        scale = np.maximum(1.0, np.maximum(np.abs(v1), np.abs(v2)))
        if not np.all(np.abs(v1 - v2) <= CONSTRAINT_TOL * scale):
            return False
    return True
