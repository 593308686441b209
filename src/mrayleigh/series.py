"""Power-series solutions of the Rayleigh reduction with affine coefficients.

For a(z) = a1 z + a0, b(z) = b1 z + b0, c(z) = c1 z + c0 the ansatz
phi = sum_n alpha_n z^n turns a phi'' - b (phi')^3 + c phi' = 0 into

    a1 n(n+1) alpha_{n+1} + a0 (n+1)(n+2) alpha_{n+2}
        - b1 T(n-1) - b0 T(n) + c1 n alpha_n + c0 (n+1) alpha_{n+1} = 0

for n >= 0 (with T(-1) = 0; the n = 0 instance is the seed relation
2 a0 alpha_2 + c0 alpha_1 - b0 alpha_1^3 = 0).  Here T(n) is the z^n
coefficient of (phi')^3, accumulated from the derivative coefficients
beta_k = (k+1) alpha_{k+1} by two convolution stages,

    gamma_n = sum_k beta_k beta_{n-k},     T(n) = sum_i gamma_i beta_{n-i},

which keeps the whole recurrence O(N^2).  A literal triple-sum evaluator
of T is kept as a cross-check path.

Both T evaluators keep the left-to-right summation order of plain Python
loops: a running sum, np.add.accumulate (np.cumsum), never np.dot or np.sum,
whose pairwise or BLAS order moves the last digits.  The convolution route
takes both of a step's sums from one np.add.accumulate over a two-row (beta,
gamma) buffer, and the recurrence's scalar arithmetic runs on Python floats.
Every coefficient, radius and value is the double the loops give, so output
stays byte-stable (acceptance criteria 4 and 9); tests/test_series.py keeps
the loops as the exact reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .closed_form import Family, Interval, SolitonProfile, _default_lam, _stacked
# AffineCoeffs is defined in coefficients and re-exported here, next to the
# recurrence that consumes it
from .coefficients import DEGENERACY_TOL, AffineCoeffs, SpeedVector, _require_finite
from .errors import BadParameters, BlowUp, DegenerateA

# returned when the tail gives no growth to measure (constant or polynomial
# truncations are entire); finite so that reports stay strict JSON
LARGE_RADIUS = 1e300

# profiles built from a truncated series are restricted to this fraction of
# the estimated convergence radius
SAFETY_FRACTION = 0.5


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated series phi = sum alpha_n z^n with its radius estimate, set
    once from ``estimate_radius`` (None when inconclusive), as are alpha and
    its derivative's coefficients from the top down, which Horner reads."""

    coeffs: AffineCoeffs
    alpha: np.ndarray
    radius_estimate: float | None = field(init=False)
    _top_down: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            # alpha0 and alpha1 are the initial data the series extends
            raise BadParameters(f"a series needs alpha0 and alpha1, got alpha of shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)
        object.__setattr__(self, "radius_estimate", estimate_radius(self))
        object.__setattr__(self, "_top_down",
                           (arr.tolist()[::-1], _derivative(arr).tolist()[::-1]))

    @property
    def n_terms(self) -> int:
        return self.alpha.size - 1

    def to_json_dict(self) -> dict:
        return {
            "params": list(self.coeffs.sextuple()),
            "alpha0": float(self.alpha[0]),
            "alpha1": float(self.alpha[1]),
            "N": int(self.n_terms),
            "alpha": [float(v) for v in self.alpha],
            "radius_estimate": self.radius_estimate,
        }


def _convolution_terms(alpha):
    """T(n) by the running convolutions gamma = beta*beta and T = gamma*beta.

    Call n = 0, 1, 2, ... in order: step n appends beta_n and gamma_n, so the
    whole recurrence costs O(N^2).  beta and gamma are the two rows of one
    buffer, and step n takes both sums from one product with beta_n, ...,
    beta_0 and one np.add.accumulate along the rows, left to right as sum()
    adds: gamma_n is row 0's last partial sum, and T(n) is row 1's partial
    sum at n - 1 plus gamma_n beta_0 (beta_0 = alpha_1), the one term not yet
    in the buffer.  sum() starts from +0, so adding 0.0 turns a -0.0 total
    into the +0.0 that sum() returns.
    """
    buf = np.zeros((2, len(alpha) - 1))
    beta, gamma = buf

    def t_of(n: int) -> float:
        beta[n] = (n + 1) * alpha[n + 1]
        sums = np.add.accumulate(buf[:, :n + 1] * beta[n::-1], axis=1)
        g = gamma[n] = sums[0, n].item() + 0.0
        head = sums[1, n - 1].item() if n else 0.0
        return head + g * alpha[1] + 0.0

    return t_of


def _triple_sum_terms(alpha):
    """T(n) = [z^n] (phi')^3 by the literal triple sum; the O(N^3) cross-check.

    Every triple (i, j, n - i - j) is enumerated with i outer and j inner and
    summed left to right; nothing is shared with the convolution route.
    """
    def t_of(n: int) -> float:
        beta = np.arange(1, n + 2) * alpha[1:n + 2]
        row, col = np.triu_indices(n + 1)       # i = row, j = col - row
        prods = (beta[row] * beta[col - row]) * beta[n - col]
        return np.cumsum(prods)[-1] + 0.0

    return t_of


def _solve_recurrence(coeffs: AffineCoeffs, alpha0: float, alpha1: float,
                      n_terms: int, terms) -> SeriesSolution:
    """Fill alpha_2 .. alpha_{n_terms} with T(n) from ``terms(alpha)``.

    alpha is a list of Python floats, filled in place.  Step n needs T(n),
    which reads alpha only up to index n + 1, already known when the step
    runs; T(n - 1) is carried over from step n - 1.
    Raises BlowUp at the first alpha_n that leaves the float range.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    a1, b1, c1 = coeffs.a_slope, coeffs.b_slope, coeffs.c_slope
    a0, b0, c0 = coeffs.a_const, coeffs.b_const, coeffs.c_const
    if abs(a0) <= DEGENERACY_TOL:
        raise DegenerateA("the recurrence divides by the constant part of a")
    alpha = [float(alpha0), float(alpha1)] + [0.0] * (n_terms - 1)
    _require_finite(alpha0=alpha[0], alpha1=alpha[1])
    t_of = terms(alpha)
    t_nm1 = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(0, n_terms - 1):
            t_n = t_of(n)
            num = (b1 * t_nm1 + b0 * t_n
                   - a1 * n * (n + 1) * alpha[n + 1]
                   - c1 * n * alpha[n]
                   - c0 * (n + 1) * alpha[n + 1])
            alpha[n + 2] = num / (a0 * (n + 1) * (n + 2))
            if not math.isfinite(alpha[n + 2]):
                raise BlowUp(f"the series recurrence to N = {n_terms} overflows: "
                             f"alpha_{n + 2} is not finite")
            t_nm1 = t_n
    return SeriesSolution(coeffs, np.array(alpha))


def series_coefficients(coeffs: AffineCoeffs, alpha0: float, alpha1: float,
                        n_terms: int) -> SeriesSolution:
    """Solve the coefficient recurrence up to alpha_{n_terms}.

    O(N^2) overall: the convolutions gamma = beta*beta and T = gamma*beta
    are extended incrementally as new beta values appear.  Raises
    DegenerateA when the constant part of a vanishes.
    """
    return _solve_recurrence(coeffs, alpha0, alpha1, n_terms, _convolution_terms)


def series_coefficients_triple_sum(coeffs: AffineCoeffs, alpha0: float,
                                   alpha1: float, n_terms: int) -> SeriesSolution:
    """Same recurrence with T(n) from the literal triple sum (O(N^3))."""
    return _solve_recurrence(coeffs, alpha0, alpha1, n_terms, _triple_sum_terms)


def _warn_outside(series: SeriesSolution, z: float):
    if series.radius_estimate is None or abs(z) >= series.radius_estimate:
        warnings.warn(
            f"|z| = {abs(z)} is at or beyond the radius estimate "
            f"{series.radius_estimate}; the truncation error is uncontrolled",
            RuntimeWarning, stacklevel=3)


def _horner(top_down, z):
    """sum_n coef[n] z^n for a float or an array z, with ``top_down`` the
    Python floats coef[N], ..., coef[0], by Horner's rule from the top
    coefficient down, the order numpy evaluates in."""
    coefs = iter(top_down)
    acc = next(coefs) + z * 0
    for cn in coefs:
        acc = cn + acc * z
    return acc


def _derivative(coef: np.ndarray) -> np.ndarray:
    """Coefficients n coef[n] of the derivative, the products numpy forms."""
    return np.arange(1, coef.size) * coef[1:]


def evaluate(series: SeriesSolution, z: float) -> float:
    """Horner evaluation of phi at z (warns outside the radius estimate)."""
    _warn_outside(series, z)
    return _horner(series._top_down[0], float(z))


def evaluate_prime(series: SeriesSolution, z: float) -> float:
    _warn_outside(series, z)
    return _horner(series._top_down[1], float(z))


def estimate_radius(series: SeriesSolution) -> float | None:
    """Convergence-radius estimate from the coefficient tail.

    Root test on the tail window [max(4, N // 2), N] of the coefficients:
    the median of |alpha_n|^{-1/n} over nonzero tail entries.  A window of
    fewer than 3 indices is too short to judge and returns None.  When the
    tail carries no information (constant or terminating series) the large
    sentinel LARGE_RADIUS is returned; when b(z) is identically zero the
    ODE is linear and the nearest zero of a(z) is used as an analytic
    fallback.  A return of None means the estimate is inconclusive.
    """
    alpha = series.alpha
    n_top = alpha.size - 1
    start = max(4, n_top // 2)
    if n_top - start + 1 < 3:
        return None
    tail_idx = [n for n in range(start, n_top + 1) if alpha[n] != 0.0]
    if len(tail_idx) >= 3:
        rn = sorted(abs(alpha[n]) ** (-1.0 / n) for n in tail_idx)
        # the median as np.median takes it, which would load numpy.ma
        half = len(rn) // 2
        median = rn[half] if len(rn) % 2 else (rn[half - 1] + rn[half]) / 2
        return float(min(median, LARGE_RADIUS))
    if not np.any(alpha[1:] != 0.0) or not np.any(alpha[start:] != 0.0):
        # constant or terminating polynomial: entire
        return LARGE_RADIUS
    if series.coeffs.b_slope == 0.0 and series.coeffs.b_const == 0.0:
        # linear ODE: singular only where a(z) = 0
        if series.coeffs.a_slope != 0.0:
            return abs(series.coeffs.a_const / series.coeffs.a_slope)
        return LARGE_RADIUS
    return None


def series_soliton(series: SeriesSolution, lam: SpeedVector | None = None) -> SolitonProfile:
    """Wrap a truncated series as a profile on |z| < 0.5 * radius estimate,
    whose Horner sums take an array of phases or one phase as a float."""
    if series.radius_estimate is None:
        raise DegenerateA(
            "radius estimate is inconclusive; cannot bound a validity interval")
    rho = SAFETY_FRACTION * series.radius_estimate
    dom = Interval(-rho, rho)
    der1 = _derivative(series.alpha)
    # numpy's second derivative of a linear series is alpha_0 * 0
    der2 = _derivative(der1) if der1.size > 1 else series.alpha[:1] * 0.0

    def horner(top_down):
        return _stacked(dom, lambda z: _horner(top_down, z))

    params = {
        "coeffs": list(series.coeffs.sextuple()),
        "alpha0": float(series.alpha[0]),
        "alpha1": float(series.alpha[1]),
        "n_terms": int(series.n_terms),
        "radius_estimate": float(series.radius_estimate),
    }
    return SolitonProfile(Family.SERIES, params, _default_lam(lam), dom,
                          *map(horner, series._top_down + (der2.tolist()[::-1],)),
                          coeffs=series.coeffs.to_reduced())
