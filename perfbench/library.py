"""In-process tasks of the sweep and solvers workloads.

Each runner takes a tracer (tracing.Tracer or tracing.NullTracer) and one
task from inputs.py, calls the library's public functions, and returns an
Outcome: whether the verdict equals the task's known answer, how many
residual points were evaluated, and a digest of every residual array and
verdict value, so traced and untraced runs can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from mrayleigh.closed_form import (
    soliton_arccosh,
    soliton_arcsin,
    soliton_arcsinh,
    soliton_quadrature,
    vdp_explicit,
    vdp_implicit,
)
from mrayleigh.coefficients import (
    SpeedVector,
    constant_coeffs,
    general_coeffs,
    prolongation_structure,
    reduce,
    synthesize_structure,
)
from mrayleigh.errors import DomainExceeded
from mrayleigh.geometry import GridSpec, check_prolongation
from mrayleigh.oracle import (
    bernoulli_chain_check,
    decay_check,
    integrate_reduction,
    integrate_single_time_rayleigh,
    reduction_ode_residual,
    residual_sweep,
)
from mrayleigh.series import (
    AffineCoeffs,
    estimate_radius,
    evaluate,
    series_coefficients,
    series_coefficients_triple_sum,
)

import inputs
from tracing import wrap_coeffs, wrap_profile, wrap_structure

# decay checks follow the ray t = s (1, 1) in two times (as criterion 8)
DECAY_DIRECTION = (1.0, 1.0)
DECAY_THRESHOLD = 1e-3
# residual_estimate's probe lattice (x, t), as the prolong subcommand uses it
RESIDUAL_PROBES = (48, 33)


@dataclass
class Outcome:
    ok: bool          # verdict equals the known answer
    points: int       # residual points evaluated
    digest: str       # residual arrays and verdict values, hashed
    detail: dict


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(np.ascontiguousarray(item, dtype=float).tobytes())
            else:
                self._h.update(repr(item).encode())

    def report(self, rep):
        self.add(rep.points, rep.residuals, rep.max_abs, rep.rms)

    def hexdigest(self):
        return self._h.hexdigest()


def _coeffs_for(p):
    fam = p["family"]
    if fam == "quadrature":
        return constant_coeffs(p["a"], p["c"], b=p["b"])
    A, D = p["A"], p["D"]
    return general_coeffs(a=lambda z: A * math.exp(z), c=lambda z: A * math.exp(z),
                          d=lambda z: D)


def build_profile(tr, p, lam=None):
    """Build the profile a task names, with wrappers when traced."""
    fam = p["family"]
    with tr.span("closed_form.build", family=fam) as rec:
        before = tr.count("coeff.")
        if fam in ("quadrature", "vdp_implicit", "vdp_implicit_k1"):
            rc = wrap_coeffs(tr, _coeffs_for(p))
            if fam == "quadrature":
                prof = soliton_quadrature(rc, p["K"], z0=0.0, domain=p["domain"], lam=lam)
            else:
                prof = vdp_implicit(rc, p["k1"], z0=0.0, phi0=p["phi0"],
                                    domain=p["domain"], lam=lam,
                                    square_relation=p.get("square_relation", "reciprocal"))
        else:
            if fam == "vdp_explicit":
                prof = vdp_explicit(p["a"], p["c"], p["d"], p["K"], lam=lam)
            else:
                builder = {"arcsinh": soliton_arcsinh, "arccosh": soliton_arccosh,
                           "arcsin": soliton_arcsin}[fam]
                prof = builder(p["a"], p["b"], p["c"], p["K"], r=p["r"],
                               sigma=p["sigma"], lam=lam)
            # these families build their own constant coefficients
            prof = replace(prof, coeffs=wrap_coeffs(tr, prof.coeffs))
        rec["coeff_calls"] = tr.count("coeff.") - before
    return wrap_profile(tr, prof, DomainExceeded)


def _grid(p):
    return GridSpec(tuple(p["x_axis"]), tuple(tuple(a) for a in p["t_axes"]))


def _ivp(tr, coeffs, y0, span, z0, tol):
    """integrate_reduction under a span that counts rhs calls (one a(z) each)."""
    with tr.span("oracle.ivp") as rec:
        before = tr.count("coeff.a")
        ivp = integrate_reduction(coeffs, *y0, span=span, z0=z0, tol=tol)
        rec["rhs_calls"] = tr.count("coeff.a") - before
    return ivp


def _ode_checks(tr, prof, zs, dig):
    reps = []
    for mode in ("analytic", "fd"):
        with tr.span("oracle.ode_residual", mode=mode):
            rep = reduction_ode_residual(prof.coeffs, prof, zs, mode)
        dig.report(rep)
        reps.append(rep)
    return reps


def _expected_kept(grid, lam, domain):
    """Grid points whose phase lies inside ``domain``, or None if any phase
    sits so close to an edge that inside and outside cannot be told apart."""
    lo, hi = domain
    xs, *ts = np.meshgrid(*grid.axis_values(), indexing="ij")
    z = xs - sum(l * t for l, t in zip(lam, ts))
    if np.any(np.abs(z - lo) < 1e-9) or np.any(np.abs(z - hi) < 1e-9):
        return None
    return int(np.count_nonzero((z >= lo) & (z <= hi)))


def run_lift(tr, task):
    """Build, lift to m times, synthesize, reduce back, sweep, ODE checks."""
    p, ex = task.params, task.expect
    dig = Digest()
    lam = SpeedVector(np.array(p["lam"]))
    family = task.label.rsplit(".", 1)[0]
    prof = build_profile(tr, p, lam=lam)
    m = p["m"]
    with tr.span("coefficients.synthesize"):
        st = synthesize_structure(prof.coeffs, m, lam)
    st = wrap_structure(tr, st)
    with tr.span("coefficients.reduce"):
        red = reduce(st, lam)
    names = ("a", "c", "b") if prof.coeffs.b_fn is not None else ("a", "c", "d")
    roundtrip = 0.0
    for z in np.linspace(*p["window"], 20):
        for k in names:
            want = getattr(prof.coeffs, k)(z)
            roundtrip = max(roundtrip, abs(getattr(red, k)(z) - want) / max(1.0, abs(want)))
    grid = _grid(p)
    skip = p.get("skip_out_of_domain", False)
    with tr.span("oracle.residual_sweep", family=family, m=m,
                 n_points=grid.n_points()) as rec:
        sweep = residual_sweep(prof, st, grid, skip_out_of_domain=skip)
    rec["kept"] = kept = sweep.residuals.size
    zs = np.linspace(*p["window"], p["n_ode"])
    an, fd = _ode_checks(tr, prof, zs, dig)
    dig.report(sweep)
    dig.add(roundtrip)
    if "negative_control_min" in ex:
        ok = an.max_abs >= ex["negative_control_min"] and sweep.max_abs > ex["sweep_min"]
    else:
        ok = (sweep.max_abs <= ex["sweep_max"] and an.max_abs <= ex["ode_analytic_max"]
              and fd.max_abs <= ex["ode_fd_max"] and roundtrip <= ex["roundtrip_max"])
        if skip:
            want = _expected_kept(grid, p["lam"], p["domain"])
            ok = ok and want is not None and kept == want and 0 < kept < grid.n_points()
    return Outcome(ok, kept + 2 * zs.size, dig.hexdigest(),
                   {"sweep_max": sweep.max_abs, "ode_analytic_max": an.max_abs,
                    "ode_fd_max": fd.max_abs, "roundtrip": roundtrip,
                    "kept": kept, "n_points": grid.n_points()})


def run_ivp(tr, task):
    """ODE residuals plus a fresh integration compared with the profile."""
    p, ex = task.params, task.expect
    dig = Digest()
    prof = build_profile(tr, p)
    lo, hi = p["window"]
    zs = np.linspace(lo, hi, p["n"])
    an, fd = _ode_checks(tr, prof, zs, dig)
    mid = 0.5 * (lo + hi)
    ivp = _ivp(tr, prof.coeffs, (prof.phi(mid), prof.phi_prime(mid)), (lo, hi), mid,
               p["oracle_tol"])
    dev = float(max(abs(prof.phi(z) - ivp.phi(z)) for z in zs))
    dig.add(ivp.nodes, ivp.phi_values, ivp.phi_prime_values, dev)
    ok = (an.max_abs <= ex["ode_analytic_max"] and fd.max_abs <= ex["ode_fd_max"]
          and dev <= ex["oracle_dev_max"])
    return Outcome(ok, 3 * zs.size, dig.hexdigest(),
                   {"ode_analytic_max": an.max_abs, "ode_fd_max": fd.max_abs,
                    "oracle_dev": dev})


def run_chain(tr, task):
    p = task.params
    prof = build_profile(tr, p)
    zs = [z for z in np.linspace(*p["window"], p["n"])
          if abs(prof.phi_prime(z)) >= inputs.CHAIN_MIN_SLOPE]
    with tr.span("oracle.chain_check"):
        ok = bernoulli_chain_check(prof.coeffs, prof, zs, tol=inputs.CHAIN_TOL)
    dig = Digest()
    dig.add(np.array(zs), ok)
    return Outcome(ok == task.expect["chain_ok"], len(zs), dig.hexdigest(),
                   {"chain_ok": ok, "samples": len(zs)})


def run_decay(tr, task):
    p, ex = task.params, task.expect
    prof = build_profile(tr, p, lam=SpeedVector(np.ones(len(DECAY_DIRECTION))))
    with tr.span("oracle.decay"):
        res = decay_check(prof, DECAY_DIRECTION, threshold=DECAY_THRESHOLD)
    dig = Digest()
    dig.add(res.ok, res.crossing_radius, res.final_value)
    ok = res.ok == ex["ok"]
    if "limit" in ex:
        ok = ok and abs(res.final_value - ex["limit"]) <= ex["limit_tol"]
    return Outcome(ok, 0, dig.hexdigest(),
                   {"ok": res.ok, "final_value": res.final_value})


def run_series(tr, task):
    """Recurrence at N, radius estimate, and agreement with integration."""
    p, ex = task.params, task.expect
    ac = AffineCoeffs.from_sextuple(p["coeffs"])
    with tr.span("series.recurrence", N=p["N"]):
        sol = series_coefficients(ac, p["alpha0"], p["alpha1"], p["N"])
    with tr.span("series.radius"):
        radius = estimate_radius(sol)
    half = 0.5 * sol.radius_estimate
    ivp = _ivp(tr, wrap_coeffs(tr, ac.to_reduced()), (p["alpha0"], p["alpha1"]),
               (-half, half), 0.0, 1e-12)
    zs = np.linspace(-half, half, p["n_eval"])
    with tr.span("series.evaluate", n=zs.size):
        vals = np.array([evaluate(sol, z) for z in zs])
    dev = float(np.max(np.abs(vals - ivp.phi(zs))))
    dig = Digest()
    dig.add(sol.alpha, sol.radius_estimate, vals, dev)
    ok = (bool(np.all(np.isfinite(sol.alpha))) and ex["radius_min"] <= radius < math.inf
          and dev <= ex["series_ivp_max"])
    return Outcome(ok, zs.size, dig.hexdigest(),
                   {"radius": radius, "series_ivp_dev": dev})


def run_triple(tr, task):
    """Convolution recurrence against the literal triple-sum route."""
    p = task.params
    ac = AffineCoeffs.from_sextuple(p["coeffs"])
    with tr.span("series.recurrence", N=p["N"]):
        fast = series_coefficients(ac, p["alpha0"], p["alpha1"], p["N"])
    with tr.span("series.triple_sum", N=p["N"]):
        slow = series_coefficients_triple_sum(ac, p["alpha0"], p["alpha1"], p["N"])
    scale = np.maximum(1.0, np.abs(slow.alpha))
    split = float(np.max(np.abs(fast.alpha - slow.alpha) / scale))
    dig = Digest()
    dig.add(fast.alpha, slow.alpha, split)
    return Outcome(split <= task.expect["route_split_max"], 0, dig.hexdigest(),
                   {"route_split": split})


def run_prolong(tr, task):
    """Spectral single-time solve, its residual floor, and the prolongation."""
    p, ex = task.params, task.expect
    eps, amp = p["epsilon"], p["amplitude"]
    with tr.span("oracle.spectral_solve"):
        sol = integrate_single_time_rayleigh(eps, lambda x: amp * math.sin(x),
                                             lambda x: 0.0, 1.0,
                                             n_x=p["n_x"], n_t=p["n_t"])
    with tr.span("oracle.residual_estimate"):
        tau = sol.residual_estimate(*RESIDUAL_PROBES)
    st = wrap_structure(tr, prolongation_structure(p["m"], eps))
    grid = GridSpec((0.0, 2.0 * math.pi, p["grid_x"]),
                    [(0.01, 0.99, p["grid_t"])] + [(0.0, 1.0, 1)] * (p["m"] - 1))
    with tr.span("geometry.check_prolongation"):
        rep = check_prolongation(sol.as_field(), st, grid=grid)
    dig = Digest()
    dig.add(tau)
    dig.report(rep)
    ok = tau <= ex["tau_r_max"] and rep.max_abs <= ex["factor"] * tau
    return Outcome(ok, math.prod(RESIDUAL_PROBES) + grid.n_points(), dig.hexdigest(),
                   {"tau_r": tau, "prolong_max": rep.max_abs})


RUNNERS = {"lift": run_lift, "ivp": run_ivp, "chain": run_chain,
           "decay": run_decay, "series": run_series, "triple": run_triple,
           "prolong": run_prolong}


def grids_of(tasks):
    """The sweep grids of a task list, for timing grid enumeration alone."""
    return [_grid(t.params) for t in tasks if t.kind == "lift"]
