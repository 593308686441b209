"""Seeded task lists and the known-answer table for each workload.

A task is plain data: a kind, a label, drawn parameters and the verdict it
must reach.  The library only ever sees these generated values.  Every
parameter is drawn from a range inside the family's stated validity
conditions (sign conditions, domain positivity, compatibility), chosen so
that the certificate is expected to pass; the negative control is expected
to fail.  A draw whose verdict differs from its known answer is a failed
task: it is counted, never re-drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Known-answer bounds, the repository's acceptance bounds.
SWEEP_MAX = 1e-6            # multitime residual sweep (criterion 2)
ODE_ANALYTIC_MAX = 1e-8     # reduced ODE, analytic phi'' (criterion 1)
ODE_FD_MAX = 1e-6           # reduced ODE, finite-difference phi'' (criterion 1)
ORACLE_DEV_MAX = 1e-6       # fresh integration vs profile (verify's default tol)
CHAIN_TOL = 1e-6            # Bernoulli chain check tolerance (verify's default)
CHAIN_MIN_SLOPE = 0.05      # chain samples need |phi'| >= this (as verify does)
ROUNDTRIP_MAX = 1e-12       # synthesize then reduce, relative (criterion 7)
ROUTE_SPLIT_MAX = 1e-13     # convolution vs triple-sum recurrence (criterion 4)
SERIES_IVP_MAX = 1e-7       # series vs adaptive integration (criterion 5)
TAU_R_MAX = 1e-4            # single-time solver accuracy floor (criterion 3)
PROLONG_FACTOR = 10.0       # prolongation residual <= 10 tau_r (criterion 3)
DECAY_LIMIT_TOL = 1e-6      # plateau value vs sqrt(3c/d) (criterion 8)
NEGATIVE_CONTROL_MIN = 1e-2  # direct square relation must fail by this much (criterion 6)

SWEEP_FAMILIES = ("arcsinh", "arccosh", "arcsin", "vdp_explicit",
                  "quadrature", "vdp_implicit", "vdp_implicit_k1")
CHEAP_FAMILIES = ("arcsinh", "arccosh", "arcsin", "vdp_explicit")

# Grid points per sweep task, by size and family.  Sizes are set so that
# every task but the k1 != 0 ones costs about the same (~35 ms on a 2 vCPU
# Xeon): the median verdict then falls inside one cluster of similar tasks,
# not on the edge between a cheap and a costly group, and a run holds
# enough passes for a pooled 90th percentile.  Criterion 2 sweeps 10^4
# points per profile; that would allow only a handful of verdicts per run.
SWEEP_POINTS = {"full": {"cheap": 1500, "quadrature": 200, "vdp_implicit": 160,
                         "vdp_implicit_k1": 160, "edge": 300},
                "tiny": {"cheap": 60, "quadrature": 30, "vdp_implicit": 30,
                         "vdp_implicit_k1": 30, "edge": 60}}
ODE_SAMPLES = {"full": 60, "tiny": 20}
SOLVER_SAMPLES = {"full": 200, "tiny": 20}
T_WINDOW = (0.0, 0.1)       # every time axis of a sweep grid (as criterion 2)


@dataclass(frozen=True)
class Task:
    kind: str
    label: str
    params: dict
    expect: dict = field(default_factory=dict)


def _u(rng, lo, hi):
    return rng.uniform(lo, hi)


def _axes(n_points, m):
    """(x count, t count per axis) with x * t**m close to n_points."""
    n_t = {1: 25, 2: 10, 3: 5}[m]
    while n_t > 2 and 4 * n_t ** m > n_points:
        n_t -= 1
    return max(2, round(n_points / n_t ** m)), n_t


def _draw_family(rng, family):
    """Profile parameters and the phase window a check may use.

    Windows keep the margins the acceptance tests keep: 0.5 or more inside
    a finite domain edge where phi' diverges.
    """
    if family in ("arcsinh", "arccosh", "arcsin"):
        a, c = _u(rng, 0.8, 1.2), _u(rng, 0.8, 1.2)
        b = _u(rng, 0.8, 1.2) * (-1.0 if family == "arcsin" else 1.0)
        K = {"arcsinh": _u(rng, 0.5, 2.0), "arccosh": _u(rng, 2.0, 3.0),
             "arcsin": _u(rng, 0.5, 0.9)}[family]
        p = {"a": a, "b": b, "c": c, "K": K, "r": _u(rng, -0.5, 0.5),
             "sigma": rng.choice((1.0, -1.0))}
        edge = (a / c) * math.log(K)
        window = {"arcsinh": (-3.0, 3.0), "arccosh": (edge - 4.0, edge - 0.6),
                  "arcsin": (edge + 0.6, edge + 4.0)}[family]
        return p, window
    if family == "vdp_explicit":
        return ({"a": _u(rng, 0.8, 1.2), "c": _u(rng, 0.8, 1.2),
                 "d": _u(rng, 2.5, 3.5), "K": _u(rng, 0.5, 2.0)}, (-3.0, 3.0))
    if family == "quadrature":
        return ({"a": _u(rng, 0.8, 1.2), "b": _u(rng, 0.8, 1.2),
                 "c": _u(rng, 0.8, 1.2), "K": _u(rng, 3.0, 5.0),
                 "domain": (-2.0, 2.0)}, (-1.5, 1.5))
    # Van der Pol through the first integral: a = c = A e^z and constant d
    # satisfy the compatibility relation (a/d)' = c/d
    p = {"A": _u(rng, 0.95, 1.05), "D": _u(rng, 2.85, 3.15),
         "phi0": _u(rng, 0.68, 0.72), "k1": 0.0, "domain": (-2.0, 2.0)}
    if family == "vdp_implicit_k1":
        p["k1"] = _u(rng, 0.45, 0.55)
    return p, (-1.5, 1.5)


def _sweep_task(rng, family, m, size, label=None, points=None, **extra):
    params, window = _draw_family(rng, family)
    lam = [1.0] + [_u(rng, 0.5, 1.0) for _ in range(m - 1)]
    n_pts = SWEEP_POINTS[size][points or ("cheap" if family in CHEAP_FAMILIES else family)]
    n_x, n_t = _axes(n_pts, m)
    params.update(family=family, m=m, lam=lam, window=window,
                  x_axis=(window[0] + sum(lam) * T_WINDOW[1], window[1], n_x),
                  t_axes=[(*T_WINDOW, n_t)] * m, n_ode=ODE_SAMPLES[size])
    params.update(extra)
    expect = {"sweep_max": SWEEP_MAX, "ode_analytic_max": ODE_ANALYTIC_MAX,
              "ode_fd_max": ODE_FD_MAX, "roundtrip_max": ROUNDTRIP_MAX}
    return Task("lift", label or f"{family}.m{m}", params, expect)


def sweep_tasks(seed, size="full"):
    """Criterion-2 style certification: build, lift, synthesize, sweep."""
    rng = random.Random(f"sweep/{seed}")
    tasks = [_sweep_task(rng, fam, m, size)
             for fam in SWEEP_FAMILIES for m in (1, 2, 3)]
    # quadrature on a shortened domain with the sweep window reaching past
    # both ends: out-of-domain points are dropped, the rest must pass
    lo, hi = -_u(rng, 0.9, 1.1), _u(rng, 0.9, 1.1)
    edge = _sweep_task(rng, "quadrature", 2, size, label="quadrature.edge.m2",
                       points="edge", skip_out_of_domain=True)
    edge.params.update(domain=(lo, hi), window=(lo + 0.05, hi - 0.05),
                       x_axis=(lo - 0.5, hi + 0.5, edge.params["x_axis"][2]))
    tasks.append(edge)
    # negative control: the direct square relation does not solve the ODE
    ctl = _sweep_task(rng, "vdp_implicit", 1, size, label="vdp_implicit.direct.m1",
                      square_relation="direct")
    ctl.params.update(window=(-1.9, 0.1),
                      x_axis=(-1.9 + T_WINDOW[1], 0.1, ctl.params["x_axis"][2]))
    tasks.append(Task("lift", ctl.label, ctl.params,
                      {"negative_control_min": NEGATIVE_CONTROL_MIN,
                       "sweep_min": SWEEP_MAX}))
    return tasks


def solver_tasks(seed, size="full"):
    """The independent routes, each called one point at a time."""
    rng = random.Random(f"solvers/{seed}")
    n = SOLVER_SAMPLES[size]
    tasks = []
    for fam in ("quadrature", "arcsinh", "vdp_explicit", "vdp_implicit"):
        p, window = _draw_family(rng, fam)
        p.update(family=fam, window=window, n=n, oracle_tol=1e-10)
        tasks.append(Task("ivp", f"ivp.{fam}", p,
                          {"ode_analytic_max": ODE_ANALYTIC_MAX,
                           "ode_fd_max": ODE_FD_MAX,
                           "oracle_dev_max": ORACLE_DEV_MAX}))
    for fam in ("quadrature", "arcsinh"):
        p, window = _draw_family(rng, fam)
        p.update(family=fam, window=window, n=n)
        tasks.append(Task("chain", f"chain.{fam}", p, {"chain_ok": True}))
    falling = {"family": "arcsinh", "a": _u(rng, 0.8, 1.2),
               "b": -_u(rng, 0.8, 1.2), "c": -_u(rng, 0.8, 1.2),
               "K": _u(rng, 0.5, 2.0), "r": 0.0, "sigma": 1.0}
    tasks.append(Task("decay", "decay.falling", falling, {"ok": True}))
    plateau, _ = _draw_family(rng, "vdp_explicit")
    plateau["family"] = "vdp_explicit"
    tasks.append(Task("decay", "decay.plateau", plateau,
                      {"ok": False, "limit": math.sqrt(3.0 * plateau["c"] / plateau["d"]),
                       "limit_tol": DECAY_LIMIT_TOL}))
    for N in (400, 1000):
        draw = _series_draw(rng)
        a0, c0 = draw["coeffs"][3], draw["coeffs"][5]
        tasks.append(Task("series", f"series.N{N}",
                          {**draw, "N": N, "n_eval": 201 if size == "full" else 21},
                          {"series_ivp_max": SERIES_IVP_MAX,
                           # half the analytic distance to the nearest singularity
                           "radius_min": 0.5 * math.pi * a0 / (2.0 * c0)}))
    tasks.append(Task("triple", "series.triple.N100",
                      {**_series_draw(rng), "N": 100},
                      {"route_split_max": ROUTE_SPLIT_MAX}))
    for m in (2, 3):
        tasks.append(Task("prolong", f"prolong.m{m}",
                          {"epsilon": _u(rng, 0.05, 0.15),
                           "amplitude": _u(rng, 0.05, 0.15), "m": m,
                           "n_x": 512 if size == "full" else 64,
                           "n_t": 201 if size == "full" else 41,
                           "grid_x": 25 if size == "full" else 7,
                           "grid_t": 17 if size == "full" else 5},
                          {"tau_r_max": TAU_R_MAX, "factor": PROLONG_FACTOR}))
    return tasks


def _series_draw(rng):
    # a = a0, b = b0, c = c0 constant with 0 < b0 < c0: phi' = psi has
    # psi^-2 = b/c + (1/alpha1^2 - b/c) e^{2cz/a}, whose singularities sit
    # off the real axis at distance >= pi a / (2 c) > 1.4, so the
    # coefficients decay and N = 1000 stays finite
    return {"coeffs": [0.0, 0.0, 0.0, _u(rng, 0.9, 1.1), _u(rng, 0.2, 0.4),
                       _u(rng, 0.8, 1.0)],
            "alpha0": _u(rng, -0.5, 0.5), "alpha1": _u(rng, 0.8, 1.2)}


def _f(v):
    return format(v, ".17g")


def cli_tasks(seed, size="full"):
    """The criterion-9 corpus, seeded, plus a large CSV and a failing verify.

    Each task is one cold-start invocation: argv after the subcommand, the
    expected exit code, and whether it writes to --out (else to stdout).
    """
    rng = random.Random(f"cli/{seed}")
    n_csv = 20000 if size == "full" else 200

    def arc(b_sign):
        return ["--a", _f(_u(rng, 0.8, 1.2)), f"--b={_f(b_sign * _u(rng, 0.8, 1.2))}",
                f"--c={_f(b_sign * _u(rng, 0.8, 1.2))}", "--K", _f(_u(rng, 0.5, 2.0))]

    def explicit():
        return ["--family", "vdp-explicit", "--a", _f(_u(rng, 0.8, 1.2)),
                "--c", _f(_u(rng, 0.8, 1.2)), "--d", _f(_u(rng, 2.5, 3.5)),
                "--K", _f(_u(rng, 0.5, 2.0))]

    specs = [
        ("profile", explicit() + ["--zmin", "-5", "--zmax", "5", "--n", "200"],
         0, True, {"rows": 200}),
        ("verify", ["--family", "arcsinh"] + arc(1.0)
         + ["--zmin", "-4", "--zmax", "4", "--m", "2"], 0, True, {"verified": True}),
        ("series", ["--coeffs", f"0,0,0,1,0,{_f(_u(rng, 0.8, 1.2))}",
                    "--alpha0", "0", "--alpha1", _f(_u(rng, 0.8, 1.2)), "--N", "40"],
         0, True, {"rows": 41}),
        ("prolong", ["--epsilon", _f(_u(rng, 0.02, 0.1)), "--m", "2",
                     "--n-x", "128", "--n-t", "51"], 0, True, {"verified": True}),
        ("decay", ["--family", "arcsinh"] + arc(-1.0)
         + ["--direction", "1,1", "--format", "json"], 0, True, {"ok": True}),
        ("profile", explicit() + ["--zmin", "-5", "--zmax", "5", "--n", str(n_csv),
                                  "--format", "csv"], 0, False, {"rows": n_csv}),
        ("verify", ["--family", "vdp-implicit", "--a", "exp", "--c", "exp",
                    "--d", "3", "--phi0", _f(_u(rng, 0.68, 0.72)),
                    "--square-relation", "direct", "--zmin", "-1.9",
                    "--zmax", "0.1", "--m", "1"], 1, True, {"verified": False}),
    ]
    labels = ["profile", "verify", "series", "prolong", "decay",
              "profile_csv", "verify_direct"]
    return [Task("cli", lab, {"cmd": cmd, "args": args, "to_dir": to_dir},
                 {"exit": code, **extra})
            for lab, (cmd, args, code, to_dir, extra) in zip(labels, specs)]


BUILDERS = {"sweep": sweep_tasks, "solvers": solver_tasks, "cli": cli_tasks}
