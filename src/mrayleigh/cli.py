"""Command line front end.

Subcommands:
    profile   construct a profile and sample it (CSV) with a JSON sidecar
    verify    residual-sweep a profile against a synthesized structure,
              plus reduced-ODE, fresh-integration and substitution checks
    series    run the affine-coefficient recurrence
    prolong   solve the single-time damped wave equation and check its
              prolongation to the multitime equation
    decay     follow a profile along a ray in multitime

--out names a directory; each command writes <command>.json / <command>.csv
there per --format (default: both, or json for decay, which has no CSV).
Without --out the payload goes to stdout (default format: json; "both"
needs --out).  Status lines go to stderr.  Floats are printed with 17
significant digits, JSON keys are sorted, lines end with \n, so repeated
runs are byte-identical.  Each subcommand imports only the modules it runs,
and CSV floats are formatted by one %.17g pass, the bytes format(v, ".17g")
gives.

--config FILE reads a JSON object keyed by option name (``n_x``,
``square_relation``) as --key=value flags placed before the command line,
so values meet the same types and choices and explicit flags win.  null
leaves an option unset, quiet takes true or false, lists are joined with
commas, and grid is a list of [lo, hi, count] triples that a --grid on the
command line replaces.  Unknown keys are an error.

Exit codes: 0 success / verified, 1 verification failed, 2 invalid input
(and a series coefficient that overflows).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .closed_form import (
    Interval,
    soliton_arccosh,
    soliton_arcsin,
    soliton_arcsinh,
    soliton_quadrature,
    vdp_explicit,
    vdp_implicit,
    with_speed,
)
from .coefficients import (
    AffineCoeffs,
    SpeedVector,
    Variant,
    _require_finite,
    constant_coeffs,
    general_coeffs,
    prolongation_structure,
    synthesize_structure,
)
from .errors import BlowUp, ConditionViolated, MrayleighError, StiffnessFailure
from .geometry import GridSpec, check_prolongation, stationary_solution

GUARD_BAND = 0.1

_PROFILE_FAMILIES = ["quadrature", "arccosh", "arcsinh", "arcsin",
                     "vdp-implicit", "vdp-explicit", "series"]


def fmt17(v) -> str:
    return format(float(v), ".17g")


def dumps(obj) -> str:
    """JSON with sorted keys and .17g floats; non-finite floats become null."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return fmt17(v) if math.isfinite(v) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(json.dumps(str(k)) + ":" + dumps(obj[k])
                         for k in sorted(obj, key=str))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_text(header, rows) -> str:
    """The header line, then one line of len(header) %.17g values per row,
    formatted by one % over all values: the bytes of fmt17 on each."""
    flat = tuple(itertools.chain.from_iterable(rows))
    line = "%.17g," * (len(header) - 1) + "%.17g\n"
    return ",".join(header) + "\n" + (line * (len(flat) // len(header))) % flat


def _emit(ns, json_obj, csv_payload):
    """Route payload per --format/--out.  csv_payload is (header, rows) or None."""
    fmt = ns.format or ("both" if ns.out and csv_payload is not None else "json")
    if fmt in ("csv", "both") and csv_payload is None:
        raise ValueError(f"the {ns.cmd} subcommand emits json only")
    if fmt == "both" and not ns.out:
        raise ValueError("--format both requires --out")
    pieces = {}
    if fmt in ("json", "both"):
        pieces["json"] = dumps(json_obj) + "\n"
    if fmt in ("csv", "both"):
        pieces["csv"] = csv_text(*csv_payload)
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        for ext, text in pieces.items():
            with open(os.path.join(ns.out, f"{ns.cmd}.{ext}"), "w", newline="") as f:
                f.write(text)
    else:
        sys.stdout.write(next(iter(pieces.values())))


def _status(ns, line: str):
    if not ns.quiet:
        print(line, file=sys.stderr)


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _coeff(text: str):
    """Coefficient value: a float, or the literal 'exp' meaning e^z."""
    return "exp" if text.strip() == "exp" else float(text)


def _triple(text: str):
    """An axis triple lo:hi:count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis must be lo:hi:count, got {text!r}")
    lo, hi, n = parts
    return (float(lo), float(hi), int(n))


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


_FAMILY_DOMAIN = {"quadrature": (-10.0, 10.0), "vdp-implicit": (-5.0, 5.0)}


def _add_common(p):
    p.add_argument("--config", help="JSON file of option values; flags win")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=["csv", "json", "both"],
                   help="payload selection (default: both with --out, json for decay "
                        "or without --out)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the status line on stderr")


def _add_series_params(p):
    p.add_argument("--coeffs", type=_floats, metavar="M,P,Q,A,B,C",
                   help="affine coefficients: three slopes then three constants")
    p.add_argument("--alpha0", type=float, default=0.0, help="phi(0)")
    p.add_argument("--alpha1", type=float, default=1.0, help="phi'(0)")
    p.add_argument("--N", type=_count, default=40, help="series truncation order")


def _add_profile_params(p, families):
    p.add_argument("--family", choices=families, default="arcsinh")
    p.add_argument("--a", type=_coeff, default=1.0, help="coefficient of phi'' (or 'exp')")
    p.add_argument("--b", type=float, default=1.0, help="coefficient of phi'^3")
    p.add_argument("--c", type=_coeff, default=1.0, help="coefficient of phi' (or 'exp')")
    p.add_argument("--d", type=_coeff, default=3.0,
                   help="coefficient of phi^2 phi' (or 'exp')")
    p.add_argument("--K", type=float, default=1.0, help="integration constant")
    p.add_argument("--r", type=float, default=0.0, help="additive constant (arc families)")
    p.add_argument("--sigma", type=float, choices=[-1.0, 1.0], default=1.0,
                   help="sign choice (arc families)")
    p.add_argument("--k1", type=float, default=0.0, help="constant root (vdp-implicit)")
    p.add_argument("--phi0", type=float, help="value at z0 (vdp-implicit)")
    p.add_argument("--z0", type=float, default=0.0, help="anchor point")
    p.add_argument("--square-relation", dest="square_relation",
                   choices=["reciprocal", "direct"], default="reciprocal",
                   help="vdp-implicit k1=0 relation (direct is the known-bad form)")
    p.add_argument("--lam", type=_floats, metavar="L1,L2,...",
                   help="speed vector components")
    _add_series_params(p)
    p.add_argument("--zmin", type=float, help="left end of the working window")
    p.add_argument("--zmax", type=float, help="right end of the working window")
    p.add_argument("--n", type=_count, default=201, help="number of samples / check points")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mrayleigh", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.set_defaults(cmd=None)
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("profile", help="construct and sample a profile")
    p.set_defaults(run=_cmd_profile)
    _add_common(p)
    _add_profile_params(p, _PROFILE_FAMILIES)

    p = sub.add_parser("verify", help="check a profile several independent ways")
    p.set_defaults(run=_cmd_verify)
    _add_common(p)
    _add_profile_params(p, _PROFILE_FAMILIES + ["stationary"])
    p.add_argument("--tol", type=float, default=1e-6, help="verdict tolerance")
    p.add_argument("--m", type=_count, default=1, help="number of multitime dimensions")
    p.add_argument("--grid", action="append", type=_triple, metavar="LO:HI:N",
                   help="axis triple, repeat m+1 times (x first, then t axes)")
    p.add_argument("--oracle-tol", dest="oracle_tol", type=float, default=1e-10,
                   help="tolerance handed to the fresh integration")

    p = sub.add_parser("series", help="affine-coefficient recurrence")
    p.set_defaults(run=_cmd_series)
    _add_common(p)
    _add_series_params(p)

    p = sub.add_parser("prolong", help="single-time solve plus multitime check")
    p.set_defaults(run=_cmd_prolong)
    _add_common(p)
    p.add_argument("--tol", type=float,
                   help="verdict tolerance (default: 10 x the single-time residual floor)")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--m", type=_count, default=2, help="number of multitime dimensions")
    p.add_argument("--t-final", dest="t_final", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=0.1, help="u(x,0) = amplitude sin x")
    p.add_argument("--n-x", dest="n_x", type=_count, default=256, help="spatial modes")
    p.add_argument("--n-t", dest="n_t", type=_count, default=101, help="stored time slices")
    p.add_argument("--grid-x", dest="grid_x", type=_count, default=25,
                   help="check grid, x count")
    p.add_argument("--grid-t", dest="grid_t", type=_count, default=17,
                   help="check grid, t1 count")

    p = sub.add_parser("decay", help="threshold crossing along a multitime ray")
    p.set_defaults(run=_cmd_decay)
    _add_common(p)
    _add_profile_params(p, _PROFILE_FAMILIES)
    p.add_argument("--direction", type=_floats, metavar="D1,D2,...")
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=1e3)
    p.add_argument("--x", type=float, default=0.0, help="spatial point")

    return ap


def _config_flags(ap, ns) -> list[str]:
    """The --config file of subcommand ``ns.cmd`` as flags (module docstring)."""
    with open(ns.config) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in sub.choices[ns.cmd]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, val in cfg.items():
        if val is None or (key == "grid" and ns.grid):
            continue
        flag = options[key].option_strings[0]
        if options[key].nargs == 0:
            if not isinstance(val, bool):
                raise ValueError(f"config key {key} must be true or false, got {val!r}")
            if val:
                flags.append(flag)
        elif key == "grid":
            flags += [f"{flag}={_flag_text(axis, ':')}" for axis in val]
        else:
            flags.append(f"{flag}={_flag_text(val, ',')}")
    return flags


def _flag_text(val, sep: str) -> str:
    """A JSON value as flag text: lists joined by ``sep``, numbers round-tripping."""
    if isinstance(val, list):
        return sep.join(_flag_text(v, sep) for v in val)
    return val if isinstance(val, str) else json.dumps(val)


def _reduced(ns, names):
    """ReducedCoeffs from flag values; 'exp' (e^z) switches to the general tier."""
    vals = {k: getattr(ns, k) for k in names}
    _require_finite(**{k: v for k, v in vals.items() if v != "exp"})
    if "exp" not in vals.values():
        return constant_coeffs(vals["a"], vals["c"], b=vals.get("b"), d=vals.get("d"))
    fns = {k: math.exp if v == "exp" else (lambda z, v=v: v) for k, v in vals.items()}
    return general_coeffs(fns["a"], fns["c"], b=fns.get("b"), d=fns.get("d"))


def _require_numbers(ns, names):
    for k in names:
        if getattr(ns, k) == "exp":
            raise ValueError(f"--{k} must be a number for family {ns.family}")


def _build_profile(ns):
    lam = SpeedVector(np.asarray(ns.lam, dtype=float)) if ns.lam else None
    fam = ns.family
    if fam in ("arccosh", "arcsinh", "arcsin"):
        _require_numbers(ns, ("a", "c"))
        builder = {"arccosh": soliton_arccosh, "arcsinh": soliton_arcsinh,
                   "arcsin": soliton_arcsin}[fam]
        return builder(ns.a, ns.b, ns.c, ns.K, r=ns.r, sigma=ns.sigma, lam=lam)
    if fam == "quadrature":
        dom = _window(ns, *_FAMILY_DOMAIN[fam])
        return soliton_quadrature(_reduced(ns, ("a", "b", "c")), ns.K,
                                  z0=ns.z0, domain=dom, lam=lam)
    if fam == "vdp-implicit":
        dom = _window(ns, *_FAMILY_DOMAIN[fam])
        return vdp_implicit(_reduced(ns, ("a", "c", "d")), ns.k1,
                            z0=ns.z0, phi0=ns.phi0, domain=dom,
                            square_relation=ns.square_relation, lam=lam)
    if fam == "vdp-explicit":
        _require_numbers(ns, ("a", "c", "d"))
        return vdp_explicit(ns.a, ns.c, ns.d, ns.K, lam=lam)
    if fam == "series":
        from .series import series_soliton
        return series_soliton(_series(ns, "family series"), lam)
    raise ValueError(f"unknown family {fam!r}")


def _series(ns, what: str):
    """The series recurrence on --coeffs, which ``what`` needs."""
    from .series import series_coefficients
    if not ns.coeffs:
        raise ValueError(f"{what} needs --coeffs M,P,Q,A,B,C")
    return series_coefficients(AffineCoeffs.from_sextuple(ns.coeffs), ns.alpha0, ns.alpha1, ns.N)


def _window(ns, lo, hi):
    """(--zmin, --zmax) where given, else (lo, hi); given ends must be finite."""
    given = {k: v for k, v in (("zmin", ns.zmin), ("zmax", ns.zmax)) if v is not None}
    _require_finite(**given)
    return float(given.get("zmin", lo)), float(given.get("zmax", hi))


def _guarded(domain: Interval) -> Interval:
    """The domain kept a guard band inside any finite endpoint (derivatives
    are probed by small steps that must stay inside, and arc-family
    derivatives are singular at the edge)."""
    dlo, dhi = domain.lo, domain.hi
    guard = GUARD_BAND
    if math.isfinite(dlo) and math.isfinite(dhi):
        guard = min(GUARD_BAND, 0.05 * (dhi - dlo))
    return Interval(dlo + guard, dhi - guard)


def _sample_window(profile, ns):
    """Finite z-interval to sample on, inside the guarded domain."""
    lo, hi = _window(ns, max(profile.domain.lo, -10.0), min(profile.domain.hi, 10.0))
    inner = _guarded(profile.domain)
    lo, hi = max(lo, inner.lo), min(hi, inner.hi)
    if not lo < hi:
        raise ValueError(f"empty sampling window [{lo}, {hi}]")
    return float(lo), float(hi)


def _cmd_profile(ns) -> int:
    prof = _build_profile(ns)
    lo, hi = _sample_window(prof, ns)
    zs = np.linspace(lo, hi, ns.n)
    z, phi, dphi = prof.sample(zs)
    obj = prof.to_json_dict()
    obj["window"] = [lo, hi]
    obj["n"] = int(len(z))
    rows = np.column_stack([z, phi, dphi]).tolist()
    _emit(ns, obj, (["z", "phi", "phi_prime"], rows))
    _status(ns, f"{prof.family.value}: {len(z)} samples on [{fmt17(lo)}, {fmt17(hi)}]")
    return 0


def _grid(ns, lo, hi):
    """The --grid axes (x first), else lo:hi:9 in x and 0:1:5 in each time."""
    if not ns.grid:
        return GridSpec((lo, hi, 9), [(0.0, 1.0, 5)] * ns.m)
    if len(ns.grid) != ns.m + 1:
        raise ValueError(f"--grid must be given m + 1 = {ns.m + 1} times, got {len(ns.grid)}")
    return GridSpec(ns.grid[0], ns.grid[1:])


def _cmd_verify(ns) -> int:
    from .oracle import (
        TOL_MAX,
        TOL_MIN,
        bernoulli_chain_check,
        integrate_reduction,
        reduction_ode_residual,
        residual_sweep,
    )
    if ns.family == "stationary":
        _require_numbers(ns, ("a",))
        field = stationary_solution(float(ns.a), float(ns.b))
        lam = SpeedVector(np.ones(ns.m))
        structure = synthesize_structure(constant_coeffs(1.0, 1.0, b=1.0),
                                         ns.m, lam)
        rep = residual_sweep(field, structure, _grid(ns, -5.0, 5.0))
        verified = rep.max_abs <= ns.tol
        obj = {"family": "stationary", "report": rep.to_json_dict(),
               "tol": float(ns.tol), "verified": verified}
        _emit(ns, obj, (rep.csv_header(), list(rep.csv_rows())))
        _status(ns, f"{'verified' if verified else 'FAILED'}: max residual "
                    f"{fmt17(rep.max_abs)} against tol {fmt17(ns.tol)}")
        return 0 if verified else 1

    # the stationary check above never integrates, so it ignores --oracle-tol
    if not TOL_MIN <= ns.oracle_tol <= TOL_MAX:
        raise ValueError(f"--oracle-tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    prof = _build_profile(ns)
    lam = (SpeedVector(np.asarray(ns.lam, dtype=float)) if ns.lam
           else SpeedVector(np.ones(ns.m)))
    if lam.m != ns.m:
        raise ValueError("--lam length must equal --m")
    prof = with_speed(prof, lam)
    lo, hi = _sample_window(prof, ns)
    zs = np.linspace(lo, hi, ns.n)
    grid = _grid(ns, lo, hi)

    rep_an = reduction_ode_residual(prof.coeffs, prof, zs, "analytic")
    rep_fd = reduction_ode_residual(prof.coeffs, prof, zs, "fd")
    mid = 0.5 * (lo + hi)
    oracle_note = None
    try:
        ivp = integrate_reduction(prof.coeffs, prof.phi(mid), prof.phi_prime(mid),
                                  span=(lo, hi), z0=mid, tol=ns.oracle_tol)
        oracle_dev = float(np.max(np.abs(prof.phi(zs) - ivp.phi(zs))))
    except (BlowUp, StiffnessFailure) as e:
        # the true solution through this data does not stay on the profile;
        # that is a failed verification, not bad input
        oracle_dev = math.inf
        oracle_note = str(e)
    chain_ok, chain = True, {}
    if prof.coeffs.variant is Variant.RAYLEIGH:
        # xi = phi'^-2 squares away small phi', so an absolute tolerance is
        # only meaningful where phi' is not tiny; the samples left out are counted
        steep = np.abs(prof.phi_prime(zs)) >= 0.05
        chain = {"chain_skipped": int(zs.size - np.count_nonzero(steep))}
        chain_ok = bernoulli_chain_check(prof.coeffs, prof, zs[steep], tol=ns.tol)

    structure = synthesize_structure(prof.coeffs, ns.m, lam)
    # a given grid may reach a closed endpoint, where phi' is singular: its
    # phases keep the guard band that the sampling window keeps
    swept = replace(prof, domain=_guarded(prof.domain)) if ns.grid else prof
    sweep = residual_sweep(swept, structure, grid, skip_out_of_domain=True)

    # each deviation is held to --tol: this table and the chain decide the verdict
    devs = {"ode_analytic_max": rep_an.max_abs, "ode_fd_max": rep_fd.max_abs,
            "oracle_max_dev": oracle_dev, "sweep_max": sweep.max_abs}
    checks = (devs | {"chain_ok": chain_ok} | chain
              | ({"oracle_note": oracle_note} if oracle_note else {}))
    # NaN passes no comparison, so it would fail unnamed: name it
    nan = [k for k, v in devs.items() if math.isnan(v)]
    verified = not nan and chain_ok and all(v <= ns.tol for v in devs.values())
    obj = {
        "family": prof.family.value,
        "window": [lo, hi],
        "n": int(ns.n),
        "m": int(ns.m),
        "checks": checks | ({"nan": nan} if nan else {}),
        "report": sweep.to_json_dict(),
        "tol": float(ns.tol),
        "verified": verified,
    }
    if ns.grid:
        in_domain = np.count_nonzero(prof.domain.contains(lam.z(*grid.arrays())))
        obj["guard_dropped"] = int(in_domain) - sweep.residuals.size
    _emit(ns, obj, (sweep.csv_header(), list(sweep.csv_rows())))
    worst = "NaN in " + ", ".join(nan) if nan else fmt17(max(devs.values()))
    _status(ns, f"{'verified' if verified else 'FAILED'}: worst deviation "
                f"{worst} against tol {fmt17(ns.tol)}, chain "
                f"{'ok' if chain_ok else 'failed'}")
    return 0 if verified else 1


def _cmd_series(ns) -> int:
    sol = _series(ns, "series")
    rows = [[n, v] for n, v in enumerate(sol.alpha)]
    _emit(ns, sol.to_json_dict(), (["n", "alpha_n"], rows))
    radius = "inconclusive" if sol.radius_estimate is None else fmt17(sol.radius_estimate)
    _status(ns, f"{sol.n_terms + 1} coefficients, radius estimate {radius}")
    return 0


def _cmd_prolong(ns) -> int:
    from .oracle import TAU_R_MAX, integrate_single_time_rayleigh
    if ns.n_x < 3:
        # amplitude * sin x samples to zero on one or two points
        raise ValueError(f"--n-x must be at least 3, got {ns.n_x}")
    _require_finite(amplitude=ns.amplitude)
    sol = integrate_single_time_rayleigh(ns.epsilon,
                                         lambda x: ns.amplitude * math.sin(x),
                                         lambda x: 0.0, ns.t_final,
                                         n_x=ns.n_x, n_t=ns.n_t)
    tau_r = sol.residual_estimate()
    tol = ns.tol if ns.tol is not None else 10.0 * max(tau_r, 1e-12)
    structure = prolongation_structure(ns.m, ns.epsilon)
    margin = 0.01 * ns.t_final
    grid = GridSpec((0.0, 2.0 * math.pi, ns.grid_x),
                    [(margin, ns.t_final - margin, ns.grid_t)]
                    + [(0.0, 1.0, 1)] * (ns.m - 1))
    rep = check_prolongation(sol.as_field(), structure, grid=grid)
    verified = rep.max_abs <= tol and tau_r <= TAU_R_MAX
    obj = {
        "epsilon": float(ns.epsilon),
        "m": int(ns.m),
        "t_final": float(ns.t_final),
        "tau_r": tau_r,
        "max_abs": rep.max_abs,
        "rms": rep.rms,
        "tol": float(tol),
        "verified": verified,
    }
    _emit(ns, obj, (rep.csv_header(), list(rep.csv_rows())))
    floor = f"single-time floor {fmt17(tau_r)}"
    if not tau_r <= TAU_R_MAX:
        floor += f" over its bound {fmt17(TAU_R_MAX)}"
    _status(ns, f"{'verified' if verified else 'FAILED'}: max residual "
                f"{fmt17(rep.max_abs)} against tol {fmt17(tol)} ({floor})")
    return 0 if verified else 1


def _cmd_decay(ns) -> int:
    from .oracle import decay_check
    prof = _build_profile(ns)
    if not ns.direction:
        raise ValueError("decay needs --direction D1,D2,...")
    if ns.lam is None:
        prof = with_speed(prof, SpeedVector(np.ones(len(ns.direction))))
    res = decay_check(prof, ns.direction, threshold=ns.threshold,
                      horizon=ns.horizon, x=ns.x)
    _emit(ns, res.to_json_dict(), None)
    if res.ok:
        _status(ns, f"decays: |phi| stays under {fmt17(ns.threshold)} past "
                    f"radius {fmt17(res.crossing_radius)}")
    else:
        _status(ns, f"no decay: final sample {fmt17(res.final_value)} "
                    f"against threshold {fmt17(ns.threshold)}")
    return 0 if res.ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    ns = ap.parse_args(argv)
    if ns.cmd is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
        if ns.config:
            # config flags go right after the subcommand, so the given flags win
            at = argv.index(ns.cmd) + 1
            ns = ap.parse_args(argv[:at] + _config_flags(ap, ns) + argv[at:])
        if getattr(ns, "tol", None) is not None:     # verify and prolong only
            _require_finite(tol=ns.tol)
            if ns.tol <= 0.0:
                raise ValueError(f"tol must be positive, got {ns.tol}")
        return ns.run(ns)
    except ConditionViolated as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (MrayleighError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
