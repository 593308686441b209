"""Per-layer metrics of the traced run.

Each row names a layer metric, its unit and the workload that owns it (the
workload on which it should move, NOTES.md).  A traced run of the owner
takes the row from its own traced passes (median over passes).  A traced
run of another workload fills the row from one traced pass of the owner at
the tiny size, so every traced run prints the whole table; run.py tags
those rows in its output.  Read each row on its owner.

Units: rows ending in _s are seconds per pass (summed over the spans of
that name in one pass), except build_s, import_s and run_s, which are per
call; us rows are microseconds per point or per call.  Layer times are
unscaled; trace.overhead_s alone is in scaled seconds (calibrate.py).
"""

from __future__ import annotations

import json
import statistics

import inputs
import tracing
import workloads

SWEEP_FAMILIES = inputs.SWEEP_FAMILIES
CLI_LABELS = ("profile", "verify", "series", "prolong", "decay",
              "profile_csv", "verify_direct")


def _spans(tr, name, **match):
    return [s for s in tr.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())]


def _total(name, **match):
    def fn(tr):
        found = _spans(tr, name, **match)
        return sum(s["dur"] for s in found) if found else None
    return fn


def _median(name, key="dur", **match):
    def fn(tr):
        found = _spans(tr, name, **match)
        return statistics.median(s[key] for s in found) if found else None
    return fn


def _per_point(tr, fam, m):
    found = _spans(tr, "oracle.residual_sweep", family=fam, m=m)
    return 1e6 * found[0]["dur"] / found[0]["n_points"] if found else None


def _kept_ratio(tr):
    found = _spans(tr, "oracle.residual_sweep")
    return (sum(s["kept"] for s in found) / sum(s["n_points"] for s in found)
            if found else None)


def _ratio(name, num, den, scale=1.0):
    def fn(tr):
        found = _spans(tr, name)
        return scale * sum(s[num] for s in found) / sum(s[den] for s in found) if found else None
    return fn


def _sum_key(name, key):
    def fn(tr):
        found = _spans(tr, name)
        return sum(s[key] for s in found) if found else None
    return fn


ROWS = [
    ("closed_form.eval_calls", "count", "sweep", lambda tr: tr.calls["profile"]),
    ("closed_form.eval_self_s", "s", "sweep", lambda tr: tr.self_s["profile"]),
    *[(f"closed_form.build_s.{f}", "s", "sweep", _median("closed_form.build", family=f))
      for f in SWEEP_FAMILIES],
    *[(f"closed_form.coeff_calls_per_build.{f}", "count", "sweep",
       _median("closed_form.build", key="coeff_calls", family=f))
      for f in ("quadrature", "vdp_implicit", "vdp_implicit_k1")],
    ("coefficients.field_calls", "count", "sweep", lambda tr: tr.calls["field"]),
    ("coefficients.field_self_s", "s", "sweep", lambda tr: tr.self_s["field"]),
    ("coefficients.coeff_calls", "count", "sweep", lambda tr: tr.count("coeff.")),
    ("coefficients.coeff_self_s", "s", "sweep",
     lambda tr: sum(v for k, v in tr.self_s.items() if k.startswith("coeff."))),
    ("coefficients.synthesize_s", "s", "sweep", _total("coefficients.synthesize")),
    ("coefficients.reduce_s", "s", "sweep", _total("coefficients.reduce")),
    ("geometry.assembly_self_s", "s", "sweep", _sum_key("oracle.residual_sweep", "self")),
    ("geometry.grid_points_s", "s", "sweep", _total("geometry.grid_points")),
    ("geometry.check_prolongation_s", "s", "solvers", _total("geometry.check_prolongation")),
    *[(f"oracle.us_per_point.{f}.m{m}", "us", "sweep",
       lambda tr, f=f, m=m: _per_point(tr, f, m))
      for f in SWEEP_FAMILIES for m in (1, 2, 3)],
    ("oracle.residual_sweep_s", "s", "sweep", _total("oracle.residual_sweep")),
    ("oracle.sweep_kept_ratio", "ratio", "sweep", _kept_ratio),
    ("oracle.ivp_s", "s", "solvers", _total("oracle.ivp")),
    ("oracle.ivp_rhs_calls", "count", "solvers", _sum_key("oracle.ivp", "rhs_calls")),
    ("oracle.chain_check_s", "s", "solvers", _total("oracle.chain_check")),
    ("oracle.ode_residual_s.analytic", "s", "solvers", _total("oracle.ode_residual", mode="analytic")),
    ("oracle.ode_residual_s.fd", "s", "solvers", _total("oracle.ode_residual", mode="fd")),
    ("oracle.decay_s", "s", "solvers", _total("oracle.decay")),
    ("oracle.spectral_solve_s", "s", "solvers", _total("oracle.spectral_solve")),
    ("oracle.residual_estimate_s", "s", "solvers", _total("oracle.residual_estimate")),
    ("series.recurrence_s.N400", "s", "solvers", _total("series.recurrence", N=400)),
    ("series.recurrence_s.N1000", "s", "solvers", _total("series.recurrence", N=1000)),
    ("series.triple_sum_s.N100", "s", "solvers", _total("series.triple_sum", N=100)),
    ("series.radius_s", "s", "solvers", _total("series.radius")),
    ("series.eval_us", "us", "solvers", _ratio("series.evaluate", "dur", "n", 1e6)),
    ("cli.import_s", "s", "cli", _median("cli.import")),
    *[(f"cli.run_s.{lab}", "s", "cli", _total("cli.run", label=lab)) for lab in CLI_LABELS],
    ("cli.serialize_s", "s", "cli", _total("cli.serialize")),
    ("cli.bytes_out", "B", "cli", _sum_key("cli.run", "bytes")),
    ("errors.domain_exceeded", "count", "sweep", lambda tr: tr.raised["profile"]),
    ("trace.overhead_s", "s", None, None),
]

UNITS = {name: unit for name, unit, _, _ in ROWS}
OWNERS = {name: owner for name, _, owner, _ in ROWS}


def _probe(workload, tr, tasks):
    """Measurements taken beside a traced pass, outside its timing."""
    if workload == "sweep":
        workloads.time_grids(tr, tasks)
    elif workload == "cli":
        workloads.cli_probes(tr, tasks)


def per_layer(workload, seed, done, tasks):
    """(values, notes) for every row, from the traced passes in ``done``."""
    own = [tr for traced, _, _, tr in done if traced]
    for tr in own:
        _probe(workload, tr, tasks)
    sources, tiny_attempted, tiny_failed = {workload: own}, 0, 0
    for other in workloads.PASS_RUNNERS:
        if other == workload:
            continue
        tiny = inputs.BUILDERS[other](seed, "tiny")
        tr = tracing.Tracer()
        results = workloads.PASS_RUNNERS[other](tiny, tr)
        attempted, failed, _ = workloads.verdict_checks([(True, 0.0, results, tr)])
        tiny_attempted += attempted
        tiny_failed += failed
        _probe(other, tr, tiny)
        sources[other] = [tr]
    values = {}
    for name, unit, owner, fn in ROWS:
        if owner is None:
            continue
        found = [v for v in (fn(tr) for tr in sources[owner]) if v is not None]
        if not found:
            raise RuntimeError(f"layer row {name} was not measured on {owner}")
        values[name] = statistics.median(found)
        if unit == "count":
            values[name] = round(values[name])
    walls = {t: sum(workloads.per_task_seconds([d for d in done if d[0] is t]).values())
             for t in (False, True)}
    if workload == "cli":
        # the children run untraced; a traced pass only adds one span per invocation
        values["trace.overhead_s"] = len(_spans(own[0], "cli.run")) * tracing.span_cost()
    else:
        # as wall_s: the sum of each task's scaled median, traced against untraced
        values["trace.overhead_s"] = walls[True] - walls[False]
    with open(workloads.WORK / f"spans-{workload}-{seed}.json", "w") as f:
        json.dump({name: [tr.spans for tr in trs] for name, trs in sources.items()}, f)
    notes = {"traced_passes": sum(1 for d in done if d[0]),
             "untraced_passes": sum(1 for d in done if not d[0]),
             "untraced_wall_s": walls[False], "traced_wall_s": walls[True],
             "filled_from_tiny": sorted(o for o in sources if o != workload),
             "tiny_attempted": tiny_attempted, "tiny_failed": tiny_failed}
    return values, notes
