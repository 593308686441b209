"""mrayleigh benchmark: seeded closed-loop workloads with checked verdicts.

    python3 perfbench/run.py --workload sweep|solvers|cli --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout; the package is imported from its
./src.  One client, single process, single-threaded: the next task starts
when the last task's verdict is in.  Whole passes over the workload's fixed
task list repeat until the next pass would overrun --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (NOTES.md).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS/OpenMP thread, and the serial sweep
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MRAYLEIGH_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "verdict_p50_s": "s",
             "verdict_p90_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}


def _median_quartiles(xs):
    return [statistics.median(xs)] + (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else [])


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(workload, done, setup):
    """The end-to-end metrics of an untraced run, and notes on their samples.

    Times are scaled to the reference speed (calibrate.py).  wall_s is one
    pass over the task list: the sum over tasks of each task's median
    scaled repeat (workloads.per_task_seconds).  verdict_p50_s and
    verdict_p90_s are quantiles of every scaled repeat of the run pooled,
    interpolated between samples (cli pools only about 21).  setup_s is the
    median of the scaled set-up probes spread over the run.  The notes keep
    the same figures unscaled and the scales.
    """
    scaled = workloads.per_task_seconds(done)
    raw = workloads.per_task_seconds(done, scaled=False)
    wall = sum(scaled.values())
    repeats = [r for _, _, results, _ in done for r in results]
    pooled = [dt * scale for _, dt, _, scale in repeats]
    if workload == "cli":
        rss_kib = max(r.detail["maxrss_kib"] for _, _, r, _ in repeats)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(dt * scale for dt, scale in setup),
        "wall_s": wall,
        "verdict_p50_s": statistics.median(pooled),
        "verdict_p90_s": _p90(pooled),
        "points_per_s": sum(r.points for _, _, r, _ in done[0][2]) / wall,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    unscaled = [dt for _, dt, _, _ in repeats]
    notes = {"passes": len(done), "tasks": len(scaled), "verdict_samples": len(pooled),
             "setup_probes": len(setup),
             "unscaled_setup_median_quartiles": _median_quartiles([dt for dt, _ in setup]),
             "unscaled_wall_s": sum(raw.values()),
             "unscaled_verdict_p50_p90": [statistics.median(unscaled), _p90(unscaled)],
             "scale_median_quartiles": _median_quartiles([s for *_, s in repeats]),
             "setup_scale_median_quartiles": _median_quartiles([s for _, s in setup]),
             "pass_wall_median_quartiles": _median_quartiles([d[1] for d in done])}
    return values, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(inputs.BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every task (smoke test)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.probe_setup:
        workloads.probe_setup(ns.workload, ns.seed, ns.size)
        return 0

    workloads.import_package()
    import layers
    workloads.WORK.mkdir(exist_ok=True)
    print("env " + json.dumps(workloads.environment(), sort_keys=True))
    tasks = inputs.BUILDERS[ns.workload](ns.seed, ns.size)

    # untimed pass at the tiny size: fills .pyc caches and lazy imports
    warm = workloads.PASS_RUNNERS[ns.workload](inputs.BUILDERS[ns.workload](ns.seed, "tiny"),
                                               tracing.NullTracer())
    warm_failed = workloads.verdict_checks([(False, 0.0, warm, None)])[1]

    if ns.trace == 0:
        setup = []

        def probe():
            setup.append(workloads.setup_probe(ns.workload, ns.seed, ns.size))

        done = workloads.passes(ns.workload, tasks, ns.seconds, between=probe)
        while len(setup) < workloads.MIN_SETUP_PROBES:
            probe()
        attempted, failed, consistent = workloads.verdict_checks(done)
        values, notes = end_to_end(ns.workload, done, setup)
        with open(workloads.WORK / f"samples-{ns.workload}-{ns.seed}.json", "w") as f:
            json.dump({"setup": setup,
                       "passes": [{"wall": wall, "tasks": [[lab, dt, scale]
                                                           for lab, dt, _, scale in res]}
                                  for _, wall, res, _ in done]}, f)
        units = E2E_UNITS
        notes.update(fail_ratio=failed / attempted, repeatable=consistent)
    else:
        done = workloads.passes(ns.workload, tasks, ns.seconds, traced_too=True)
        untraced = next(results for traced, _, results, _ in done if not traced)
        attempted, failed, consistent = workloads.verdict_checks(
            done, {label: r.digest for label, _, r, _ in untraced})
        values, notes = layers.per_layer(ns.workload, ns.seed, done, tasks)
        units = layers.UNITS
        notes.update(fail_ratio=failed / attempted, transparent=consistent)
        attempted += notes["tiny_attempted"]
        failed += notes["tiny_failed"]

    correct = consistent and failed == 0 and warm_failed == 0
    for name, v in values.items():
        owner = layers.OWNERS.get(name) if ns.trace else None
        tag = f"  (from a tiny {owner} pass)" if owner not in (None, ns.workload) else ""
        print(f"{ns.workload} {name} {v!r} {units[name]}{tag}")
    print(f"{ns.workload} notes " + json.dumps(notes, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
