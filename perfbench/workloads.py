"""Running the workloads: set-up probes, closed-loop passes, verdict checks.

The package is imported from ``src`` next to this directory, and every
child process gets that same ``src`` on PYTHONPATH, so a checkout measures
its own code and nothing installed elsewhere.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_SETUP_PROBES = 5
IMPORT_PROBES = 3


def import_package():
    """Import mrayleigh from ./src, refusing any other copy."""
    if not (SRC / "mrayleigh" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'mrayleigh'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mrayleigh
    if Path(mrayleigh.__file__).resolve().parent != (SRC / "mrayleigh").resolve():
        sys.exit(f"error: mrayleigh imported from {mrayleigh.__file__}, not {SRC}")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment():
    """Machine and toolchain facts printed next to the results."""
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "MRAYLEIGH_THREADS")}}


# ---------------------------------------------------------------- set-up

def probe_setup(workload, seed, size):
    """Child side of setup_s: import the package and build the inputs."""
    import_package()
    if workload != "cli":
        import library  # noqa: F401
    inputs.BUILDERS[workload](seed, size)
    print("ready", flush=True)


def setup_probe(workload, seed, size):
    """(seconds from spawning a fresh interpreter to its 'ready' line, scale).

    The cold-start reference is timed on either side of the probe.
    """
    before = calibrate.COLD()
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", workload, "--seed", str(seed), "--size", size,
            "--seconds", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                          env=_child_env(), text=True) as p:
        line = p.stdout.readline()
        dt = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {p.returncode}")
    return dt, calibrate.COLD.scale(before, calibrate.COLD())


# ------------------------------------------------------- in-process passes

def _closed_loop(tasks, tr, ref, run_task):
    """[(label, seconds to verdict, Outcome, scale)], one task at a time.

    ``ref`` is timed before the first task and after every task; a task's
    scale is the reference's nominal time over the mean of the timings on
    either side of it (calibrate.py).
    """
    out, before = [], ref()
    for i, task in enumerate(tasks):
        tr.task = i
        t0 = time.perf_counter()
        res = run_task(task)
        dt = time.perf_counter() - t0
        after = ref()
        out.append((task.label, dt, res, ref.scale(before, after)))
        before = after
    return out


def run_pass(tasks, tr):
    """One closed-loop pass of in-process tasks."""
    import library

    def run_task(task):
        try:
            with tr.span("task", label=task.label):
                return library.RUNNERS[task.kind](tr, task)
        except Exception as e:  # a failed draw is counted, not fatal
            return library.Outcome(False, 0, f"error:{type(e).__name__}",
                                   {"error": f"{type(e).__name__}: {e}"})

    return _closed_loop(tasks, tr, calibrate.CHUNK, run_task)


def time_grids(tr, tasks):
    """Span for enumerating every sweep grid of a pass, outside the pass."""
    import library
    with tr.span("geometry.grid_points"):
        for grid in library.grids_of(tasks):
            for _ in grid.points():
                pass


# ------------------------------------------------------------ cli passes

def _argv_pairs(args):
    """{'--flag': value} from the flat argv of a cli task."""
    out, it = {}, iter(args)
    for tok in it:
        key, eq, val = tok.partition("=")
        out[key] = val if eq else next(it)
    return out


def _check_cli(task, code, blobs):
    """Known answer of one invocation: exit code, row counts, flags."""
    p, ex = task.params, task.expect
    if code != ex["exit"]:
        return False
    try:
        if "rows" in ex:
            csv = blobs.get(f"{p['cmd']}.csv", blobs.get("stdout", b""))
            if csv.count(b"\n") - 1 != ex["rows"]:
                return False
        for key in ("verified", "ok"):
            if key in ex and json.loads(blobs[f"{p['cmd']}.json"])[key] is not ex[key]:
                return False
    except (KeyError, ValueError):
        return False
    return True


def run_cli_task(task):
    """One cold-start invocation, checked; detail carries the child's peak RSS."""
    import library
    p = task.params
    out_dir = WORK / "cli" / task.label
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    argv = [sys.executable, "-m", "mrayleigh.cli", p["cmd"], *p["args"], "--quiet"]
    if p["to_dir"]:
        argv += ["--out", str(out_dir / "out")]
    with open(out_dir / "stdout", "wb") as fo, open(out_dir / "stderr", "wb") as fe:
        child = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=_child_env())
        # wait4 reaps the child and gives its own rusage, not the
        # accumulated RUSAGE_CHILDREN of every earlier child
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    files = sorted((out_dir / "out").glob("*")) if p["to_dir"] else [out_dir / "stdout"]
    blobs = {f.name: f.read_bytes() for f in files}
    dig = library.Digest()
    dig.add(child.returncode, sorted(blobs.items()))
    ok = _check_cli(task, child.returncode, blobs)
    csv = blobs.get(f"{p['cmd']}.csv", b"")
    points = csv.count(b"\n") - 1 if p["cmd"] in ("verify", "prolong") and csv else 0
    detail = {"exit": child.returncode, "bytes": sum(map(len, blobs.values())),
              "maxrss_kib": usage.ru_maxrss}
    if not ok:
        detail["stderr"] = (out_dir / "stderr").read_text(errors="replace")[-400:]
    return library.Outcome(ok, points, dig.hexdigest(), detail)


def run_cli_pass(tasks, tr):
    """One closed-loop pass of cold-start invocations."""
    def run_task(task):
        with tr.span("cli.run", label=task.label) as rec:
            res = run_cli_task(task)
            rec["bytes"] = res.detail["bytes"]
        return res

    return _closed_loop(tasks, tr, calibrate.COLD, run_task)


def cli_probes(tr, tasks):
    """cli rows measured beside the passes: fresh import and serialization."""
    code = ("import time; t = time.perf_counter(); import mrayleigh.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_PROBES):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, cwd=ROOT, env=_child_env(), check=True)
        tr.spans.append({"name": "cli.import", "dur": float(r.stdout), "task": None})
    import numpy as np
    from mrayleigh import cli
    from mrayleigh.closed_form import vdp_explicit
    task = next(t for t in tasks if t.label == "profile_csv")
    a = _argv_pairs(task.params["args"])
    prof = vdp_explicit(float(a["--a"]), float(a["--c"]), float(a["--d"]), float(a["--K"]))
    z, phi, dphi = prof.sample(np.linspace(float(a["--zmin"]), float(a["--zmax"]),
                                           int(a["--n"])))
    rows = [[zi, pi, di] for zi, pi, di in zip(z, phi, dphi)]
    with tr.span("cli.serialize", n=len(rows)):
        cli.csv_text(["z", "phi", "phi_prime"], rows)
        cli.dumps(prof.to_json_dict())


PASS_RUNNERS = {"sweep": run_pass, "solvers": run_pass, "cli": run_cli_pass}


# ------------------------------------------------------------- measuring

def passes(workload, tasks, seconds, traced_too=False, between=None):
    """Run whole passes until the next would overrun ``seconds`` of passes.

    Returns [(traced, wall seconds, results, tracer)].  With ``traced_too``
    untraced and traced passes alternate, at least one of each.
    ``between()`` runs before the first pass, after the last, and after
    any pass that ends a sixth of ``seconds`` or more since it last ran;
    its time does not count against ``seconds``.
    """
    run_one = PASS_RUNNERS[workload]
    done, spent, since = [], 0.0, 0.0
    if between:
        between()
    while True:
        traced = traced_too and len(done) % 2 == 1
        tr = tracing.Tracer() if traced else tracing.NullTracer()
        t0 = time.perf_counter()
        results = run_one(tasks, tr)
        wall = time.perf_counter() - t0
        done.append((traced, wall, results, tr))
        spent += wall
        since += wall
        last = (spent + statistics.median(d[1] for d in done) > seconds
                and len(done) >= (2 if traced_too else 1))
        if between and (last or since >= seconds / 6):
            between()
            since = 0.0
        if last:
            return done


def per_task_seconds(done, scaled=True):
    """{label: median over ``done``'s passes of that task's seconds to verdict}.

    Scaled seconds (calibrate.py) by default; ``scaled=False`` gives the
    seconds as timed.
    """
    times = {}
    for _, _, results, _ in done:
        for label, dt, _, scale in results:
            times.setdefault(label, []).append(dt * scale if scaled else dt)
    return {label: statistics.median(ts) for label, ts in times.items()}


def verdict_checks(done, reference=None):
    """(attempted, failed, consistent) over passes.

    failed counts tasks whose verdict differs from the known answer;
    consistent says every pass reproduced the reference digests (default:
    the first pass's), i.e. identical residuals, verdicts and output bytes.
    """
    ref = reference or {lab: r.digest for lab, _, r, _ in done[0][2]}
    attempted = failed = 0
    consistent = True
    for _, _, results, _ in done:
        for label, _, res, _ in results:
            attempted += 1
            if not res.ok:
                failed += 1
                print(f"failed task {label}: {res.detail}", file=sys.stderr)
            consistent &= res.digest == ref.get(label)
    return attempted, failed, consistent
