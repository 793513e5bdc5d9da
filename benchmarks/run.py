"""Cold, per-command benchmark of the qtoda command line.

    python3 benchmarks/run.py --workload lax-exact --seed 1 --seconds 36 --trace 0

Each workload is a fixed sequence of jobs.  Every job runs in a fresh
interpreter, one after another, from this single process: a closed loop with
one client, no threads and no parallel children.  Cold processes are the
point: the program's process-wide caches (the exact-division memo and the
lru_caches) would otherwise make a job's cost depend on what ran before it.

Without --trace, whole passes over the sequence repeat, as many as bring
the measured span closest to --seconds (at least one).  Each job runs
pinned to one CPU, whose speed a fixed loop measures before, during and
after the job; the job's time and set-up time are scaled to the reference
speed by it (see README.md, Estimator).  The end-to-end metrics sum each
job's median over the passes.  With --trace 1, one untraced pass is
followed by one traced pass (see tracing.py), and the per-layer metrics are
reported.

Every job's output is checked; a job that exits non-zero, reports
"passed": false or misses its check counts as failed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Everything above it is for people.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_tmp"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
MAX_DRIFT = 1e-8  # criterion 7: relative drift of the first three invariants
ORDER_RATIO = (8.0, 32.0)  # criterion 7: halving dt improves the drift by this factor


@dataclass(frozen=True)
class Job:
    name: str  # also the stem of the reference file, for "reference" checks
    command: str  # per-command metric <command>_s
    argv: tuple[str, ...]  # qtoda arguments; --out / --out-csv are added per run
    check: str  # "reference", "simulate" or "oracle"
    site_steps: int = 0  # refined sites x RK4 steps, the dt/2 rerun included


# The jobs keep the paper's settings (truncation orders, weights, criterion
# 7's lattice) at sizes of one to three seconds each, so that a run repeats
# every job several times; only the oracle's rational state is sampled from
# the seed.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    # The operator path: DiffOp products and inverses over q-field sums with
    # polynomial denominators, on both sign branches.
    "lax-exact": (
        Job("laxcheck-a1-b1-t6", "laxcheck",
            ("laxcheck", "--a", "1", "--b", "1", "--T", "6", "--deg", "4"), "reference"),
        Job("laxcheck-a2-b1-neg-t6", "laxcheck",
            ("laxcheck", "--a", "2", "--b", "1", "--sign", "-1", "--T", "6"), "reference"),
    ),
    # The same q-field layer used for products and cross-multiplied
    # equality, plus Schur determinants, vertex forms and a report of 0.1 MB.
    "vertex-identities": (
        Job("identities-w6", "identities",
            ("identities", "--weight", "6", "--weight-sym", "5", "--weight-schur", "5",
             "--shift-check"), "reference"),
        Job("tau-a1-b2-d7", "tau", ("tau", "--a", "1", "--b", "2", "--deg", "7"), "reference"),
    ),
    # Numeric banded flows with no q-field at all, on 24 and 60 refined
    # sites, plus the exact symbolic-stencil oracle (SitePoly operators).
    "lattice-flows": (
        Job("simulate-a1-b1", "simulate",
            ("simulate", "--a", "1", "--b", "1", "--sites", "12", "--dt", "1e-3",
             "--t-end", "3", "--amplitude", "0.85", "--order-check"),
            "simulate", site_steps=24 * (3_000 + 6_000)),
        Job("simulate-a2-b3", "simulate",
            ("simulate", "--a", "2", "--b", "3", "--sites", "12", "--dt", "1e-3",
             "--t-end", "1", "--amplitude", "0.3"),
            "simulate", site_steps=60 * 1_000),
        Job("oracle-a2-b3-k3", "oracle", (), "oracle"),
    ),
}
COMMANDS = ("laxcheck", "identities", "tau", "simulate", "oracle")

# Per-layer metrics (see tracing.py for what each span wraps).
SPANS_CALLS_AND_SELF = (
    "qfield.elem_add", "qfield.elem_sum", "qfield.elem_mul", "qfield.elem_eq",
    "qfield.powersum_mul", "qfield.div_probe",
    "schur.schur", "schur.skew_schur", "schur.specialize_eval",
    "vertex.vertex_def", "vertex.vertex_hook", "vertex.tau_table",
    "opalg.op_mul", "opalg.op_add", "opalg.op_inverse",
    "volterra.flow_rhs", "volterra.banded_mul", "volterra.conserved_quantities",
    "volterra.symbolic_flow_stencil",
)
SPANS_CALLS = ("opalg.initial_lax", "opalg.initial_M", "opalg.cross_check_initial")
SPANS_SELF = ("suites.laxcheck_suite", "suites.identity_suite")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SPANS_CALLS_AND_SELF:
        out += [(span + ".calls", "count", "lower"), (span + ".self_s", "s", "lower")]
    out.append(("qfield.div_probe.hit_ratio", "ratio", "higher"))
    out += [("qfield.max_num_terms", "count", "lower"), ("qfield.max_den_terms", "count", "lower")]
    out += [(span + ".calls", "count", "lower") for span in SPANS_CALLS]
    out += [(span + ".self_s", "s", "lower") for span in SPANS_SELF]
    out.append(("cli.self_s", "s", "lower"))
    out += [(cmd + "_s", "s", "lower") for cmd in COMMANDS]
    out.append(("site_steps_per_s", "1/s", "higher"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def without_timestamp(text: str) -> str | None:
    """The report without its generated_at line (the second line), or None
    when the second line is not the timestamp."""
    lines = text.splitlines(keepends=True)
    if len(lines) < 2 or not lines[1].startswith('  "generated_at": '):
        return None
    return "".join(lines[:1] + lines[2:])


def compare_to_reference(text: str, reference: str) -> str | None:
    """None when the report equals the reference modulo the timestamp line,
    else the reason it does not."""
    body = without_timestamp(text)
    if body is None:
        return "report has no generated_at line"
    if body == reference:
        return None
    got, want = body.splitlines(), reference.splitlines()
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return f"differs from the reference at line {lineno}: {g.strip()[:80]!r}"
    return f"differs from the reference in length ({len(got)} vs {len(want)} lines)"


def check_simulate(report: dict, order_check: bool) -> str | None:
    drift = report["max_relative_drift"]
    if not drift < MAX_DRIFT:
        return f"max_relative_drift {drift} >= {MAX_DRIFT}"
    if order_check:
        ratio = report["order_check_ratio"]
        if not ORDER_RATIO[0] <= ratio <= ORDER_RATIO[1]:
            return f"order_check_ratio {ratio} outside {list(ORDER_RATIO)}"
    return None


def check_job(job: Job, exit_code: int, child: dict, out: Path) -> str | None:
    """None when the job passed, else why it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if job.check == "oracle":
        return None if child["oracle_equal"] else "flow_rhs differs from the symbolic stencil"
    if not out.is_file():
        return "no report written"
    text = out.read_text(encoding="utf-8")
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if report.get("passed") is False:
        return 'report says "passed": false'
    if job.check == "simulate":
        return check_simulate(report, order_check="--order-check" in job.argv)
    reference = REFERENCE / f"{job.name}.json"
    if not reference.is_file():
        return f"no reference file {reference.name}"
    return compare_to_reference(text, reference.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("QTODA_PRECISION_BITS", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


# Jobs take turns on the first CPUs this process may use, pinned, so that
# each job and its speed probes run on the same CPU.
ALLOWED = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
CPUS = sorted(ALLOWED)[:8]
_turns = itertools.count()

# The speed probe: a fixed loop of about 0.6 ms, run on the job's CPU before
# the job, every PROBE_EVERY_S while it runs and after it.  PROBE_REF_S is
# what the loop takes on the reference machine when no other tenant of the
# host is busy; job and set-up times are scaled to that speed.
PROBE_REF_S = 0.0006
PROBE_EVERY_S = 0.1


def _spin() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


def probe_times(reps: int) -> list[float]:
    """How fast this CPU runs just now: the times of `reps` runs of the loop."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        _spin()
        times.append(time.perf_counter() - t)
    return times


@dataclass
class JobRun:
    job: Job
    setup_s: float
    exit_code: int | None = None
    job_s: float | None = None
    probe_s: float | None = None  # harmonic mean of the speed probes around and during it
    rss_mib: float | None = None
    failure: str | None = None
    trace: dict | None = None
    out: Path | None = None


def run_job(job: Job, workdir: Path, seed: int, deadline: float, *,
            trace: bool = False, setup_only: bool = False, extra_argv=()) -> JobRun:
    """Spawn one fresh interpreter for the job and wait for it."""
    result_path = workdir / f"{job.name}.result.json"
    result_path.unlink(missing_ok=True)
    out = workdir / f"{job.name}.json"
    argv = list(job.argv) + list(extra_argv)
    if job.check != "oracle":
        argv += ["--out", str(out)]
    if job.command == "simulate":
        argv += ["--out-csv", str(workdir / f"{job.name}.csv")]
    spec = {"src": str(SRC), "kind": "oracle" if job.check == "oracle" else "cli",
            "argv": argv, "seed": seed, "trace": trace, "setup_only": setup_only,
            "result": str(result_path)}
    cpu = CPUS[next(_turns) % len(CPUS)] if CPUS else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the child inherits it
    try:
        return _spawn(job, spec, workdir, out, deadline)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, ALLOWED)


def _spawn(job: Job, spec: dict, workdir: Path, out: Path, deadline: float) -> JobRun:
    result_path = Path(spec["result"])
    stderr_path = result_path.with_suffix(".stderr")
    probes = probe_times(16)
    spawned = time.monotonic()
    limit = spawned + max(deadline - spawned, 1.0)
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr,
        )
    try:
        while True:
            try:
                proc.wait(timeout=PROBE_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > limit:
                    raise
                # Shares the job's CPU for under 1% of the time.
                probes += probe_times(1)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return JobRun(job, setup_s=0.0, failure="timed out")
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    probes += probe_times(16)
    if proc.returncode != 0 or not result_path.exists():
        tail = stderr_path.read_text(encoding="utf-8").strip().splitlines()[-1:] or [""]
        return JobRun(job, setup_s=0.0,
                      failure=f"child exited with {proc.returncode}: {tail[0][:200]}")
    child = json.loads(result_path.read_text(encoding="utf-8"))
    run = JobRun(job, setup_s=child["start"] - spawned, probe_s=statistics.harmonic_mean(probes),
                 rss_mib=child["maxrss_kib"] / 1024.0, trace=child.get("trace"), out=out)
    if not spec["setup_only"]:
        run.exit_code = child["exit_code"]
        run.job_s = child["end"] - child["start"]
        run.failure = check_job(job, child["exit_code"], child, out)
    return run


def run_pass(jobs, workdir: Path, seed: int, deadline: float, trace: bool = False) -> list[JobRun]:
    """One pass over the jobs."""
    runs = []
    for job in jobs:
        run = run_job(job, workdir, seed, deadline, trace=trace)
        runs.append(run)
        if run.failure == "timed out":
            break
    return runs


def run_metrics(passes: list[list[JobRun]], scale: bool = True) -> dict[str, float]:
    """End-to-end and per-command figures of one or more passes over the
    jobs.  A job's time and set-up time are their medians over the passes,
    each first scaled to the reference speed by the speed probes around it
    (see README.md, Estimator); with scale=False, as measured."""
    done: dict[Job, list[JobRun]] = {}
    for runs in passes:
        for r in runs:
            if r.job_s is not None:
                done.setdefault(r.job, []).append(r)

    def median(rs, attr):
        return statistics.median(getattr(r, attr) * (PROBE_REF_S / r.probe_s if scale else 1.0)
                                 for r in rs)

    job_s = {job: median(rs, "job_s") for job, rs in done.items()}
    m = {
        "wall_s": sum(job_s.values()),
        "setup_s": sum(median(rs, "setup_s") for rs in done.values()),
        "peak_rss_mib": max((r.rss_mib for rs in done.values() for r in rs), default=0.0),
    }
    for cmd in COMMANDS:
        m[cmd + "_s"] = sum(t for job, t in job_s.items() if job.command == cmd)
    steps = sum(job.site_steps for job in done)
    m["site_steps_per_s"] = steps / m["simulate_s"] if m["simulate_s"] else 0.0
    return m


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def aggregate_trace(runs: list[JobRun]) -> tuple[dict, dict, dict, set]:
    """Sum the jobs' spans by name and by (name, parent), and their counters;
    and the names of the spans that were installed in any job."""
    by_name: dict[str, list] = {}
    by_edge: dict[tuple, list] = {}
    counters: dict[str, int] = {}
    installed: set[str] = set()
    for run in runs:
        if run.trace is None:
            continue
        installed.update(run.trace["installed"])
        for span in run.trace["spans"]:
            for table, key in ((by_name, span["name"]), (by_edge, (span["name"], span["parent"]))):
                rec = table.setdefault(key, [0, 0.0, 0.0])
                rec[0] += span["calls"]
                rec[1] += span["total_s"]
                rec[2] += span["self_s"]
        for key, value in run.trace["counters"].items():
            old = counters.get(key, 0)
            counters[key] = max(old, value) if key.startswith("max_") else old + value
    return by_name, by_edge, counters, installed


def layer_metrics(by_name: dict, counters: dict, installed: set, untraced: dict,
                  traced_wall: float) -> dict:
    """The per-layer metrics.  A span installed but never called reads 0; one
    the program no longer has (see tracing.py) is left out, as are counters
    that could not be read, so that "absent" never reads as "free"."""
    def calls(span):
        return by_name.get(span, [0, 0.0, 0.0])[0]

    def self_s(span):
        return by_name.get(span, [0, 0.0, 0.0])[2]

    m = {}
    for span in SPANS_CALLS_AND_SELF:
        if span in installed:
            m[span + ".calls"] = calls(span)
            m[span + ".self_s"] = self_s(span)
    if "div_probe_hits" in counters:
        probes = calls("qfield.div_probe")
        m["qfield.div_probe.hit_ratio"] = counters["div_probe_hits"] / probes if probes else 0.0
    for key in ("max_num_terms", "max_den_terms"):
        if key in counters:
            m["qfield." + key] = counters[key]
    for span in SPANS_CALLS:
        if span in installed:
            m[span + ".calls"] = calls(span)
    for span in SPANS_SELF:
        if span in installed:
            m[span + ".self_s"] = self_s(span)
    m["cli.self_s"] = sum(rec[2] for name, rec in by_name.items() if name.startswith("cli."))
    for cmd in COMMANDS:
        m[cmd + "_s"] = untraced[cmd + "_s"]
    m["site_steps_per_s"] = untraced["site_steps_per_s"]
    m["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1.0 if untraced["wall_s"] else 0.0
    return m


def print_trace_table(by_edge: dict, limit: int = 40):
    print(f"spans by self time (top {limit}); self = duration minus child spans")
    print(f"  {'span':<36} {'parent':<32} {'calls':>9} {'total_s':>9} {'self_s':>9}")
    rows = sorted(by_edge.items(), key=lambda kv: kv[1][2], reverse=True)
    for (name, parent), (n, total, self_time) in rows[:limit]:
        print(f"  {name:<36} {str(parent):<32} {n:>9} {total:>9.3f} {self_time:>9.3f}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qtoda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def measure(jobs, workdir: Path, seed: int, seconds: int, deadline: float):
    """Whole untraced passes, as many as bring the measured span closest to
    `seconds` (at least one)."""
    passes: list[list[JobRun]] = []
    started = time.monotonic()
    while True:
        passes.append(run_pass(jobs, workdir, seed, deadline))
        now = time.monotonic()
        per_pass = (now - started) / len(passes)
        if (now - started + per_pass / 2 >= seconds or now + per_pass > deadline - 10.0
                or any(r.failure == "timed out" for r in passes[-1])):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qtoda" / "cli.py").is_file():
        print(f"error: no qtoda sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, so the running child is killed and the
    # work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    jobs = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    print("environment " + json.dumps(environment(args.workload, args.seed)), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # Unmeasured: compiles the bytecode of a fresh checkout and fails
        # fast when the package cannot be imported.
        warm = run_job(jobs[0], workdir, args.seed, deadline, setup_only=True)
        if warm.failure is not None:
            print(f"error: cannot start a job: {warm.failure}", file=sys.stderr)
            return 2
        if args.trace:
            return traced_run(jobs, workdir, args.seed, deadline)
        return untraced_run(jobs, workdir, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def report_jobs(passes: list[list[JobRun]]) -> tuple[int, int]:
    attempted = failed = 0
    for i, runs in enumerate(passes, start=1):
        for r in runs:
            attempted += 1
            failed += r.failure is not None
            took = "-" if r.job_s is None else f"{r.job_s:.3f} s"
            rss = "-" if r.rss_mib is None else f"{r.rss_mib:.1f} MiB"
            status = "ok" if r.failure is None else "FAILED: " + r.failure
            probe = "-" if r.probe_s is None else f"{r.probe_s * 1e3:.3f} ms"
            print(f"pass {i} job {r.job.name:<20} {took:>10}  setup {r.setup_s:.3f} s"
                  f"  probe {probe:>8}  rss {rss:>10}  {status}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs failed)")
    return attempted, failed


def untraced_run(jobs, workdir: Path, seed: int, seconds: int, deadline: float) -> int:
    passes = measure(jobs, workdir, seed, seconds, deadline)
    attempted, failed = report_jobs(passes)
    m = run_metrics(passes)
    raw = run_metrics(passes, scale=False)
    print(f"as measured, medians over {len(passes)} passes: wall_s {raw['wall_s']:.4f} s, "
          f"setup_s {raw['setup_s']:.4f} s")
    print(f"scaled to the reference speed, medians over {len(passes)} passes:")
    for name, unit in END_TO_END:
        print(f"{name} {m[name]:.4f} {unit}")
    for cmd in COMMANDS:
        if m[cmd + "_s"]:
            print(f"{cmd}_s {m[cmd + '_s']:.4f} s")
    if m["site_steps_per_s"]:
        print(f"site_steps_per_s {m['site_steps_per_s']:.1f} 1/s")
    print("all work runs in one thread in one process at a time, so no job waits on another")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}}
    print(json.dumps(result))
    return 0


def traced_run(jobs, workdir: Path, seed: int, deadline: float) -> int:
    untraced = run_pass(jobs, workdir, seed, deadline)
    traced = run_pass(jobs, workdir, seed, deadline, trace=True)
    attempted, failed = report_jobs([untraced, traced])
    base = run_metrics([untraced])
    traced_wall = run_metrics([traced])["wall_s"]
    by_name, by_edge, counters, installed = aggregate_trace(traced)
    print_trace_table(by_edge)
    metrics = layer_metrics(by_name, counters, installed, base, traced_wall)
    layer = [(name, unit) for name, unit, _ in per_layer_metrics() if name in metrics]
    for name, unit in layer:
        print(f"{name} {metrics[name]:.6g} {unit}")
    absent = [name for name, _, _ in per_layer_metrics() if name not in metrics]
    if absent:
        print("not reported, the program no longer has what they measure: " + ", ".join(absent))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in layer}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
