"""Command-line interface: outputs, exit codes, determinism, config file."""

import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qtoda import cli, schur, volterra
from qtoda.cli import main
from qtoda.errors import TruncationInsufficient
from qtoda import opalg
from qtoda.opalg import LaxSession, SitePoly
from qtoda.qfield import QFieldElem, qpow
from qtoda.vertex import VertexContext
from qtoda.volterra import LatticeState, flow_rhs, stencil_apply, symbolic_flow_stencil
from test_opalg import damage_entry

RUN = [sys.executable, "-m", "qtoda.cli"]
REPO = Path(__file__).resolve().parents[1]


def run_cli(args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(RUN + args, env=env, capture_output=True, text=True)


def strip_timestamp_json(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


def test_schur_command_prints_polynomial(capsys):
    assert main(["schur", "--mu", "[2,1]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/3*p1^3 - 1/3*p3"


def test_skew_schur_command(capsys):
    assert main(["schur", "--mu", "[2]", "--nu", "[1]"]) == 0
    assert capsys.readouterr().out.strip() == "p1"


def test_vertex_command_difference_zero(capsys):
    assert main(["vertex", "--nu", "[2]", "--nubar", "[1]"]) == 0
    out = capsys.readouterr().out
    assert "difference:    0" in out


def test_vertex_empty_prints_one(capsys):
    assert main(["vertex", "--nu", "[]", "--nubar", "[]"]) == 0
    out = capsys.readouterr().out
    assert "defining form: 1" in out


def test_an_empty_inner_partition_keeps_its_report(capsys):
    # the empty partition is falsy; the report still names it
    assert main(["schur", "--mu", "[2,1]", "--nu", "[]", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["nu"], doc["polynomial"]) == ("[]", "1/3*p1^3 - 1/3*p3")


def test_the_vertex_of_two_empty_partitions_is_one(capsys):
    assert main(["vertex", "--nu", "[]", "--nubar", "[]", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["defining_form"], doc["hook_sum_form"], doc["difference"], doc["equal"]) == (
        "1", "1", "0", True)


@pytest.mark.parametrize("argv, flag", [
    (["schur", "--mu"], "--mu"),
    (["vertex", "--nubar", "[]", "--nu"], "--nu"),
], ids=["schur", "vertex"])
@pytest.mark.parametrize("text, message", [
    ("[1,2]", "parts not non-increasing: (1, 2)"),
    ("[-1]", "negative part in (-1,)"),
    ("[x]", "invalid literal for int() with base 10: 'x'"),
    ("[1,,2]", "invalid literal for int() with base 10: ''"),
    ("[3,0,1]", "parts not non-increasing: (3, 0, 1)"),
])
def test_a_malformed_partition_is_a_usage_error(tmp_path, capsys, argv, flag, text, message):
    # an interior zero is refused, not dropped: [3,0,1] is not [3,1]
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + [text, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    usage, *rest = capsys.readouterr().err.splitlines()
    assert usage.startswith(f"usage: qtoda {argv[0]} ")
    assert rest == [f"qtoda {argv[0]}: error: argument {flag}: {message}"]


def test_tau_degree_zero_single_entry(tmp_path):
    out = tmp_path / "tau.json"
    assert main(["tau", "--a", "1", "--b", "1", "--deg", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert list(doc["entries"]) == ["[]|[]"]
    assert doc["entries"]["[]|[]"] == "1"


def test_tau_rejects_noncoprime(capsys):
    assert main(["tau", "--a", "2", "--b", "4", "--deg", "1"]) == 2
    capsys.readouterr()
    # a sign -1 type with a < b is refused, as laxcheck refuses it
    assert main(["tau", "--a", "1", "--b", "2", "--sign", "-1", "--deg", "1"]) == 2
    assert "negative sign requires a > b" in capsys.readouterr().err


def test_identities_small_pass(tmp_path):
    out = tmp_path / "id.json"
    assert main([
        "identities", "--weight", "2", "--weight-sym", "2", "--weight-schur", "2",
        "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_identities_weight_zero_vacuous_pass(tmp_path):
    out = tmp_path / "id0.json"
    assert main([
        "identities", "--weight", "0", "--weight-sym", "0", "--weight-schur", "0",
        "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_identities_corrupted_build_fails(tmp_path):
    out = tmp_path / "id.json"
    code = main([
        "identities", "--weight", "2", "--weight-sym", "1", "--weight-schur", "1",
        "--self-test-corrupt", "--out", str(out),
    ])
    assert code == 1
    doc = json.loads(out.read_text())
    bad = [c for c in doc["checks"] if not c["passed"]]
    assert bad and bad[0]["detail"]  # counterexample recorded


def test_laxcheck_small(tmp_path):
    out = tmp_path / "lax.json"
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "fractional_powers_cancel" in names
    assert "integerized_power_identity" in names


def test_laxcheck_exit_code_on_noncoprime():
    assert main(["laxcheck", "--a", "2", "--b", "2", "--T", "2"]) == 2


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the command did work before rejecting its options")


def test_laxcheck_rejects_flow_zero(monkeypatch, capsys):
    monkeypatch.setattr(cli, "laxcheck_suite", _fail_if_called)
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--flow", "0"]) == 2
    assert "--flow 0 must be >= 1" in capsys.readouterr().err


def test_laxcheck_rejects_higher_flow_without_deg(monkeypatch, capsys):
    # without --deg no check runs a flow other than the first
    monkeypatch.setattr(cli, "laxcheck_suite", _fail_if_called)
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--flow", "3"]) == 2
    assert "--flow 3 needs --deg" in capsys.readouterr().err


def test_laxcheck_rejects_negative_deg(monkeypatch, capsys):
    monkeypatch.setattr(cli, "laxcheck_suite", _fail_if_called)
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--deg", "-1"]) == 2
    assert "--deg -1 must be >= 0 (0 skips the cross-check)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, stage", [
    (["tau", "--a", "1", "--b", "1", "--deg", "-1"], "tau_table"),
    (["identities", "--weight", "-1"], "identity_suite"),
    (["identities", "--weight-sym", "-1"], "identity_suite"),
    (["identities", "--weight-schur", "-1"], "identity_suite"),
], ids=["tau --deg", "--weight", "--weight-sym", "--weight-schur"])
def test_a_negative_size_is_refused_by_its_option_name(monkeypatch, capsys, argv, stage):
    monkeypatch.setattr(cli, stage, _fail_if_called)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {argv[-2]} -1 must be >= 0\n"


@pytest.mark.parametrize("argv, target", [
    (["schur", "--mu", "[1]", "--out"], "missing/x.json"),
    (["simulate", "--t-end", "0.01", "--out-csv"], "."),
], ids=["schur --out in a missing directory", "simulate --out-csv a directory"])
def test_an_unwritable_output_path_exits_2_with_one_line(tmp_path, argv, target):
    # exit 1 means a failed verification; a path that cannot be written is a usage error
    done = run_cli(argv + [str(tmp_path / target)])
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), done.stderr


@pytest.mark.parametrize("flow,deg", [(1, 2), (1, 1), (2, 3)])
def test_laxcheck_rejects_deg_below_flow_plus_2(monkeypatch, capsys, flow, deg):
    # the cross-check needs a tau table of degree flow + 2 or more
    monkeypatch.setattr(cli, "laxcheck_suite", _fail_if_called)
    argv = ["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--flow", str(flow), "--deg", str(deg)]
    assert main(argv) == 2
    assert f"--deg {deg} must be 0 or >= {flow + 2} for --flow {flow}" in capsys.readouterr().err


def test_laxcheck_program_error_in_orlov_build_exits_2(monkeypatch):
    # a program error is a usage/program failure (2), not a failed check (1)
    def truncated(session):
        raise TruncationInsufficient("injected truncation failure")

    monkeypatch.setattr(LaxSession, "orlov", property(truncated))
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "3"]) == 2


def test_laxcheck_wrong_closed_form_inverse_exits_2(monkeypatch, capsys):
    # a wrong closed form is a program error, caught by the session's certification
    h = opalg.complete_geometric
    extra = qpow(1)
    monkeypatch.setattr(opalg, "complete_geometric", lambda n: h(n) + extra if n == 4 else h(n))
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "4"]) == 2
    assert "W0 inverse: first offending coefficient at power -4: " in capsys.readouterr().err


def test_laxcheck_wrong_tau_table_entry_exits_2(monkeypatch, capsys):
    # entry((d), empty) of a degree-d table is the deepest coefficient of the
    # tau-route W inverse; its certification is a program error, not a check
    damage_entry(monkeypatch, (4,), ())
    assert main(["laxcheck", "--a", "1", "--b", "1", "--T", "4", "--deg", "4"]) == 2
    err = capsys.readouterr().err
    assert "tau-route W inverse: first offending coefficient at power -4: " in err


def load_benchmark(stem):
    """Import benchmarks/<stem>.py, which is not a package module."""
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{stem}", REPO / "benchmarks" / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["laxcheck-a1-b1-t6", "laxcheck-a2-b1-neg-t6", "identities-w6", "tau-a1-b2-d7"]
)
def test_exact_benchmark_job_matches_its_reference(name, tmp_path):
    # the benchmark's exact jobs, in-process, against its references, so a
    # report change shows up in the tests and not only in a benchmark run
    bench = load_benchmark("run")
    (job,) = [j for jobs in bench.WORKLOADS.values() for j in jobs if j.name == name]
    out = tmp_path / f"{name}.json"
    assert main(list(job.argv) + ["--out", str(out)]) == 0
    reference = (bench.REFERENCE / f"{name}.json").read_text(encoding="utf-8")
    assert bench.compare_to_reference(out.read_text(encoding="utf-8"), reference) is None


def test_the_benchmark_self_test_passes():
    # the negative controls of the benchmark's own checks
    done = subprocess.run([sys.executable, str(REPO / "benchmarks" / "selftest.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv, golden", [
    # the Schur weight above every vertex weight, and every vertex weight 0:
    # the one ring of the run must cover the Schur suites all the same
    (["identities", "--weight", "2", "--weight-sym", "1", "--weight-schur", "6"],
     "identities-w2-s1-schur6.json"),
    (["identities", "--weight", "0"], "identities-w0.json"),
])
def test_identities_at_the_bounds_of_its_ring_keep_their_report(argv, golden, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    want = (REPO / "tests" / "golden" / golden).read_text(encoding="utf-8")
    assert strip_timestamp_json(out.read_text(encoding="utf-8")) == strip_timestamp_json(want)


# SHA-256 of the benchmark's simulate jobs' outputs (JSON report, CSV), as
# written before SitePoly coefficients became ints.  A change meant to move
# the flow outputs replaces them with the digests the failure message shows.
SIMULATE_DIGESTS = {
    "simulate-a1-b1": ("efecf9136aeccc6addbfb9b34b7a1d059819a95757b22f54115ff207e74e44ea",
                       "00567ed8d2d58d82015cd1b3a544f4ff821df996f8f248ff8de300a90755ef9c"),
    "simulate-a2-b3": ("0abce4e4b3cde061830ec876fa4bcb67cff874148c20ce27f4002c86ab87a10e",
                       "4295fbc1e69bda9f5be25f7479ef7c7b995f1945069b87e9d80c3861b57e6f2c"),
}
REPORT_VOLATILE = ('  "generated_at": ', '  "csv": ')  # the timestamp and the CSV path
CSV_VOLATILE = ("# generated_at=",)


def _digest_without(path, volatile):
    """SHA-256 of the file without its lines that start with a volatile prefix,
    and how many lines that left out."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(volatile)]
    return hashlib.sha256("".join(kept).encode()).hexdigest(), len(lines) - len(kept)


@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_simulate_benchmark_job_outputs_are_pinned(name, tmp_path):
    # the benchmark's simulate jobs, in-process: their outputs must stay
    # byte-identical, apart from the volatile lines, across commits
    bench = load_benchmark("run")
    (job,) = [j for jobs in bench.WORKLOADS.values() for j in jobs if j.name == name]
    report, csv = tmp_path / "report.json", tmp_path / "trajectory.csv"
    assert main(list(job.argv) + ["--out", str(report), "--out-csv", str(csv)]) == 0
    (report_digest, report_skipped), (csv_digest, csv_skipped) = (
        _digest_without(report, REPORT_VOLATILE), _digest_without(csv, CSV_VOLATILE))
    assert (report_skipped, csv_skipped) == (2, 1)  # only the volatile lines
    assert (report_digest, csv_digest) == SIMULATE_DIGESTS[name], (
        f"new digests {(report_digest, csv_digest)}")


# -- the commands leave no reference cycles ---------------------------------------


def _cycles_left_by(run) -> Counter:
    """What a gc.collect() after run() finds, with the cyclic collector paused
    while it runs: each function by its qualified name, anything else by its
    type.  The objects are freed before this returns."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collection finds in gc.garbage
    try:
        run()
        gc.collect()
        return Counter(obj.__qualname__ if isinstance(obj, types.FunctionType)
                       else type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()


def _benchmark_argv(tmp_path) -> dict:
    """The argv of each exact and simulate job of the benchmark, writing into tmp_path."""
    argv = {}
    for jobs in load_benchmark("run").WORKLOADS.values():
        for job in jobs:
            out = ["--out", str(tmp_path / "report.json")]
            if job.command == "simulate":
                out += ["--out-csv", str(tmp_path / "run.csv")]
            if job.check != "oracle":
                argv[job.name] = list(job.argv) + out
    return argv


def _command_cycles(argv) -> Counter:
    """The cycles a command function leaves, beyond those of the one
    json.dumps(indent=2) call that writes its report (its encoder's
    closures call each other)."""
    args = cli.build_parser().parse_args(argv)
    report = _cycles_left_by(lambda: json.dumps({"report": [1]}, indent=2))
    assert report  # the baseline sees the encoder's closures
    return _cycles_left_by(lambda: args.func(args)) - report


def test_the_benchmark_commands_leave_no_reference_cycles(tmp_path):
    jobs = _benchmark_argv(tmp_path)
    assert len(jobs) == 6  # four exact jobs and two simulate jobs
    for name, argv in jobs.items():
        assert _command_cycles(argv) == Counter(), name


def test_the_cycle_guard_sees_a_determinant_that_closes_over_itself(monkeypatch, tmp_path):
    # negative control: a _det built on a closure that calls itself, as
    # Jacobi-Trudi determinants once were
    real = schur._det

    def closed_over(matrix, table):
        def det(depth):
            return det(depth - 1) if depth else real(matrix, table)

        return det(1)

    monkeypatch.setattr(schur, "_det", closed_over)
    left = _command_cycles(_benchmark_argv(tmp_path)["identities-w6"])
    assert left["test_the_cycle_guard_sees_a_determinant_that_closes_over_itself."
                "<locals>.closed_over.<locals>.det"] == 60  # one per determinant


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_main_pauses_the_collector_and_restores_the_callers_state(monkeypatch, caller_enabled):
    # exit 0, exit 1 (a failed check) and exit 2 (bad input); the collector
    # is paused while the command runs
    seen = []
    real = VertexContext.vertex_hook

    def hook(ctx, nu, nubar):
        seen.append(gc.isenabled())
        wrong = nu.weight == 2
        return QFieldElem.zero() if wrong else real(ctx, nu, nubar)

    monkeypatch.setattr(VertexContext, "vertex_hook", hook)
    was = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        for argv, code in ((["vertex", "--nu", "[1]", "--nubar", "[]"], 0),
                           (["vertex", "--nu", "[2]", "--nubar", "[]"], 1),
                           (["tau", "--a", "1", "--b", "1", "--deg", "-1"], 2)):
            assert main(argv) == code
            assert gc.isenabled() is caller_enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


# A fresh interpreter loads benchmarks/tracing.py as load_benchmark does,
# deletes the named opalg functions, installs the tracer and prints what it
# wrapped; the tracer rebinds qtoda's functions, so it never runs in-process.
TRACE_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("benchmark_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
import qtoda.opalg
for name in sys.argv[2:]:
    delattr(qtoda.opalg, name)
tracer = tracing.install()
print(json.dumps({"installed": sorted(tracer.installed), "counters": sorted(tracer.counters)}))
"""


def install_tracer(*deleted_from_opalg: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", TRACE_CHILD, str(REPO / "benchmarks" / "tracing.py"),
         *deleted_from_opalg],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def untraced_metrics(installed: list[str]) -> list[str]:
    """The .calls / .self_s metrics of BENCHMARK.json whose span the tracer
    did not wrap; cli.self_s sums the spans of the cmd_ functions."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for metric in spec["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        if kind not in ("calls", "self_s"):
            continue
        if span == "cli":
            wrapped = any(name.startswith("cli.cmd_") for name in installed)
        else:
            wrapped = span in installed
        if not wrapped:
            missing.append(metric["name"])
    return missing


def test_tracer_wraps_every_per_layer_span():
    # a benchmark metric whose target the program lost reads "not reported";
    # this makes that a test failure rather than a malformed benchmark line
    traced = install_tracer()
    assert untraced_metrics(traced["installed"]) == []
    assert {"div_probe_hits", "max_num_terms", "max_den_terms"} <= set(traced["counters"])


def test_tracer_guard_sees_a_lost_target():
    # negative control: without opalg.op_inverse its two metrics are flagged
    traced = install_tracer("op_inverse")
    assert untraced_metrics(traced["installed"]) == [
        "opalg.op_inverse.calls", "opalg.op_inverse.self_s",
    ]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload", ["lax-exact", "vertex-identities"])
def test_traced_benchmark_run_ends_in_a_full_result_line(workload):
    # a traced run must end in a strict-JSON result line that carries every
    # per-layer metric of BENCHMARK.json; a missing one breaks the benchmark
    done = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert not any(line.startswith("not reported") for line in lines)


@pytest.mark.parametrize("argv", [
    "laxcheck --a 1 --b 2 --T 4 --deg 4",
    "laxcheck --a 2 --b 3 --T 4 --deg 4",
    "laxcheck --a 3 --b 1 --sign -1 --T 4 --deg 4",
    "laxcheck --a 4 --b 3 --sign -1 --T 4 --deg 4",
    "tau --a 1 --b 2 --deg 5 --shift=1/2",
    "tau --a 3 --b 1 --sign -1 --deg 5 --shift=-2/5",
    "laxcheck --a 1 --b 1 --T 5 --deg 6 --flow 3",
])
def test_exact_command_adds_no_sums_across_s_parts(argv, tmp_path):
    # a QPowerSum holds one s-part and refuses a sum across two (MixedSParts,
    # exit 2); these runs, beside the benchmark jobs, cover both signs,
    # shifted tables and a higher flow, and each must pass
    out = tmp_path / "out.json"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_oracle_job_is_exact(seed):
    # the benchmark's oracle job, in-process: flow_rhs on its rational state
    # equals the symbolic stencil at every site, in Fractions
    child = load_benchmark("child")
    assert child.run_oracle(child.oracle_state(seed))


def test_oracle_sees_one_wrong_stencil_coefficient():
    # negative control: one monomial coefficient of the (2,3,2) stencil off
    # by 1/7 moves the evaluated stencil at site 0 by exactly 1/7 times
    # that monomial's value there
    a, b, k = 2, 3, 2
    m = a + b
    rng = np.random.default_rng(11)
    u = np.array([Fraction(x).limit_denominator(64) for x in rng.uniform(0.5, 1.5, 3 * m)],
                 dtype=object)
    stencil = symbolic_flow_stencil(a, b, k)
    numeric = flow_rhs(LatticeState(a, b, u), k)
    assert all(numeric == stencil_apply(stencil, u, m))
    terms = dict(stencil.terms())  # rational offsets, read out and fed back in
    mono, coef = max(terms.items())
    damaged = SitePoly({**terms, mono: coef + Fraction(1, 7)})
    value = math.prod(u[int(r * m) % len(u)] for r in mono)
    assert stencil_apply(damaged, u, m)[0] - numeric[0] == value / 7


def test_simulate_rejects_t_end_not_multiple_of_dt(tmp_path, capsys):
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--dt", "0.3",
        "--t-end", "1", "--out-csv", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert "whole multiple" in capsys.readouterr().err


def test_simulate_rejects_a_step_count_that_overflows(tmp_path, capsys):
    # 1 / 1e-320 is inf, no step count; it used to end in an OverflowError
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--dt", "1e-320",
        "--t-end", "1", "--out-csv", str(csv), "--out", str(report),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: t_end / dt = 1.0 / 1e-320 overflows: too many steps\n"
    assert not csv.exists() and not report.exists()


def test_simulate_order_check_names_a_dt_whose_half_underflows(tmp_path, capsys):
    # the smallest positive double has no half; the check says so, not "dt must be positive"
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--dt", "5e-324",
        "--t-end", "0", "--order-check", "--out-csv", str(csv), "--out", str(report),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --dt 5e-324: its half step for --order-check underflows to 0\n"
    assert not csv.exists() and not report.exists()


class _Integrated(Exception):
    """Raised by a stand-in for integrate_runs: the run passed every check."""


def _integrated(*args, **kwargs):
    raise _Integrated


@pytest.mark.parametrize("order_check", [False, True])
@pytest.mark.parametrize("extra_steps, refused", [(0, False), (1, True)])
def test_simulate_refuses_more_site_steps_than_its_limit(tmp_path, monkeypatch, capsys,
                                                         order_check, extra_steps, refused):
    # 8 refined sites at dt = 1e-3: the most steps within the limit, then one more;
    # --order-check adds the dt/2 run's twice as many steps
    monkeypatch.setattr(cli, "integrate_runs", _integrated)
    per_step = 8 * (3 if order_check else 1)
    steps = cli.MAX_SITE_STEPS // per_step + extra_steps
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    argv = ["simulate", "--sites", "4", "--dt", "1e-3", "--t-end", str(steps / 1000),
            "--out-csv", str(csv), "--out", str(report)] + ["--order-check"] * order_check
    if not refused:
        with pytest.raises(_Integrated):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--dt 0.001" in err and f"--t-end {steps / 1000}" in err
    assert f"{steps * per_step:.3g} site steps on 8 refined sites" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order_check", [False, True])
@pytest.mark.parametrize("extra_steps, refused", [(0, False), (1, True)])
def test_simulate_refuses_a_larger_recorded_trajectory_than_its_limit(
        tmp_path, monkeypatch, capsys, order_check, extra_steps, refused):
    # 8 refined sites at dt = 1e-3 with --record-every 1 keep 8 * (steps + 1)
    # values per run (the dt/2 run, recording every 2nd of twice the steps,
    # as many): the most steps within the limit, then one more
    monkeypatch.setattr(cli, "integrate_runs", _integrated)
    per_state = 8 * (2 if order_check else 1)
    steps = cli.MAX_RECORDED_VALUES // per_state - 1 + extra_steps
    assert 3 * 8 * steps < cli.MAX_SITE_STEPS  # within the step limit
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    argv = ["simulate", "--sites", "4", "--dt", "1e-3", "--t-end", str(steps / 1000),
            "--record-every", "1", "--out-csv", str(csv), "--out", str(report)]
    argv += ["--order-check"] * order_check
    if not refused:
        with pytest.raises(_Integrated):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --record-every 1 records ") and err.count("\n") == 1
    assert f"{(steps + 1) * per_state:.3g} values on 8 refined sites" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_a_run_that_would_never_end(tmp_path, monkeypatch, capsys):
    # 1 / 1e-300 steps is finite, so only the limit stops it
    monkeypatch.setattr(cli, "integrate_runs", _fail_if_called)
    code = main(["simulate", "--t-end", "1", "--dt", "1e-300",
                 "--out-csv", str(tmp_path / "run.csv"), "--out", str(tmp_path / "run.json")])
    assert code == 2
    assert "site steps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, name",
    [("--dt", "dt"), ("--t-end", "t_end")],
)
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_rejects_a_nonfinite_step_or_end_time(tmp_path, capsys, option, name, value):
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", option, value,
        "--out-csv", str(csv), "--out", str(report),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {name} = {value} must be finite\n"
    assert not csv.exists() and not report.exists()


def test_simulate_rejects_flow_zero(tmp_path, capsys):
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--flows", "0",
        "--out-csv", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert "flow index must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_rejects_a_non_coprime_type(tmp_path, capsys):
    code = main([
        "simulate", "--a", "2", "--b", "4", "--sites", "4",
        "--out-csv", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert "a=2, b=4 are not coprime" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_rejects_invariants_zero_before_integrating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "integrate_runs", _fail_if_called)
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--invariants", "0",
        "--out-csv", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    assert "--invariants 0 must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_refuses_unbounded_trace_work_before_integrating(tmp_path, monkeypatch, capsys):
    # 1,600 invariants of 2 recorded 24-site states, one banded pass counted
    # as 512 states: 1600^2 * 2^2 * 512 * 24 trace steps, whose banded powers
    # took about 93 s before H_506 overflowed
    monkeypatch.chdir(tmp_path)  # where the default CSV path would be written
    start = time.monotonic()
    code = main(["simulate", "--t-end", "0.01", "--invariants", "1600"])
    elapsed = time.monotonic() - start
    assert code == 2 and elapsed < 5.0
    err = capsys.readouterr().err
    assert err == ("error: --invariants 1600 takes 1.26e+11 trace steps on 24 refined sites, "
                   "more than 1e+09: lower --invariants\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("invariants, refused", [(142, False), (143, True)])
def test_simulate_trace_bound_sits_at_its_limit(tmp_path, monkeypatch, capsys, invariants, refused):
    # 512 * 24 * 2^2 * 142^2 = 9.9e8 trace steps are within 1e9, 143^2 are not
    monkeypatch.setattr(cli, "integrate_runs", _integrated)
    argv = ["simulate", "--t-end", "0.01", "--invariants", str(invariants),
            "--out-csv", str(tmp_path / "run.csv")]
    if not refused:
        with pytest.raises(_Integrated):
            main(argv)
        return
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --invariants 143 takes 1.01e+09 trace steps")


@pytest.mark.parametrize("report, csv", [
    ("x", ["--out-csv", "x"]),
    ("x", ["--out-csv", "./sub/../x"]),
    ("simulate_a1_b1.csv", []),  # the CSV's default path
])
def test_simulate_refuses_one_file_for_report_and_csv(tmp_path, monkeypatch, capsys,
                                                      report, csv):
    # the report would overwrite the CSV that it names
    monkeypatch.setattr(cli, "integrate_runs", _fail_if_called)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code = main(["simulate", "--t-end", "0.01", "--out", report, *csv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "are the same file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_order_check_runs_both_step_sizes_in_one_loop(tmp_path, monkeypatch):
    # 4 stages x 20 steps: 10 steps on both 24-site lattices side by side,
    # then 10 on the dt/2 one alone; a loop per step size makes 4 x (10 + 20)
    # only integrate_runs' calls: the stability test's Jacobian shares _rhs
    sizes = []
    rhs = volterra._rhs

    def counted(u, back, plan):
        if sys._getframe(1).f_code is volterra.integrate_runs.__code__:
            sizes.append(len(u))
        return rhs(u, back, plan)

    monkeypatch.setattr(volterra, "_rhs", counted)
    assert main(["simulate", "--t-end", "0.01", "--dt", "1e-3", "--order-check",
                 "--out-csv", str(tmp_path / "run.csv"), "--out", str(tmp_path / "run.json")]) == 0
    assert sizes == [48] * 40 + [24] * 40


# Flows whose default --dt 1e-3 is above RK4's stability limit at the
# default state, each with a step just below it (2.016e-4 and 3.442e-4)
STIFF_FLOWS = [(["--a", "2", "--b", "3", "--flows", "3"], "2e-4"),
               (["--a", "3", "--b", "4", "--flows", "2"], "2.5e-4")]


def _stiff_outcomes(tmp_path, capsys) -> list:
    """Per stiff flow to t = 0.1: the exit code, the files written and the
    start of the error at the default dt, then the exit code at the small one."""
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    out = []
    for flow, small in STIFF_FLOWS:
        argv = ["simulate", *flow, "--t-end", "0.1", "--out-csv", str(csv), "--out", str(report)]
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(argv)
        written = sorted(p.name for p in tmp_path.iterdir())
        err = capsys.readouterr().err
        out.append((code, written, err[:55], main(argv + ["--dt", small])))
        csv.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
    return out


STIFF_OUTCOMES = [(2, [], "error: --dt 0.001 is above RK4's stability limit 2*sqrt", 0)] * 2


def test_simulate_refuses_a_step_above_rk4s_stability_limit(tmp_path, capsys):
    assert _stiff_outcomes(tmp_path, capsys) == STIFF_OUTCOMES
    main(["simulate", *STIFF_FLOWS[0][0], "--t-end", "0.1", "--out-csv", str(tmp_path / "x.csv")])
    assert capsys.readouterr().err == (
        "error: --dt 0.001 is above RK4's stability limit 2*sqrt(2)/rho = 0.0002016, "
        "rho = 1.403e+04 being the spectral radius of the flow's Jacobian at the initial "
        "state: lower --dt\n")


@pytest.mark.parametrize("factor", [10, 0.1])
def test_the_stability_test_sees_a_spectral_radius_off_by_ten(monkeypatch, tmp_path, capsys,
                                                              factor):
    # negative control: an estimate 10 times too large refuses the small
    # steps, one 10 times too small lets the default step run until it
    # leaves double range
    real = volterra._spectral_radius
    monkeypatch.setattr(volterra, "_spectral_radius", lambda jac: factor * real(jac))
    assert _stiff_outcomes(tmp_path, capsys) != STIFF_OUTCOMES


@pytest.mark.parametrize(
    "option, message",
    [
        (["--wavelength", "0"], "wavelength must be nonzero"),
        (["--base", "nan"], "initial state is not finite: u_0 = nan"),
        (["--amplitude", "inf"], "initial state is not finite: u_0 = nan"),
    ],
)
def test_simulate_rejects_a_nonfinite_start(tmp_path, capsys, option, message):
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--dt", "1e-2",
        "--t-end", "0.1", "--out-csv", str(tmp_path / "run.csv"), *option,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "step" not in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--order-check"]])
def test_simulate_refuses_a_nonfinite_invariant_before_writing(tmp_path, capsys, extra):
    # a constant state is stationary, but its traces overflow double precision
    csv, report = tmp_path / "run.csv", tmp_path / "run.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "simulate", "--t-end", "0.01", "--dt", "1e-3", "--base", "1e200",
            "--out-csv", str(csv), "--out", str(report), *extra,
        ])
    assert code == 2
    err = capsys.readouterr().err
    assert "invariant H_2 is not finite" in err and "lower --base or --amplitude" in err
    assert not csv.exists() and not report.exists()


def test_simulate_nonfinite_invariant_prints_only_the_error(tmp_path):
    # the overflowing traces raise no numpy warning: stderr is the one line
    csv = tmp_path / "run.csv"
    done = run_cli(["simulate", "--t-end", "0.01", "--dt", "1e-3", "--base", "1e200",
                    "--out-csv", str(csv)])
    assert done.returncode == 2
    assert done.stderr == "error: invariant H_2 is not finite: lower --base or --amplitude\n"
    assert not csv.exists()


def test_simulate_refuses_finite_traces_that_sum_past_double_range(tmp_path):
    # at base 1.3e153 every term of H_2 is finite but their sum is not, where
    # math.fsum raises OverflowError: the run is refused, with no traceback
    done = run_cli(["simulate", "--t-end", "0.01", "--base", "1.3e153", "--amplitude", "0",
                    "--invariants", "2", "--out-csv", str(tmp_path / "run.csv"),
                    "--out", str(tmp_path / "run.json")])
    assert done.returncode == 2
    assert done.stderr == "error: invariant H_2 is not finite: lower --base or --amplitude\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_overflowing_initial_invariants_before_a_step(tmp_path, monkeypatch,
                                                                        capsys):
    # at base 1e4 H_40 of the initial state already overflows, and dt is
    # far below RK4's stability limit: the run is refused with no step taken
    calls = []
    rhs = volterra._rhs

    def counted(*args):
        calls.append(len(args[0]))
        return rhs(*args)

    monkeypatch.setattr(volterra, "_rhs", counted)
    code = main(["simulate", "--base", "1e4", "--amplitude", "0", "--invariants", "40",
                 "--dt", "1e-6", "--t-end", "2e-2", "--out-csv", str(tmp_path / "run.csv"),
                 "--out", str(tmp_path / "run.json")])
    assert code == 2 and calls == []
    assert capsys.readouterr().err == (
        "error: invariant H_40 is not finite: lower --base or --amplitude\n")
    assert list(tmp_path.iterdir()) == []


def test_simulate_drift_is_the_absolute_change_where_h_plus_one_is_zero(tmp_path, capsys):
    # 8 sites at base 1/32 give H_1(0) = -2 * sum(u) = -1 exactly, so the
    # relative drift's divisor |H_1(0) + 1| is 0 and the drift is absolute
    out = tmp_path / "run.json"
    code = main(["simulate", "--sites", "8", "--base", "0.03125", "--amplitude", "0",
                 "--t-end", "0.01", "--out-csv", str(tmp_path / "run.csv"), "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert doc["invariants"][0] == -1.0
    assert doc["relative_drift"][0] == 0.0 and doc["max_relative_drift"] == 0.0


@pytest.mark.parametrize("csv_name, report_name", [
    ("run.csv", "missing/run.json"),
    ("csvdir", "run.json"),
], ids=["--out in a missing directory", "--out-csv a directory"])
def test_simulate_write_failure_leaves_neither_file(tmp_path, capsys, csv_name, report_name):
    # a usage error leaves no partial output: a failed write of either file removes the other
    (tmp_path / "csvdir").mkdir()
    code = main(["simulate", "--t-end", "0.01", "--out-csv", str(tmp_path / csv_name),
                 "--out", str(tmp_path / report_name)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["csvdir"]
    assert list((tmp_path / "csvdir").iterdir()) == []


def test_simulate_zero_amplitude_constant_csv(tmp_path):
    csv = tmp_path / "run.csv"
    out = tmp_path / "run.json"
    code = main([
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--dt", "1e-2",
        "--t-end", "0.1", "--amplitude", "0", "--record-every", "2", "--order-check",
        "--out-csv", str(csv), "--out", str(out),
    ])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# generated_at=")
    header = lines[1].split(",")
    assert header[0] == "time" and header[1] == "u_0" and header[-1] == "H_3"
    first = lines[2].split(",")[1:9]
    last = lines[-1].split(",")[1:9]
    assert first == last  # constant data stays constant

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert doc["max_relative_drift"] < 1e-12
    # both drifts are 0, so the ratio is null rather than Infinity
    assert doc["half_step_max_relative_drift"] == 0 and doc["order_check_ratio"] is None


def test_simulate_determinism_modulo_timestamp(tmp_path):
    args = [
        "simulate", "--a", "1", "--b", "1", "--sites", "4", "--dt", "1e-2",
        "--t-end", "0.05", "--record-every", "1",
    ]
    out1, csv1 = tmp_path / "a.json", tmp_path / "a.csv"
    out2, csv2 = tmp_path / "b.json", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1), "--out-csv", str(csv1)]) == 0
    assert main(args + ["--out", str(out2), "--out-csv", str(csv2)]) == 0
    strip1 = strip_timestamp_json(out1.read_text()).replace(str(csv1), "CSV")
    strip2 = strip_timestamp_json(out2.read_text()).replace(str(csv2), "CSV")
    assert strip1 == strip2
    body1 = csv1.read_text().splitlines()[1:]
    body2 = csv2.read_text().splitlines()[1:]
    assert body1 == body2


def test_tau_determinism_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    for path in (out1, out2):
        assert main(["tau", "--a", "1", "--b", "2", "--deg", "2", "--out", str(path)]) == 0
    assert strip_timestamp_json(out1.read_text()) == strip_timestamp_json(out2.read_text())


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[schur]\nmu = [1,1]\n")
    out = tmp_path / "s.json"
    # config supplies --mu; command line overrides with --json output
    assert main(["--config", str(cfg), "schur", "--out", str(out), "--json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["mu"] == "[1,1]"
    assert "p2" in doc["polynomial"]
    # command line wins over the config value
    assert main(["--config", str(cfg), "schur", "--mu", "[1]", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mu"] == "[1]"
    # the --config=FILE spelling applies the file too
    assert main([f"--config={cfg}", "schur", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mu"] == "[1,1]"


@pytest.mark.parametrize("flag", ["--conf", "--c", "--confi="])
def test_config_abbreviation_is_refused(tmp_path, capsys, flag):
    # argparse would take an abbreviation and never apply the file
    cfg = tmp_path / "run.ini"
    cfg.write_text("[schur]\nmu = [1,1]\n")
    argv = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["schur"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tau", "--a", "1", "--b", "1"],
    ["identities"],
    ["laxcheck", "--a", "1", "--b", "1"],
    ["simulate"],
])
def test_json_flag_only_where_it_is_read(argv, capsys):
    # --json switches text to JSON; the other commands always write JSON
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_console_entry_point():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert "qtoda" in proc.stdout
