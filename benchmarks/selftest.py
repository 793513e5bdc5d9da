"""Negative controls for the benchmark's own output checks.

    python3 benchmarks/selftest.py

Shows that the checks in run.py can fail: a corrupted identity build counts
as a failed job, a one-byte change to a reference is rejected, and the
simulate and oracle checks reject results outside their criteria.  Also
shows that a trace target the program no longer has is left out of the
per-layer metrics rather than read as 0, that job times are scaled by
their speed probes before the median is taken, and that the benchmark
fails without the program.  Takes about 10 seconds.  The file name keeps
it out of the repository's pytest collection;
`python -m pytest benchmarks/selftest.py` runs it too.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

LAX, VERTEX, FLOWS = (run.WORKLOADS[w] for w in ("lax-exact", "vertex-identities", "lattice-flows"))


class Workdir(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        self.deadline = time.monotonic() + run.RUN_LIMIT_S

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class ExactChecks(Workdir):
    def test_corrupted_identities_build_counts_as_failed(self):
        job = VERTEX[0]
        result = run.run_job(job, self.workdir, 0, self.deadline,
                             extra_argv=("--self-test-corrupt",))
        self.assertEqual(result.failure, "exit code 1")
        # The report check alone rejects it too, whatever the exit code.
        self.assertEqual(run.check_job(job, 0, {}, result.out), 'report says "passed": false')
        attempted, failed = run.report_jobs([[result]])
        self.assertEqual((attempted, failed), (1, 1))

    def test_one_byte_change_to_a_reference_is_rejected(self):
        job = VERTEX[1]
        result = run.run_job(job, self.workdir, 0, self.deadline)
        self.assertIsNone(result.failure)
        text = result.out.read_text(encoding="utf-8")
        reference = (run.REFERENCE / f"{job.name}.json").read_text(encoding="utf-8")
        self.assertIsNone(run.compare_to_reference(text, reference))
        for pos in (0, len(reference) // 2, len(reference) - 2):
            flipped = chr(ord(reference[pos]) ^ 1)
            mutated = reference[:pos] + flipped + reference[pos + 1:]
            self.assertIsNotNone(run.compare_to_reference(text, mutated), f"byte {pos}")
        self.assertIsNotNone(run.compare_to_reference(text, reference + " "))

    def test_report_without_timestamp_line_is_rejected(self):
        reference = (run.REFERENCE / f"{LAX[1].name}.json").read_text(encoding="utf-8")
        self.assertEqual(run.compare_to_reference(reference, reference),
                         "report has no generated_at line")


class NumericChecks(unittest.TestCase):
    def test_simulate_criteria(self):
        ok = {"max_relative_drift": 3e-13, "order_check_ratio": 15.7}
        self.assertIsNone(run.check_simulate(ok, order_check=True))
        self.assertIsNotNone(run.check_simulate({**ok, "max_relative_drift": 1e-8}, True))
        self.assertIsNotNone(run.check_simulate({**ok, "max_relative_drift": float("nan")}, True))
        self.assertIsNotNone(run.check_simulate({**ok, "order_check_ratio": 7.9}, True))
        self.assertIsNotNone(run.check_simulate({**ok, "order_check_ratio": 32.1}, True))
        self.assertIsNone(run.check_simulate({**ok, "order_check_ratio": 99.0}, False))

    def test_oracle_detects_a_wrong_site(self):
        sys.path.insert(0, str(run.SRC))
        import child
        import qtoda.volterra as volterra

        state = child.oracle_state(7)
        self.assertTrue(child.run_oracle(state))
        original = volterra.flow_rhs

        def off_by_one_site(*args, **kwargs):
            out = original(*args, **kwargs)
            out[3] += 1
            return out

        volterra.flow_rhs = off_by_one_site
        try:
            self.assertFalse(child.run_oracle(state))
        finally:
            volterra.flow_rhs = original
        self.assertEqual(run.check_job(FLOWS[2], 0, {"oracle_equal": False}, Path()),
                         "flow_rhs differs from the symbolic stencil")


class Estimator(unittest.TestCase):
    def test_times_are_scaled_by_their_probes_then_medianed(self):
        a, b = LAX
        ref = run.PROBE_REF_S

        def job(j, setup, took, probe, rss):
            return run.JobRun(j, setup, 0, took, probe, rss)

        # The second pass ran on a CPU half as fast: its probes took twice as long.
        passes = [[job(a, 0.3, 2.0, ref, 30.0), job(b, 0.2, 5.0, ref, 40.0)],
                  [job(a, 0.6, 4.0, 2 * ref, 31.0), job(b, 0.4, 10.0, 2 * ref, 39.0)],
                  [job(a, 0.3, 2.2, ref, 31.0), job(b, 0.3, 4.0, ref, 39.0)]]
        m = run.run_metrics(passes)
        self.assertAlmostEqual(m["wall_s"], 2.0 + 5.0)
        self.assertAlmostEqual(m["setup_s"], 0.3 + 0.2)
        self.assertEqual(m["peak_rss_mib"], 40.0)
        self.assertAlmostEqual(m["laxcheck_s"], 7.0)
        self.assertAlmostEqual(run.run_metrics(passes, scale=False)["wall_s"], 2.2 + 5.0)
        # A job that did not finish in a pass is left out of that pass only.
        passes[0][0] = run.JobRun(a, 0.0, failure="timed out")
        self.assertAlmostEqual(run.run_metrics(passes)["wall_s"], (2.0 + 2.2) / 2 + 5.0)

    def test_probe_is_positive_and_pinning_is_undone(self):
        before = run.ALLOWED
        self.assertTrue(all(t > 0.0 for t in run.probe_times(3)))
        run.WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        try:
            result = run.run_job(LAX[0], workdir, 0, time.monotonic() + 60, setup_only=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertIsNone(result.failure)
        self.assertGreater(result.probe_s, 0.0)
        if before:
            self.assertEqual(run.os.sched_getaffinity(0), before)


class AbsentTraceTargets(unittest.TestCase):
    def test_a_missing_target_is_skipped_not_wrapped(self):
        sys.path.insert(0, str(run.SRC))
        import tracing
        from qtoda import qfield

        tracer = tracing.Tracer()
        self.assertFalse(tracing._install_target(tracer, "qfield.gone", qfield, "_no_such_fn"))
        self.assertFalse(tracing._install_target(tracer, "qfield.gone", qfield, "NoClass.method"))
        self.assertNotIn("qfield.gone", tracer.dump()["installed"])

    def test_absent_metrics_are_left_out_not_zero(self):
        spans = set(run.SPANS_CALLS_AND_SELF + run.SPANS_CALLS + run.SPANS_SELF)
        untraced = {"wall_s": 1.0, "site_steps_per_s": 0.0, **{c + "_s": 0.0 for c in run.COMMANDS}}
        m = run.layer_metrics({}, {}, spans - {"qfield.div_probe"}, untraced, 1.0)
        for name in ("qfield.div_probe.calls", "qfield.div_probe.self_s",
                     "qfield.div_probe.hit_ratio", "qfield.max_num_terms"):
            self.assertNotIn(name, m)
        self.assertEqual(m["qfield.elem_add.calls"], 0)  # installed, never called
        full = run.layer_metrics({}, {"div_probe_hits": 0, "max_num_terms": 0, "max_den_terms": 0},
                                 spans, untraced, 1.0)
        self.assertEqual(sorted(full), sorted(name for name, _, _ in run.per_layer_metrics()))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.per_layer_metrics())

    def test_fails_without_the_program(self):
        run.WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / run.BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "lax-exact",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def tearDownModule():
    try:
        run.WORK.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    unittest.main()
