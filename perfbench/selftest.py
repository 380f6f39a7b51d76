"""Tests of the benchmark itself, built on its smoke mode.

    python3 perfbench/selftest.py

Takes well under a minute: one smoke run of all four workloads (untraced and
traced), the output checks against broken outputs, the reference
comparison, the host-speed scaling and its sampler, the rotation of
program seeds, the tracer's wrapping, and a run in a directory that holds
the benchmark but no program.
"""

import json
import math
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = _bench("--smoke", "--seed", "0")

    def test_result_line(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr)
        out = json.loads(self.proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], self.proc.stdout)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(out["attempted"], 2 * len(workloads.WORKLOADS))
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer"]
        for wl in workloads.WORKLOADS:
            for m in per_layer:
                got = out["metrics"][f"{wl}.{m['name']}"]
                self.assertEqual(got["unit"], m["unit"])
                self.assertTrue(math.isfinite(got["value"]))

    def test_summary_names_every_end_to_end_metric(self):
        lines = self.proc.stdout.splitlines()
        for wl in workloads.WORKLOADS:
            line = next(ln for ln in lines if ln.startswith(wl + " seed"))
            for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                         "failed_fraction", "ref_dev_se_max", "se_ratio_max"):
                self.assertIn(name + " ", line)

    def test_layers_see_their_workload(self):
        out = json.loads(self.proc.stdout.strip().splitlines()[-1])["metrics"]
        self.assertGreater(out["rho_sweep.primal.bound_calls"]["value"], 0)
        self.assertGreater(out["rho_sweep.pricing.price_calls"]["value"], 0)
        self.assertGreater(out["dual_search.dual.perturbed_calls"]["value"], 0)
        self.assertEqual(out["dual_search.primal.bound_calls"]["value"], 0)
        self.assertGreater(out["bulk_paths.kw.decompose_calls"]["value"], 0)
        self.assertGreater(out["bulk_paths.affine.moment_calls"]["value"], 0)
        self.assertGreater(out["vanishing_vol.primal.hedge_calls"]["value"], 0)
        for wl in workloads.WORKLOADS:
            self.assertEqual(
                out[f"{wl}.experiments.csv_identical_fraction"]["value"], 1.0)


class Checks(unittest.TestCase):
    def _fails(self, workload, heads, facts):
        return workloads.check(workload, heads, facts, statistical=True)

    def test_rho_sweep(self):
        heads = {"cap_minus_u@0": (-0.1, 0.02), "cap_minus_u@0.4": (0.2, 0.02),
                 "price@0": (1.2, 0.03)}
        facts = {"phi_min": 0.0, "phi_max": 2.0}
        self.assertEqual(self._fails("rho_sweep", heads, facts), [])
        unresolved = dict(heads, **{"cap_minus_u@0.4": (-0.01, 0.02),
                                    "cap_minus_u@0": (0.03, 0.02)})
        self.assertEqual(self._fails("rho_sweep", unresolved, facts), [])
        flipped = dict(heads, **{"cap_minus_u@0.4": (-0.07, 0.02)})
        self.assertTrue(self._fails("rho_sweep", flipped, facts))
        flipped = dict(heads, **{"cap_minus_u@0": (0.07, 0.02)})
        self.assertTrue(self._fails("rho_sweep", flipped, facts))
        outside = dict(heads, **{"price@0": (2.5, 0.03)})
        self.assertTrue(self._fails("rho_sweep", outside, facts))
        nan = dict(heads, **{"price@0": (math.nan, 0.03)})
        self.assertTrue(self._fails("rho_sweep", nan, facts))

    def test_vanishing_vol(self):
        exact_n = -math.exp(-0.5)
        exact_lim = -(1.0 + math.exp(-1.0)) / 2.0
        facts = {"value_finite_n_exact": exact_n,
                 "value_limit_exact": exact_lim}
        heads = {"gap_mc": (exact_n - exact_lim + 0.001, 0.005)}
        self.assertEqual(self._fails("vanishing_vol", heads, facts), [])
        off = dict(facts, value_finite_n_exact=math.nextafter(exact_n, 0.0))
        self.assertTrue(self._fails("vanishing_vol", heads, off))
        far = {"gap_mc": (exact_n - exact_lim + 0.02, 0.005)}
        self.assertTrue(self._fails("vanishing_vol", far, facts))

    def test_dual_search(self):
        facts = {"mmm@1/claim": 2.0}
        self.assertEqual(self._fails("dual_search",
                                     {"dual@1/claim": (1.9, 0.01)}, facts), [])
        self.assertTrue(self._fails("dual_search",
                                    {"dual@1/claim": (2.1, 0.01)}, facts))

    def test_bulk_paths(self):
        heads = {"energy@1": (0.5, 0.0), "energy@3": (0.1, 0.0),
                 "subrep_min": (0.01, 0.0)}
        facts = {"phi_min": 0.0, "oracle_z@0,-1": 1.5}
        self.assertEqual(self._fails("bulk_paths", heads, facts), [])
        rising = dict(heads, **{"energy@3": (0.6, 0.0)})
        self.assertTrue(self._fails("bulk_paths", rising, facts))
        self.assertTrue(self._fails("bulk_paths", heads,
                                    dict(facts, **{"oracle_z@0,-1": 4.5})))
        self.assertTrue(self._fails("bulk_paths",
                                    dict(heads, subrep_min=(0.05, 0.0)),
                                    facts))


class Reference(unittest.TestCase):
    REF = {"headlines": {"a": [1.0, 0.1], "exact": [0.5, 0.0]},
           "reports": {}}

    def test_identical_reads_zero_and_one(self):
        dev, ratio, fail = run.compare({"a": (1.0, 0.1), "exact": (0.5, 0.0)},
                                       self.REF)
        self.assertEqual((dev, ratio, fail), (0.0, 1.0, []))

    def test_far_or_missing_fails(self):
        self.assertTrue(run.compare({"a": (2.0, 0.1), "exact": (0.5, 0.0)},
                                    self.REF)[2])
        self.assertTrue(run.compare({"a": (1.0, 0.1), "exact": (0.6, 0.0)},
                                    self.REF)[2])
        self.assertTrue(run.compare({"a": (1.0, 0.1)}, self.REF)[2])

    def test_rounding_noise_se_is_exact(self):
        ref = {"headlines": {"a": [1.0, 0.1], "e": [0.0099, 2e-20]},
               "reports": {}}
        e = math.nextafter(0.0099, 1.0)
        self.assertEqual(run.compare({"a": (1.0, 0.1), "e": (e, 0.0)}, ref),
                         (0.0, 1.0, []))
        self.assertTrue(run.compare({"a": (1.0, 0.1), "e": (0.0099001, 0.0)},
                                    ref)[2])

    def test_unknown_seed_uses_table_medians(self):
        table = {"0": {"headlines": {"a": [1.0, 0.1]}, "reports": {}},
                 "1": {"headlines": {"a": [3.0, 0.3]}, "reports": {}},
                 "2": {"headlines": {"a": [2.0, 0.2]}, "reports": {}}}
        self.assertIs(run.reference_for(table, 1), table["1"])
        self.assertEqual(run.reference_for(table, 7)["headlines"],
                         {"a": [2.0, 0.2]})


class HostScaling(unittest.TestCase):
    def test_scaled_by_mean_tick(self):
        rec = {"wall_s": 3.0, "cpu_s": 2.0, "setup_s": 1.0,
               "tick_body_s": 2.0 * run.TICK_NOMINAL_S,
               "tick_setup_s": 0.5 * run.TICK_NOMINAL_S}
        run.scale_to_host(rec)
        slow, fast = 0.5 ** run.TICK_EXPONENT, 2.0 ** run.TICK_EXPONENT
        self.assertEqual((rec["wall_s_scaled"], rec["cpu_s_scaled"],
                          rec["setup_s_scaled"]),
                         (3.0 * slow, 2.0 * slow, 1.0 * fast))

    def test_no_ticks_no_scaled_time(self):
        rec = {"wall_s": 3.0, "tick_body_s": 0.0}
        run.scale_to_host(rec)
        self.assertNotIn("wall_s_scaled", rec)

    def test_sampler_ticks_while_busy(self):
        import probe
        sampler = probe.Sampler()
        t0 = time.perf_counter()
        sampler.start()
        try:
            while time.perf_counter() - t0 < 0.3:
                sum(range(1000))
        finally:
            sampler.stop()
        mean, count = sampler.mean_tick(t0, time.perf_counter())
        self.assertGreaterEqual(count, 5)
        self.assertGreater(mean, 0.0)
        self.assertEqual(sampler.mean_tick(0.0, t0), (0.0, 0))


class Seeds(unittest.TestCase):
    def test_iterations_rotate_through_the_inputs(self):
        self.assertEqual([run.program_seed(30, k, False) for k in range(4)],
                         [30, 31, 0, 1])

    def test_holdout_seeds_stay_outside_the_table(self):
        seeds = [run.program_seed(90001, k, True) for k in range(3)]
        self.assertEqual(seeds, [90001, 90033, 90065])

    def test_holdout_in_the_table_is_refused(self):
        proc = _bench("--workload", "bulk_paths", "--holdout-seed", "5")
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn('"correct"', proc.stdout)


class Tracer(unittest.TestCase):
    def test_wraps_every_binding(self):
        code = (
            "import sys; sys.path[:0] = [%r, %r]\n"
            "import mcduality, tracing\n"
            "from mcduality import pricing, experiments, dual, utility\n"
            "t = tracing.install()\n"
            "assert pricing.optimize_primal.__wrapped__\n"
            "assert experiments.subreplication_estimate.__wrapped__\n"
            "assert dual.constrained_conjugate.__wrapped__\n"
            "assert mcduality.run_experiment.__wrapped__\n"
            "assert utility.UtilitySpec.u.__wrapped__\n"
            "utility.UtilitySpec.power(0.5).u(1.0)\n"
            "assert [s['name'] for s in t.spans] == ['utility.UtilitySpec.u']\n"
        ) % (str(ROOT / "src"), str(HERE))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_self_time(self):
        import tracing
        spans = [{"id": 0, "name": "a.f", "parent": None, "start": 0.0,
                  "end": 10.0},
                 {"id": 1, "name": "b.g", "parent": 0, "start": 1.0,
                  "end": 4.0},
                 {"id": 2, "name": "a.f", "parent": 1, "start": 2.0,
                  "end": 3.0}]
        self.assertEqual(tracing.self_times(spans), [7.0, 2.0, 1.0])
        self.assertEqual([s["id"] for s in tracing._outermost(spans, {"a.f"})],
                         [0])


class WithoutProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = HERE / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = _bench("--workload", "bulk_paths", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
