"""Tests of the benchmark's metric arithmetic with fixed inputs.

Run from the repository root:  python3 -m unittest discover -s simbench
"""

import json
import math
import os
import unittest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def point(program, arch, pressure, cycles):
    return {"program": program, "arch": arch, "pressure": pressure,
            "cycles": cycles}


COUNTS = {
    "accesses": 1000, "l1_hits": 600, "upgrades_issued": 10, "misses": 390,
    "local_misses": 250, "remote_misses": 100, "rac_hits": 40,
    "scoma_hits": 50, "refetch_misses": 30, "net_messages": 250,
    "invalidations": 5, "forwards": 6, "writebacks": 20, "page_faults": 8,
    "scoma_allocs": 4, "upgrades": 3, "downgrades": 2,
    "relocation_interrupts": 4, "lines_flushed": 9, "daemon_runs": 1,
    "daemon_pages_scanned": 10, "daemon_pages_reclaimed": 4,
    "threshold_raises": 1, "remap_suppressed": 2, "lock_acquisitions": 7,
    "barrier_episodes": 3, "sim_time_total": 10000,
    "sim_time_kernel_ovhd": 500, "sim_time_sync": 250,
}
NS = {"gen_ns_per_op": 10.0, "deliver_ns": 8.0, "dir_ns": 9.0,
      "access_ns": 60.0, "l1_ns": 5.0, "rac_ns": 6.0, "dram_ns": 7.0,
      "bus_ns": 3.0, "page_cache_ns": 50.0, "daemon_ns_per_page": 20.0,
      "policy_ns": 4.0, "pick_ns": 15.0}


def rep(wall_s=1.0):
    return {"wall_s": wall_s, "setup_s": 0.01, "run_s": 1e-4,
            "busy_s": 1.0, "workers": 1, "jobs": 2, "failed": 0,
            "errors": [], "digest": "d", "peak_rss_bytes": 3 << 20,
            "calib_s": metrics.CALIB_REF_S,
            "cycles": 200, "counts": dict(COUNTS),
            "points": [point("lu", "CCNUMA", 0.5, 100),
                       point("lu", "ASCOMA", 0.5, 110)]}


class Arithmetic(unittest.TestCase):
    def test_ratio_with_and_without_a_base(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(3, 0), 0.0)

    def test_gmean(self):
        self.assertAlmostEqual(metrics.gmean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(metrics.gmean([2.0, 2.0, 2.0]), 2.0)
        self.assertEqual(metrics.gmean([]), 0.0)
        with self.assertRaises(ValueError):
            metrics.gmean([1.0, 0.0])

    def test_est_share(self):
        # 1000 calls x 10 ns = 10 us of a 1 ms run.
        self.assertAlmostEqual(metrics.est_share(1000, 10.0, 1e-3), 0.01)
        self.assertEqual(metrics.est_share(1000, 10.0, 0.0), 0.0)

    def test_ascoma_rel_cc_max_uses_the_programs_own_base(self):
        pts = [point("lu", "CCNUMA", 0.1, 100),
               point("lu", "ASCOMA", 0.1, 90),
               point("lu", "ASCOMA", 0.9, 120),
               point("fft", "CCNUMA", 0.1, 50),
               point("fft", "ASCOMA", 0.9, 55)]
        self.assertAlmostEqual(metrics.ascoma_rel_cc_max(pts), 1.2)
        self.assertEqual(metrics.ascoma_rel_cc_max(pts[1:3]), 0.0)

    def test_ascoma_rel_best_gmean_against_the_best_other_arch(self):
        pts = [point("lu", "CCNUMA", 0.1, 100),
               point("lu", "SCOMA", 0.1, 80),
               point("lu", "RNUMA", 0.1, 90),
               point("lu", "ASCOMA", 0.1, 40),    # / 80
               point("lu", "SCOMA", 0.9, 400),
               point("lu", "ASCOMA", 0.9, 200)]   # / 100 (CC-NUMA)
        self.assertAlmostEqual(metrics.ascoma_rel_best_gmean(pts),
                               math.sqrt(0.5 * 2.0))
        self.assertEqual(
            metrics.ascoma_rel_best_gmean([point("lu", "ASCOMA", 0.5, 1)]),
            0.0)

    def test_fast_quartile(self):
        self.assertEqual(metrics.fast_quartile([5.0, 1.0, 4.0, 2.0, 3.0]), 2.0)
        self.assertEqual(
            metrics.fast_quartile([5.0, 1.0, 4.0, 2.0, 3.0], rate=True), 4.0)
        self.assertEqual(metrics.fast_quartile([7.0]), 7.0)

    def test_end_to_end_takes_fast_quartiles_and_the_median_rss(self):
        reps = [rep(wall_s=w) for w in (4.0, 1.0, 3.0, 2.0, 5.0)]
        for r, k in zip(reps, (4, 1, 3, 2, 5)):
            r["run_s"] = k * 1e-4
        reps[0]["peak_rss_bytes"] = 9 << 20
        e2e = metrics.end_to_end(reps)
        self.assertEqual(e2e["wall_s"], 2.0)
        # The rates' fast quartile is the run time's: 2e-4 s.
        self.assertAlmostEqual(e2e["sim_rate_mcps"], 200 / 2e-4 / 1e6)
        self.assertAlmostEqual(e2e["access_rate_maps"], 1000 / 2e-4 / 1e6)
        self.assertEqual(e2e["peak_rss_mb"], 3.0)

    def test_host_speed_cancels_a_uniform_slowdown(self):
        slow = rep()
        for key in ("wall_s", "setup_s", "run_s", "calib_s"):
            slow[key] *= 2.0  # the same work on a host running at half speed
        self.assertAlmostEqual(metrics.host_speed(slow), 0.5)
        fast = metrics.rep_end_to_end(rep())
        for name, value in metrics.rep_end_to_end(slow).items():
            self.assertAlmostEqual(value, fast[name], msg=name)

    def test_per_layer_shares_do_not_double_count(self):
        drive = {"ns_per_op": NS, "job_ops": 2000}
        m = metrics.per_layer([rep()], [rep(wall_s=1.5)], drive)
        run_ns = 1e-4 * 1e9
        net = 250 * 8.0 / run_ns
        mem = (1000 * 5.0 + (40 + 100) * 6.0 + (390 - 40 + 20) * 7.0
               + (390 + 10 + 20) * 3.0) / run_ns
        self.assertAlmostEqual(m["net.est_share"], net)
        self.assertAlmostEqual(m["mem.est_share"], mem)
        self.assertAlmostEqual(m["proto.est_share"],
                               1000 * 60.0 / run_ns - net - mem)
        shares = sum(m[layer + ".est_share"] for layer in metrics.LAYERS)
        self.assertAlmostEqual(m["core.loop_share"], 1.0 - shares)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.5)
        self.assertEqual(m["workload.stream_bytes"], 2000 * 16)
        self.assertAlmostEqual(m["net.messages_per_access"], 0.25)
        self.assertAlmostEqual(m["vm.reclaim_useful"], 0.4)
        self.assertAlmostEqual(m["arch.relocation_useful"], 0.75)
        self.assertAlmostEqual(m["model.ascoma_rel_cc_max"], 1.1)
        self.assertEqual(list(m), [n for n, _ in metrics.PER_LAYER])

    def test_span_table_merges_processes(self):
        a = [{"name": "x", "count": 1, "total_s": 1.0, "self_s": 0.5}]
        b = [{"name": "x", "count": 2, "total_s": 2.0, "self_s": 1.0},
             {"name": "y", "count": 1, "total_s": 1.0, "self_s": 1.0}]
        t = metrics.span_table([a, b])
        self.assertEqual(list(t), ["x", "y"])
        self.assertEqual(t["x"], {"count": 3, "total_s": 3.0, "self_s": 1.5})


class Names(unittest.TestCase):
    def test_grammar(self):
        for ok in ["wall_s", "net.deliver_ns", "a-b.c_9", "9lives", "x" * 64]:
            self.assertTrue(metrics.valid_name(ok), ok)
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "x" * 65]:
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_every_reported_name_and_unit_is_valid_and_unique(self):
        table = metrics.END_TO_END + metrics.PER_LAYER
        names = [n for n, _ in table]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in table:
            self.assertTrue(metrics.valid_name(name), name)
            self.assertTrue(metrics.valid_unit(unit), unit)

    def test_benchmark_json_declares_exactly_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
