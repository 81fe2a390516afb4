"""Unit tests for run.py's bookkeeping: failure counting, run selection
and the end-to-end arithmetic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import run


def record(wall_s=2.0, setup_s=0.5, n=1000, rounds=30, peak_rss_mb=100.0, failure=None):
    return {"failure": failure, "wall_s": wall_s, "setup_s": setup_s, "n": n,
            "rounds": rounds, "digest": "00", "peak_rss_mb": peak_rss_mb, "layers": {}}


def a_run(rec, exit_code=0, steal=0.0, traced=False):
    return {"traced": traced, "exit": exit_code, "record": rec, "stderr": "",
            "steal_share": steal}


class ErrorRate(unittest.TestCase):
    def test_no_failures(self):
        runs = [a_run(record()) for _ in range(4)]
        self.assertEqual(run.error_counts(runs), (4, 0, 0.0))

    def test_a_forced_failure_counts_once(self):
        runs = [a_run(record(failure="phi-trace digest differs"))] + [a_run(record())] * 3
        self.assertEqual(run.error_counts(runs), (4, 1, 0.25))

    def test_a_crash_or_missing_record_fails_the_run(self):
        runs = [a_run(None, exit_code=None), a_run(record(), exit_code=101), a_run(record())]
        self.assertEqual(run.error_counts(runs), (3, 2, 2 / 3))

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(run.error_counts([]), (0, 0, 1.0))


class Selection(unittest.TestCase):
    def test_disturbed_runs_are_left_out(self):
        limit = run.STEAL_LIMIT
        runs = [a_run(record(wall_s=w), steal=s)
                for w, s in [(1.0, 0.0), (2.0, 2 * limit), (1.1, limit / 2), (1.2, limit)]]
        kept = run.undisturbed(runs, 3)
        self.assertEqual([r["record"]["wall_s"] for r in kept], [1.0, 1.1, 1.2])

    def test_too_few_calm_runs_take_the_least_disturbed(self):
        runs = [a_run(record(wall_s=w), steal=s)
                for w, s in [(3.0, 0.3), (1.0, 0.0), (2.0, 0.2), (2.5, 0.25)]]
        kept = run.undisturbed(runs, 3)
        self.assertEqual([r["record"]["wall_s"] for r in kept], [1.0, 2.0, 2.5])

    def test_steal_share_is_stolen_over_total(self):
        self.assertEqual(run.steal_share((10, 1000), (30, 1400)), 0.05)
        self.assertEqual(run.steal_share((10, 1000), (10, 1000)), 0.0)

    def test_median_run_is_one_whole_run(self):
        recs = [record(wall_s=w) for w in (3.0, 1.0, 2.0, 4.0)]
        self.assertIs(run.median_run(recs, key=lambda r: r["wall_s"]), recs[2])


class EndToEnd(unittest.TestCase):
    def test_node_rounds_per_second_excludes_setup(self):
        samples = run.end_to_end_samples([record(wall_s=2.5, setup_s=0.5, n=1000, rounds=40)])
        self.assertEqual(samples["node_rounds_per_s"], [20_000.0])
        self.assertEqual(samples["wall_s"], [2.5])
        self.assertEqual(samples["setup_s"], [0.5])

    def test_noise_gives_median_quartiles_and_count(self):
        stats = run.noise([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(stats, {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5})
        self.assertEqual(run.noise([7.0]), {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1})

    def test_tracing_overhead_compares_medians(self):
        untraced = [record(wall_s=w) for w in (1.0, 2.0, 3.0)]
        traced = [dict(record(wall_s=w), layers={"core.rounds": 30}) for w in (2.2, 2.0, 2.4)]
        values, chosen = run.layer_metrics(untraced, traced)
        self.assertIs(chosen, traced[0])
        self.assertAlmostEqual(values["telemetry.overhead_pct"], 10.0)
        self.assertEqual(values["core.rounds"], 30)


if __name__ == "__main__":
    unittest.main()
