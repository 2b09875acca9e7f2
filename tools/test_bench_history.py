#!/usr/bin/env python3
"""Unit tests for the bench_history.py telemetry time series.

The invariants under test: `append` writes exactly one parseable JSONL
line per invocation (with host_phases compacted when present), and
`report` flags host-axis anomalies as informational while never failing
the build for them — simulated drift is bench_diff's job. Run directly
or via ctest:

    python3 tools/test_bench_history.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_history  # noqa: E402


def report_doc(bench, records, sha="abc123def456"):
    recs = []
    for (query, profile, total, wall_ms, failed, host_cpu) in records:
        rec = {
            "query": query,
            "profile": profile,
            "failed": failed,
            "sim": {"total_s": total},
            "wall_ms": wall_ms,
        }
        if host_cpu is not None:
            rec["host_phases"] = {
                "schema_version": 1,
                "process_cpu_ms": host_cpu,
                "phases": [
                    {"job": "J1", "phase": "map", "cpu_ms": host_cpu * 0.5},
                    {"job": "J1", "phase": "reduce", "cpu_ms": host_cpu * 0.25},
                    {"job": "J2", "phase": "map", "cpu_ms": host_cpu * 0.25},
                ],
            }
        recs.append(rec)
    return {"schema_version": 1, "bench": bench, "git_sha": sha,
            "records": recs}


class BenchHistoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.history = os.path.join(self.dir.name, "history.jsonl")

    def write_report(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def append(self, reports, ts):
        argv = (["bench_history.py", "append", "--history", self.history,
                 "--ts", ts] + reports)
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_history.main(argv)

    def run_report(self, extra=()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = bench_history.main(
                ["bench_history.py", "report", "--history", self.history]
                + list(extra)
            )
        return rc, out.getvalue()

    def history_lines(self):
        with open(self.history) as f:
            return [json.loads(line) for line in f if line.strip()]

    def test_append_writes_one_line_covering_all_reports(self):
        r1 = self.write_report(
            "a.json",
            report_doc("fig09", [("q21", "ysmart", 10.0, 55.0, False, 12.0)]),
        )
        r2 = self.write_report(
            "b.json",
            report_doc("fig10", [("qcsa", "hive", 20.0, 80.0, False, None)]),
        )
        self.assertEqual(self.append([r1, r2], "2026-08-09T00:00:00+00:00"), 0)
        lines = self.history_lines()
        self.assertEqual(len(lines), 1)
        entry = lines[0]
        self.assertEqual(entry["git_sha"], "abc123def456")
        self.assertEqual(entry["ts"], "2026-08-09T00:00:00+00:00")
        self.assertEqual(
            set(entry["runs"]), {"fig09/q21/ysmart", "fig10/qcsa/hive"}
        )
        run = entry["runs"]["fig09/q21/ysmart"]
        self.assertEqual(run["sim_total_s"], 10.0)
        self.assertEqual(run["wall_ms"], 55.0)
        # host_phases compacted: process CPU plus per-phase CPU sums
        # (J1/map and J2/map fold into one "map" bucket).
        self.assertEqual(run["host"]["process_cpu_ms"], 12.0)
        self.assertEqual(run["host"]["phase_cpu_ms"]["map"], 9.0)
        self.assertEqual(run["host"]["phase_cpu_ms"]["reduce"], 3.0)
        # The run without host_phases has no host summary at all.
        self.assertNotIn("host", entry["runs"]["fig10/qcsa/hive"])

    def test_host_phases_without_phases_leave_no_host_point(self):
        # A bench that times its work without running a query used to
        # carry {"process_cpu_ms": 0, "phases": []}; that is no host
        # measurement, so it must not become a 0 ms CPU point.
        doc = report_doc("bench_exec", [("exec-50000", "vec", 1.0, 5.0,
                                         False, None)])
        doc["records"][0]["host_phases"] = {
            "schema_version": 1, "process_cpu_ms": 0, "phases": []}
        self.assertIsNone(
            bench_history.summarize_host(doc["records"][0]["host_phases"]))
        r = self.write_report("exec.json", doc)
        self.assertEqual(self.append([r], "2026-08-09T00:00:00+00:00"), 0)
        run = self.history_lines()[0]["runs"]["bench_exec/exec-50000/vec"]
        self.assertNotIn("host", run)
        self.assertEqual(run["wall_ms"], 5.0)

    def test_append_twice_grows_the_series(self):
        r = self.write_report(
            "a.json",
            report_doc("fig09", [("q21", "ysmart", 10.0, 55.0, False, 12.0)]),
        )
        self.assertEqual(self.append([r], "2026-08-08T00:00:00+00:00"), 0)
        self.assertEqual(self.append([r], "2026-08-09T00:00:00+00:00"), 0)
        self.assertEqual(len(self.history_lines()), 2)

    def test_append_rejects_non_report_json(self):
        bogus = self.write_report("bogus.json", {"not": "a report"})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = bench_history.main(
                ["bench_history.py", "append", "--history", self.history,
                 "--ts", "t", bogus]
            )
        self.assertEqual(rc, 2)
        self.assertFalse(os.path.exists(self.history))

    def seed_series(self, walls_and_cpus, sim=10.0):
        for i, (wall, cpu) in enumerate(walls_and_cpus):
            r = self.write_report(
                f"r{i}.json",
                report_doc("fig09", [("q21", "ysmart", sim, wall, False, cpu)]),
            )
            self.assertEqual(self.append([r], f"2026-08-0{i + 1}T00:00:00"), 0)

    def test_report_is_quiet_for_stable_series(self):
        self.seed_series([(50.0, 10.0), (52.0, 10.5), (51.0, 10.2)])
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("fig09/q21/ysmart", out)
        self.assertNotIn("anomaly", out)
        self.assertNotIn("sim drift", out)

    def test_report_flags_host_anomaly_but_still_exits_zero(self):
        # Host wall/CPU explode by 3x: informational flag, exit still 0 —
        # the host axis is never gated.
        self.seed_series([(50.0, 10.0), (51.0, 10.0), (150.0, 30.0)])
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("host anomaly (informational)", out)
        self.assertIn("not gated", out)

    def test_report_notes_sim_drift_as_gated_elsewhere(self):
        r1 = self.write_report(
            "a.json",
            report_doc("fig09", [("q21", "ysmart", 10.0, 50.0, False, 10.0)]),
        )
        r2 = self.write_report(
            "b.json",
            report_doc("fig09", [("q21", "ysmart", 13.0, 50.0, False, 10.0)]),
        )
        self.assertEqual(self.append([r1], "2026-08-08T00:00:00"), 0)
        self.assertEqual(self.append([r2], "2026-08-09T00:00:00"), 0)
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("sim drift — gated by bench_diff", out)

    def test_report_on_missing_history_is_ok(self):
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("no history yet", out)

    def test_report_single_entry_has_no_median_basis(self):
        # One entry means no prior runs to take a median over: every
        # ratio renders "n/a" and the report still exits 0.
        self.seed_series([(50.0, 10.0)])
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("n/a vs median", out)
        self.assertNotIn("anomaly", out)

    def test_report_single_zero_sim_failed_entry_is_ok(self):
        # Degenerate first entry (failed run, zero simulated seconds):
        # nothing to divide by, nothing to crash on.
        r = self.write_report(
            "a.json",
            report_doc("fig09", [("q21", "ysmart", 0.0, 0.0, True, None)]),
        )
        self.assertEqual(self.append([r], "2026-08-09T00:00:00"), 0)
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("n/a vs median", out)
        self.assertIn("FAILED", out)

    def test_report_empty_history_file_is_ok(self):
        with open(self.history, "w") as f:
            f.write("\n")
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("no history yet", out)

    def test_report_marks_runs_missing_from_latest_entry_stale(self):
        # fig10 appears in the first entry only; without the stale marker
        # its old numbers would read as current, and a host anomaly in
        # them would be counted as if measured today.
        both = self.write_report(
            "both.json",
            report_doc(
                "fig10",
                [("qcsa", "ysmart", 20.0, 300.0, False, 90.0)],
            ),
        )
        fig09 = self.write_report(
            "fig09.json",
            report_doc("fig09", [("q21", "ysmart", 10.0, 50.0, False, 10.0)]),
        )
        self.assertEqual(self.append([fig09, both], "2026-08-08T00:00:00"), 0)
        self.assertEqual(self.append([fig09], "2026-08-09T00:00:00"), 0)
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        fig10_line = next(
            line for line in out.splitlines() if "fig10/qcsa/ysmart" in line
        )
        self.assertIn("stale: last seen 2026-08-08T00:00:00", fig10_line)
        # The stale run contributes no "current" host anomaly.
        self.assertNotIn("anomaly", out)
        # The still-reported run is not marked stale.
        fig09_line = next(
            line for line in out.splitlines() if "fig09/q21/ysmart" in line
        )
        self.assertNotIn("stale", fig09_line)

    def test_report_flags_failed_run(self):
        r = self.write_report(
            "a.json",
            report_doc("fig09", [("q21", "ysmart", 10.0, 50.0, True, None)]),
        )
        self.assertEqual(self.append([r], "2026-08-09T00:00:00"), 0)
        rc, out = self.run_report()
        self.assertEqual(rc, 0)
        self.assertIn("FAILED", out)


if __name__ == "__main__":
    unittest.main()
