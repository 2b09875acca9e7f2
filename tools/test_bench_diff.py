#!/usr/bin/env python3
"""Unit tests for the bench_diff.py exact gate.

Every simulated field is compared with ==: the smallest change to any
of them (one ulp, one byte, one job, a flipped failure), faster or
slower, fails and names the run and the field. A run the baseline does
not know and a baseline run no report covers fail too. Reports from
another toolchain are refused before anything is compared. Run directly
or via ctest:

    python3 tools/test_bench_diff.py
"""
import contextlib
import difflib
import io
import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

TOOLCHAIN = "gcc 12.2.0, glibc 2.36"
OTHER_TOOLCHAIN = "clang 17.0.6, glibc 2.39"


def record(query="q1", profile="ysmart", total=10.0, failed=False):
    return {
        "query": query, "profile": profile, "jobs": 2, "failed": failed,
        "sim": {"total_s": total, "wall_s": total, "sched_s": 0.0,
                "map_s": 6.0, "reduce_s": 4.0},
        "bytes": {"map_input": 1000, "shuffle_raw": 500, "shuffle_wire": 400,
                  "dfs_write": 100, "remote_read": 0},
        "per_job": [
            {"name": "AGG1", "map_s": 3.0, "reduce_s": 2.0,
             "shuffle_wire": 200, "failed": False},
            {"name": "JOIN2", "map_s": 3.0, "reduce_s": 2.0,
             "shuffle_wire": 200, "failed": failed},
        ],
    }


def report(bench, records, toolchain=TOOLCHAIN):
    return {"schema_version": 2, "bench": bench, "git_sha": "test",
            "toolchain": toolchain, "records": records}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = tmp.name
        self.baseline = os.path.join(self.dir, "baseline.json")

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_tool(self, *args):
        """(exit code, stderr) of bench_diff over the test baseline."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = bench_diff.main(
                ["bench_diff.py", "--baseline", self.baseline, *args])
        return rc, err.getvalue()

    def bless(self, *records):
        path = self.write("bless.json", report("b", list(records)))
        self.assertEqual(self.run_tool("--update", path)[0], 0)

    def gate(self, *records, toolchain=TOOLCHAIN):
        path = self.write("fresh.json", report("b", list(records), toolchain))
        return self.run_tool(path)

    def assert_fails_on(self, fresh, field):
        rc, err = self.gate(fresh)
        self.assertEqual(rc, 1, err)
        self.assertIn(f"DIFF b/q1/ysmart {field}:", err)

    def baseline_runs(self):
        return bench_diff.read_baseline(self.baseline)[1]

    def test_identical_reports_pass(self):
        self.bless(record("q1"), record("q2", failed=True))
        self.assertEqual(
            self.gate(record("q1"), record("q2", failed=True))[0], 0)

    def test_one_ulp_in_map_s_fails_with_total_unchanged(self):
        self.bless(record())
        fresh = record()
        fresh["sim"]["map_s"] = math.nextafter(6.0, math.inf)
        self.assertEqual(fresh["sim"]["total_s"], record()["sim"]["total_s"])
        self.assert_fails_on(fresh, "sim.map_s")
        diff_path = os.path.join(self.dir, "diff.json")
        path = self.write("fresh.json", report("b", [fresh]))
        self.assertEqual(self.run_tool("--write-diff", diff_path, path)[0], 1)
        with open(diff_path) as f:
            diff = json.load(f)
        self.assertEqual(diff["compared"], 1)
        self.assertEqual(
            [(d["run"], d["field"], d["baseline"], d["fresh"])
             for d in diff["differences"]],
            [("b/q1/ysmart", "sim.map_s", 6.0, fresh["sim"]["map_s"])])

    def test_job_count_change_fails_both_ways(self):
        self.bless(record())
        for delta in (1, -1):
            fresh = record()
            fresh["jobs"] += delta
            self.assert_fails_on(fresh, "jobs")

    def test_shuffle_wire_bytes_change_fails_both_ways(self):
        self.bless(record())
        for delta in (1, -1):
            fresh = record()
            fresh["bytes"]["shuffle_wire"] += delta
            self.assert_fails_on(fresh, "bytes.shuffle_wire")

    def test_per_job_reduce_time_change_fails(self):
        self.bless(record())
        fresh = record()
        fresh["per_job"][1]["reduce_s"] = 1.5  # faster is a change too
        self.assert_fails_on(fresh, "per_job[1].reduce_s")

    def test_failed_flip_fails_both_ways(self):
        for was_failed in (False, True):
            self.bless(record(failed=was_failed))
            self.assert_fails_on(record(failed=not was_failed), "failed")

    def test_missing_baseline_run_fails(self):
        self.bless(record("q1"), record("q2"))
        rc, err = self.gate(record("q1"))
        self.assertEqual(rc, 1)
        self.assertIn("MISSING RUN b/q2/ysmart", err)

    def test_new_run_fails(self):
        self.bless(record("q1"))
        rc, err = self.gate(record("q1"), record("q2"))
        self.assertEqual(rc, 1)
        self.assertIn("NEW RUN b/q2/ysmart", err)

    def test_other_toolchain_exits_2_without_comparing(self):
        self.bless(record())
        fresh = record()
        fresh["jobs"] += 1
        diff_path = os.path.join(self.dir, "diff.json")
        path = self.write("fresh.json",
                          report("b", [fresh], toolchain=OTHER_TOOLCHAIN))
        rc, err = self.run_tool("--write-diff", diff_path, path)
        self.assertEqual(rc, 2)
        self.assertNotIn("DIFF", err)
        self.assertIn(OTHER_TOOLCHAIN, err)
        self.assertFalse(os.path.exists(diff_path))

    def test_reports_from_two_toolchains_are_refused(self):
        self.bless(record("q1"), record("q2"))
        a = self.write("a.json", report("b", [record("q1")]))
        b = self.write("b.json", report("b", [record("q2")], OTHER_TOOLCHAIN))
        self.assertEqual(self.run_tool(a, b)[0], 2)
        self.assertEqual(self.run_tool("--update", a, b)[0], 2)

    def test_update_only_keeps_every_other_entry(self):
        self.bless(record("q1", total=10.0), record("q2", total=20.0))
        # Both runs moved, but only q1 is being blessed.
        fresh = self.write("fresh.json", report(
            "b", [record("q1", total=11.0), record("q2", total=99.0)]))
        self.assertEqual(self.run_tool("--update", "--only", "b/q1", fresh)[0],
                         0)
        runs = self.baseline_runs()
        self.assertEqual(runs[("b", "q1", "ysmart")],
                         record("q1", total=11.0))
        self.assertEqual(runs[("b", "q2", "ysmart")],
                         record("q2", total=20.0))

    def test_update_only_refuses_other_toolchain(self):
        self.bless(record())
        with open(self.baseline) as f:
            before = f.read()
        fresh = self.write("fresh.json", report(
            "b", [record(total=11.0)], toolchain=OTHER_TOOLCHAIN))
        self.assertEqual(self.run_tool("--update", "--only", "b", fresh)[0], 2)
        with open(self.baseline) as f:
            self.assertEqual(f.read(), before)

    def test_update_only_matches_whole_components(self):
        self.bless(record("q1"))
        fresh = self.write("fresh.json", report("b", [record("q1", total=12.0)]))
        # "b/q" must not prefix-match "b/q1"; "b" matches every b run.
        self.assertEqual(self.run_tool("--update", "--only", "b/q", fresh)[0],
                         2)
        self.assertEqual(self.run_tool("--update", "--only", "b", fresh)[0], 0)
        self.assertEqual(self.baseline_runs()[("b", "q1", "ysmart")],
                         record("q1", total=12.0))

    def test_only_without_update_is_usage_error(self):
        self.bless(record())
        fresh = self.write("fresh.json", report("b", [record()]))
        self.assertEqual(self.run_tool("--only", "b/q1", fresh)[0], 2)

    def test_analyzer_and_plan_embeds_are_ignored(self):
        embedded = dict(record(), analyzer={"critical_path_s": 1.0},
                        plan={"max_q": 2.0})
        self.bless(embedded)
        self.assertEqual(self.baseline_runs()[("b", "q1", "ysmart")],
                         record())
        self.assertEqual(self.gate(record())[0], 0)
        embedded["analyzer"]["critical_path_s"] = 3.0
        self.assertEqual(self.gate(embedded)[0], 0)

    def test_bless_diff_is_one_line_per_moved_run(self):
        self.bless(record("q1"), record("q2"), record("q3"))
        with open(self.baseline) as f:
            before = f.read().splitlines()
        self.bless(record("q1"), record("q2", total=11.0), record("q3"))
        with open(self.baseline) as f:
            after = f.read().splitlines()
        changed = [line for line in difflib.ndiff(before, after)
                   if line.startswith("+ ")]
        self.assertEqual(len(changed), 1)
        self.assertIn('"query": "q2"', changed[0])


if __name__ == "__main__":
    unittest.main()
