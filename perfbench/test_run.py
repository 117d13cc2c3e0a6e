#!/usr/bin/env python3
"""Self-tests of the benchmark harness (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402

REF = {"size": 16, "iterations": 434, "result": "6.380125e4", "max_rel_diff": "1.455524e-13"}
VERBOSE = ("Run completed:\n        MaxAbsDiff   = 9.549694e-12\n"
           "        MaxRelDiff   = 1.455524e-13\n")
ROW = "16,11,434,2,1.763240,6.380125e4"


def csv(row):
    return f"{run.CSV_HEADER}\n{row}\n"


class ParseAndCheck(unittest.TestCase):
    def test_good_row_passes(self):
        parsed = run.parse_output(csv(ROW), VERBOSE)
        self.assertEqual(run.check_output(parsed, REF), [])
        self.assertAlmostEqual(parsed["runtime"], 1.76324)

    def test_row_after_live_metrics_jsonl(self):
        jsonl = "".join(
            json.dumps({"schema": 2, "kind": "live", "step": s, "max_step_ns": 2808829}) + "\n"
            for s in range(1, 4))
        parsed = run.parse_output(jsonl + csv(ROW) + jsonl, VERBOSE)
        self.assertEqual(run.check_output(parsed, REF), [])

    def test_corrupted_rows_fail(self):
        for row in ("16,11,434,2,1.763240,6.380126e4",   # one digit of result
                    "16,11,433,2,1.763240,6.380125e4",   # iteration count
                    "12,11,434,2,1.763240,6.380125e4"):  # problem size
            parsed = run.parse_output(csv(row), VERBOSE)
            self.assertNotEqual(run.check_output(parsed, REF), [], row)
        for row in ("16,11,434,2,1.763240", "16,11,4x4,2,1.7,6.380125e4",
                    "16,11,434,2,0.0,6.380125e4", "16,11,434,2,1.7,energy"):
            with self.assertRaises(ValueError, msg=row):
                run.parse_output(csv(row), VERBOSE)
        with self.assertRaises(ValueError):
            run.parse_output(run.CSV_HEADER + "\n", VERBOSE)

    def test_symmetry_mismatch_fails(self):
        parsed = run.parse_output(csv(ROW), VERBOSE.replace("1.455524e-13", "1.455525e-13"))
        self.assertNotEqual(run.check_output(parsed, REF), [])


def script(tdir, name, stdout, stderr="", code=0):
    path = os.path.join(tdir, "release", name)
    with open(path, "w", encoding="utf-8") as f:
        f.write("#!/usr/bin/env python3\nimport sys\n"
                f"sys.stdout.write({stdout!r})\nsys.stderr.write({stderr!r})\n"
                f"sys.exit({code})\n")
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)


def fake_driver(tdir, stdout, code=0):
    """Stand-ins for `lulesh-task` (prints `stdout` and the verbose block)
    and for the work query of `perfbench-trace`."""
    os.makedirs(os.path.join(tdir, "release"))
    script(tdir, "lulesh-task", stdout, VERBOSE, code)
    script(tdir, "perfbench-trace", '{"mean_rep": 1.0}\n')


class FailedRunsAreCounted(unittest.TestCase):
    def run_fake(self, stdout, code=0):
        with tempfile.TemporaryDirectory() as tdir:
            fake_driver(tdir, stdout, code)
            return run.end_to_end(tdir, "task-fine", 1, 0.0)

    def test_good_runs_pass(self):
        runs, attempted, failed, _ = self.run_fake(csv(ROW))
        self.assertEqual(failed, 0)
        self.assertEqual(len(runs), attempted - 1)  # the warm-up is not measured

    def test_corrupted_row_counts_as_failed(self):
        runs, attempted, failed, failures = self.run_fake(csv(ROW.replace("6.380125e4", "6.4e4")))
        self.assertEqual(runs, [])
        self.assertEqual(failed, attempted)
        self.assertIn("result", failures[0][0])

    def test_nonzero_exit_counts_as_failed(self):
        _, attempted, failed, _ = self.run_fake(csv(ROW), code=1)
        self.assertEqual(failed, attempted)


class Stamps(unittest.TestCase):
    STAMP = {"profile": "release", "cpu_model": "X", "nproc": 2, "target_arch": "x86_64",
             "target_features": ["sse2"]}

    def result(self, **stamp):
        return {"workload": "task-fine", "trace": 0, "stamp": {**self.STAMP, **stamp}}

    def test_same_host_compares(self):
        self.assertEqual(compare.refusals(self.result(), self.result()), [])

    def test_profile_or_host_mismatch_is_refused(self):
        self.assertTrue(compare.refusals(self.result(), self.result(profile="debug")))
        self.assertTrue(compare.refusals(self.result(), self.result(nproc=4)))
        self.assertTrue(compare.refusals(self.result(), self.result(cpu_model="Y")))


if __name__ == "__main__":
    unittest.main()
