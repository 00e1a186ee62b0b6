"""Smoke test of the benchmark harness on its one-job workload (Q, n=2, B=100).

    python3 perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import jobs_for  # noqa: E402

METRIC_LINE = re.compile(r"metric (\S+) (\S+) (\S+)")


def bench_run(script, trace, cwd=None):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


class HarnessSmoke(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_run(HERE / "run.py", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            printed = {}
            for line in lines:
                m = METRIC_LINE.fullmatch(line)
                if m:
                    printed[m.group(1)] = m.group(3)
            result = json.loads(lines[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(set(result["metrics"]), set(want))
            for name, unit in want.items():
                self.assertEqual(printed.get(name), unit, name)
                self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_tampered_certificate_counts_in_fail_frac(self):
        bench = run.Bench()
        jobs = jobs_for("smoke", 0)
        honest = run.measure(run.library_pass(bench, jobs), 0)
        self.assertEqual(run.tally(honest)["fail_frac"], 0.0)
        tampered = run.measure(run.library_pass(bench, jobs, tamper=True), 0)
        self.assertEqual(run.tally(tampered)["fail_frac"], 1.0)
        self.assertTrue(tampered[0][0].reason.startswith("verify: MismatchFound"))

    def test_without_the_package_exits_nonzero_and_prints_no_result(self):
        bare = HERE / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            skip = shutil.ignore_patterns("out", "__pycache__")
            shutil.copytree(HERE, bare / "perfbench", ignore=skip)
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = bench_run(Path("perfbench") / "run.py", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
