#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark, runs perfbench_selftest (span self-time arithmetic,
percentile and tail rules, request-mix byte stability), then checks end to
end that a run at the default seed passes, and that a perturbed committed
digest, or one corrupted output byte, makes the run report
"correct": false and exit non-zero, with and without committed digests
(seed 2 has none, so only the cross-backend checks can catch it).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)


def bench(*extra):
    """Runs one short paper-uniform-k run; returns (exit code, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", "paper-uniform-k", "--seconds", "1",
               "--trace", "0"] + list(extra)
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=run.ROOT, timeout=300)
    lines = done.stdout.strip().split("\n")
    return done.returncode, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(["perfbench", "perfbench_selftest"])

    def test_unit_selftest(self):
        done = subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_default_seed_passes(self):
        code, result = bench("--seed", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_perturbed_digest_fails(self):
        code, result = bench("--seed", "1", "--perturb", "digest")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_perturbed_output_fails(self):
        code, result = bench("--seed", "1", "--perturb", "output")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])

    def test_perturbed_output_fails_without_digest(self):
        code, result = bench("--seed", "2", "--perturb", "output")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
