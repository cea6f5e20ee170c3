#!/usr/bin/env python3
"""Self-check of the benchmark's input generation.

The same --seed must yield byte-identical inputs (CSVs and request
sequences) from two separate processes, and a different seed must yield
different ones. Run from the repository root:
  python3 perfbench/test_inputs.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def digests(directory):
    """Maps each generated file name to the SHA-256 of its bytes."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


class InputGenerationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = run.repo_root()
        cls.binary = run.build(cls.root)
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        cls.scratch = os.path.join(cls.root, ".bench_out", "selftest")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def generate(self, workload, seed, tag):
        directory = os.path.join(self.scratch, "%s-%d-%s" % (workload, seed, tag))
        self.assertTrue(run.generate(self.binary, workload, seed, directory))
        return digests(directory)

    def test_same_seed_is_byte_identical_and_seeds_differ(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.generate(workload, 7, "a")
                again = self.generate(workload, 7, "b")
                other = self.generate(workload, 8, "c")
                self.assertIn("requests.jsonl", first)
                self.assertEqual(first, again)
                self.assertEqual(sorted(first), sorted(other))
                # The request sequence always moves with the seed; the
                # tables do only in staples_ingest_wire (see inputs.cpp).
                self.assertNotEqual(first["requests.jsonl"],
                                    other["requests.jsonl"])


if __name__ == "__main__":
    unittest.main()
