"""Self-tests of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

They check that every workload runs and passes its output checks, that the
generators are deterministic, that a wrong output is counted as failed,
that the printed result matches BENCHMARK.json, and that the benchmark
refuses to run without the program's sources. Scratch files go under
``.bench_work`` in the checkout and are removed afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")


def tiny_jobs(workload: str, seed: int = 1, name: str = "") -> list[dict]:
    return workloads.generate(workload, seed, os.path.join(SCRATCH, name or workload), "tiny")


def files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class SelfTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(SCRATCH))

    def test_tiny_smoke_each_workload(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = worker.run(tiny_jobs(workload), 0, False)
                attempted, failed, _ = run.tally(result)
                self.assertGreater(attempted, 0)
                self.assertEqual(failed, 0, result["passes"][0]["jobs"])

    def test_generators_are_deterministic(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = tiny_jobs(workload, 7, f"{workload}-a")
                b = tiny_jobs(workload, 7, f"{workload}-b")
                c = tiny_jobs(workload, 8, f"{workload}-c")
                self.assertEqual([j["truth"] for j in a], [j["truth"] for j in b])
                da, db, dc = (files(os.path.join(SCRATCH, f"{workload}-{k}")) for k in "abc")
                self.assertEqual(da, db)
                if workload != "orient":          # the towers fixture is seed-free
                    self.assertNotEqual(da, dc)
                else:
                    self.assertNotEqual(da["spheres.stl"], dc["spheres.stl"])

    def test_wrong_check_counts_as_failed(self):
        jobs = tiny_jobs("ingest")
        info = next(j for j in jobs if j["check"] == "stl_info")
        info["truth"] = dict(info["truth"], triangles=info["truth"]["triangles"] + 1)
        result = worker.run(jobs, 0, False)
        attempted, failed, bad = run.tally(result)
        self.assertEqual((failed, bad), (1, 1))
        self.assertEqual(attempted, len(jobs))

    def test_search_miss_counts_in_fail_ratio_only(self):
        job = {"check": "qr3d_search", "inputs": [],
               "truth": {"direction": [0.0, 0.0, 1.0], "bits": "P1\n2 2\n1 1\n1 1\n",
                         "must_recover": False}}
        env = {"result": {"direction": [1.0, 0.0, 0.0], "modules": 2,
                          "pbm": "P1\n2 2\n1 1\n1 1\n", "estimated_pitch": 2.0}}
        problems = workloads.check(job, 0, env, {})
        self.assertEqual([k for k, _ in problems], ["miss"])

    def test_wrong_direction_below_subsample_counts_as_failed(self):
        jobs = tiny_jobs("qr3d", name="qr3d-wrong")
        search = next(j for j in jobs if j["check"] == "qr3d_search")
        self.assertTrue(search["truth"]["must_recover"])
        x, y, z = search["truth"]["direction"]
        search["truth"] = dict(search["truth"], direction=[y, z, x])
        result = worker.run(jobs, 0, False)
        attempted, failed, bad = run.tally(result)
        self.assertEqual((failed, bad), (1, 1))

    def test_result_lines_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(spec["command"][1], "perfbench/run.py")
        sizes = dict(workloads.SIZES)
        workloads.SIZES["full"] = workloads.SIZES["tiny"]
        try:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run.main(["--workload", "ingest", "--seed", "3",
                                     "--seconds", "0", "--trace", str(trace)])
                self.assertEqual(code, 0)
                last = json.loads(buf.getvalue().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {m: v["unit"] for m, v in last["metrics"].items()}
                self.assertEqual(got, want)
        finally:
            workloads.SIZES.update(sizes)

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orient",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
