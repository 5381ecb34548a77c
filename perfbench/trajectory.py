"""Record one point of the performance trajectory.

    python3 perfbench/trajectory.py --label NAME --out perfbench/trajectory/NAME.json

Runs ``run.py --trace 0`` once for each of the seeds 1 to 10 on every
workload, at BENCHMARK.json's ``run_seconds``, then one ``--trace 1`` run on
seed 1, and writes per workload the median, quartiles and spread
((q3 - q1) / median) of every end-to-end metric, the per-layer metrics of
the traced run, the failures, and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    result = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return result, json.load(fh)


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    point = {"label": args.label, "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, s, seconds, 0) for s in SEEDS]
        traced, traced_report = bench(workload, SEEDS[0], seconds, 1)
        point["machine"] = traced_report["machine"]
        metrics = {m: describe([r["metrics"][m]["value"] for r, _ in runs])
                   for m in runs[0][0]["metrics"]}
        point["workloads"][workload] = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r, _ in runs + [(traced, None)]),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "fail_ratio": describe([rep["fail_ratio"] for _, rep in runs]),
            "problems": sorted({p for _, rep in runs for p in rep["problems"]}),
            "end_to_end": metrics,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "absent": traced_report["absent"],
        }
        print(workload, {m: (round(d["median"], 4), round(d["spread"], 4))
                         for m, d in metrics.items()}, flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
