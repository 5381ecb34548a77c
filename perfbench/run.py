"""dm-stegkit benchmark: seeded CLI workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {orient,qr3d,ingest} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout that has ``src/dm_stegkit``. The run

1. writes the workload's inputs, generated from the seed, to a scratch
   directory inside the checkout (``.bench_work``);
2. with ``--trace 0``, times fresh interpreters that import
   ``dm_stegkit.cli`` and build its parser (``setup_s``);
3. runs the jobs back to back in a separate worker process for S seconds,
   checking every output (``wall_s``, ``peak_rss_mb``); both times are
   rescaled to a reference host speed measured alongside (``hostspeed``);
4. with ``--trace 1``, has that worker alternate plain and traced passes
   instead and reports the per-layer metrics, with the tracing overhead as
   the median of traced minus plain ``wall_s`` over pairs of passes.

The full report, with the machine record, goes to ``.bench_out``; the last
line of stdout is the JSON result. Every child process is waited for and
the scratch directory is removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# keep bytecode caches inside the checkout
sys.pycache_prefix = os.path.join(ROOT, ".bench_build", "pycache")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
import hostspeed  # noqa: E402

SETUP_RUNS = 12
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0
SETUP_CODE = "import dm_stegkit.cli as c; c.build_parser()"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
UNITS = {**{m: "s" for m in workloads.PER_KIND},
         "fail_ratio": "1", "qr3d.recovered_ratio": "1", "trace_overhead_s": "s",
         "cli.bytes_in": "B", "cli.bytes_out": "B"}


def layer_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name in tracer.RATIOS:
        return "1"
    return "count"


PER_LAYER = {m: layer_unit(m) for m in (*UNITS, *tracer.METRICS)}


def child_env(work: str) -> dict:
    env = dict(os.environ)
    env.pop("DM_STEGKIT_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)     # cached bytecode, as an install has
    env.update({
        "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS, "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": sys.pycache_prefix, "TMPDIR": work,
        "PYTHONPATH": os.path.join(ROOT, "src"),
    })
    return env


def machine_record() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(BLAS_THREADS)}


def summary(values: list[float]) -> dict:
    """Mean, median, sample count, the highest of p90/p99/p99.9 that has at
    least ten samples beyond it, and the samples themselves."""
    out = {"mean": statistics.fmean(values), "median": statistics.median(values),
           "samples": len(values), "values": values}
    for p in (99.9, 99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            break
    return out


def time_interpreter(code: str, env: dict) -> float:
    cmd = [sys.executable, "-c", code]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    # a blocking wait: waiting with a timeout polls in steps of up to 50 ms
    timer = threading.Timer(60, proc.kill)
    timer.start()
    code_ = proc.wait()
    elapsed = time.perf_counter() - t0
    timer.cancel()
    if code_:
        raise subprocess.CalledProcessError(code_, cmd)
    return elapsed


def time_setup(env: dict, pairs: int) -> list[tuple[float, float]]:
    """(set-up, reference start-up) times of ``pairs`` pairs of fresh
    interpreters, run one at a time, the pair's order alternating."""
    for code in (SETUP_CODE, hostspeed.STARTUP_CODE):    # these only fill the caches
        time_interpreter(code, env)
    times = []
    for i in range(pairs):
        order = (SETUP_CODE, hostspeed.STARTUP_CODE)[::-1 if i % 2 else 1]
        t = {code: time_interpreter(code, env) for code in order}
        times.append((t[SETUP_CODE], t[hostspeed.STARTUP_CODE]))
    return times


def run_worker(manifest: str, seconds: int, trace: int, work: str, env: dict,
               deadline: float, spans: str | None = None) -> dict:
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest, str(seconds),
           str(trace), result] + ([spans] if spans else [])
    subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                   timeout=max(1.0, deadline - time.perf_counter()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def tally(run: dict) -> tuple[int, int, int]:
    """(job runs attempted, job runs failed, job runs failed or missed)."""
    jobs = [j for p in run["passes"] + run["traced"] for j in p["jobs"]]
    failed = sum(any(k == "error" for k, _ in j["problems"]) for j in jobs)
    return len(jobs), failed, sum(bool(j["problems"]) for j in jobs)


def layer_metrics(run: dict) -> dict:
    med = statistics.median
    plain, traced = run["passes"], run["traced"]
    out = {m: med(p["kinds"][m] for p in plain) for m in workloads.PER_KIND}
    searches = [j for p in plain for j in p["jobs"] if j["metric"] == "qr3d_search_s"]
    out["qr3d.recovered_ratio"] = (sum(not j["problems"] for j in searches) / len(searches)
                                   if searches else 0.0)
    out["trace_overhead_s"] = med(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    out["cli.bytes_in"] = med(p["bytes_in"] for p in traced)
    out["cli.bytes_out"] = med(p["bytes_out"] for p in traced)
    for m in tracer.METRICS:
        out[m] = med(p["layers"][m] for p in traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dm_stegkit", "cli.py")):
        print(f"no dm_stegkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        jobs = workloads.generate(args.workload, args.seed, work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        env = child_env(work)
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_record(),
                  "jobs": [j["name"] for j in jobs]}
        if args.trace:
            spans = os.path.join(outdir, f"spans-{tag}.json")
            run = run_worker(manifest, args.seconds, 1, work, env, deadline, spans)
            metrics = layer_metrics(run)
            report["absent"] = run["absent"]
            report["bases"] = run["traced"][-1]["layers"]["bases"]
            report["spans"] = os.path.relpath(spans, ROOT)
            units = PER_LAYER
        else:
            # sample set-up on both sides of the jobs, which take a while
            setup = time_setup(env, SETUP_RUNS // 2)
            run = run_worker(manifest, args.seconds, 0, work, env, deadline)
            setup += time_setup(env, SETUP_RUNS - SETUP_RUNS // 2)
            # rescale the times towards the host speed of the reference task
            walls = [p["wall_s"] for p in run["passes"]]
            factors = [p["host_factor"] for p in run["passes"]]
            wall_norm = [w / f ** hostspeed.EXPONENT for w, f in zip(walls, factors)]
            setup_norm = [t / r * hostspeed.STARTUP_S for t, r in setup]
            metrics = {"setup_s": statistics.median(setup_norm),
                       "wall_s": statistics.median(wall_norm),
                       "peak_rss_mb": run["peak_rss_mb"]}
            report["setup_s"] = summary(setup_norm)
            report["setup_raw_s"] = summary([t for t, _ in setup])
            report["startup_raw_s"] = summary([r for _, r in setup])
            report["wall_s"] = summary(wall_norm)
            report["wall_raw_s"] = summary(walls)
            report["host_factor"] = summary(factors)
            report["per_kind_s"] = {m: summary([p["kinds"][m] for p in run["passes"]])
                                    for m in workloads.PER_KIND}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):        # only if no other run uses it
            os.rmdir(os.path.dirname(work))

    attempted, failed, bad = tally(run)
    report["fail_ratio"] = metrics["fail_ratio"] = bad / attempted
    report["problems"] = sorted({f"{j['name']}: {kind}: {text}"
                                 for p in run["passes"] + run["traced"] for j in p["jobs"]
                                 for kind, text in j["problems"]})
    report["passes"] = [len(run["passes"]), len(run["traced"])]
    report["metrics"] = metrics
    with open(os.path.join(outdir, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "passes", "fail_ratio",
                                              "problems")}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
