"""Closed-loop job runner: one process, one client, jobs back to back.

    python3 perfbench/worker.py MANIFEST SECONDS TRACE RESULT [SPANS]

Imports ``dm_stegkit.cli`` from the checkout's ``src`` and repeats passes
over the manifest's jobs, each through ``cli.run(argv)`` with its JSON
envelope captured, until SECONDS have elapsed (at least one pass). Only the
``cli.run`` calls are timed; every job's output is checked after the pass.
After each job the worker runs the host-speed reference (``hostspeed``) for
a fifth of the job's time, and each pass records its host factor.
With TRACE 1 plain passes alternate with passes during which the tracer
wraps the layer boundaries, and the spans are written to SPANS at the end.
RESULT receives the per-pass records and the process's peak resident
memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import Meter  # noqa: E402
from tracer import Tracer  # noqa: E402

# after each job, run the host-speed reference for this share of its time
REF_SHARE = 0.2


def load_cli():
    sys.path.insert(0, SRC)
    import dm_stegkit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dm_stegkit imported from {cli.__file__}, not {SRC}")
    return cli


def _sizes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def run_job(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = cli.run(argv)
        except SystemExit as exc:             # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:                     # a crash is a failed job, not a failed run
            traceback.print_exc(file=sys.stderr)
            status = -1
    return status, buf.getvalue()


def run_pass(cli, jobs, memos, tracer=None, first_job_id=0) -> dict:
    times, outputs = [], []
    meter = Meter()
    for j, job in enumerate(jobs):
        ctx = tracer.job_span(first_job_id + j) if tracer else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            status, out = run_job(cli, job["argv"])
            times.append(time.perf_counter() - t0)
        outputs.append((status, out))
        meter.run(REF_SHARE * times[-1])

    records = []
    bytes_in = bytes_out = 0
    for job, memo, dt, (status, out) in zip(jobs, memos, times, outputs):
        try:
            env = json.loads(out)
        except ValueError:
            env = {}
            status = status or -1
        try:
            problems = workloads.check(job, status, env, memo)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            problems = [("error", f"malformed output: {exc!r}")]
        bytes_in += _sizes(job["inputs"])
        bytes_out += _sizes(job["outputs"]) + len(out)
        records.append({"name": job["name"], "metric": job["metric"], "s": dt,
                        "problems": problems})
    kinds = {m: sum((r["s"] for r in records if r["metric"] == m), 0.0)
             for m in workloads.PER_KIND}
    return {"wall_s": sum(times), "kinds": kinds, "jobs": records,
            "bytes_in": bytes_in, "bytes_out": bytes_out, "host_factor": meter.factor()}


def run(jobs, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    """Passes over ``jobs`` until ``seconds`` have elapsed (at least one).

    With ``trace``, passes come in pairs of one plain and one traced pass,
    in alternating order (plain first, then traced first), so that the
    paired differences give the tracing overhead free of the host's drift.
    Plain passes go to "passes", traced ones to "traced".
    """
    cli = load_cli()
    tracer = Tracer() if trace else None
    memos = [{} for _ in jobs]
    passes, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if not trace:
            order = (False,)
        elif len(passes) % 2 == 0:
            order = (False, True)
        else:
            order = (True, False)
        for with_trace in order:
            gc.collect()
            if not with_trace:
                passes.append(run_pass(cli, jobs, memos))
                continue
            tracer.install()
            first = len(tracer)
            rec = run_pass(cli, jobs, memos, tracer, len(traced) * len(jobs))
            rec["layers"] = tracer.pass_metrics(first)
            tracer.uninstall()
            traced.append(rec)
        if time.perf_counter() >= deadline:
            break
    result = {"passes": passes, "traced": traced,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["absent"] = tracer.absent_metrics()
        if spans_path:
            tracer.dump(spans_path, [job["name"] for job in jobs] * len(traced))
    return result


def main(argv):
    manifest, seconds, trace, result_path = argv[:4]
    with open(manifest, encoding="utf-8") as fh:
        jobs = json.load(fh)
    result = run(jobs, float(seconds), trace == "1", argv[4] if len(argv) > 4 else None)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
