"""Run one job batch in this fresh interpreter and report on stdout.

Usage: python3 -I bench/worker.py < request.json

The request is {"src": <dir holding cylgf>, "jobs": [argv, ...],
"trace": bool, "spans": <path or null>}.  Jobs run in a closed loop, one
client: each calls cylgf.cli.main(argv) in-process with stdout captured,
only after the previous one returned, and the speed kernel (speed.py) runs
once before the first job and after each.  The reply is one JSON object with
each job's exit code, output, wall and CPU seconds, the kernel samples, the
peak resident memory and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed batch
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, request["src"])
    import cylgf.cli
    from cylgf import cylindric, genfun, lemmas, series, slices

    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import speed

    entry = cylgf.cli.main
    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, {
            "series": series, "slices": slices, "genfun": genfun,
            "lemmas": lemmas, "cylindric": cylindric, "cli": cylgf.cli})
        entry = tracer.wrap("cli", entry)

    jobs = [list(argv) for argv in request["jobs"]]
    results = []
    clock, cpu_clock = time.perf_counter, time.process_time
    speed.kernel()
    kernel_s = [speed.sample()]
    for i, argv in enumerate(jobs):
        if tracer:
            tracer.job = i
        start, cpu_start = clock(), cpu_clock()
        rc, out, err = run_job(entry, argv)
        results.append((rc, out, err, clock() - start, cpu_clock() - cpu_start))
        kernel_s.append(speed.sample())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reply = {
        "peak_rss_mb": peak_kb / 1024,
        "kernel_s": kernel_s,
        "jobs": [{"rc": rc, "out": out, "err": err, "s": s, "cpu_s": cpu_s}
                 for rc, out, err, s, cpu_s in results],
    }
    if tracer:
        output_bytes = sum(len(result[1].encode()) for result in results)
        reply["layers"] = tracing.layer_metrics(tracer, output_bytes)
        if request["spans"]:
            spans_path = Path(request["spans"])
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "job", "busy"],
                 "spans": tracer.spans}))
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
