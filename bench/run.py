"""The cylgf benchmark: seeded batches of real CLI jobs, checked and measured.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is taken from src/ next to this directory.
The workload's batch is drawn from the seed and sized so that it takes about
--seconds at the baseline commit (see workloads.py).  It runs in a fresh
interpreter (worker.py), one job after another, and every output is then
checked outside the timed region (checks.py).

--trace 0 prints the end-to-end metrics: jobs per second over the batch,
per-job p50 and p90 latency (Harrell-Davis estimates), the set-up time of a
fresh interpreter (median of several starts) and the worker's peak resident
memory.  Times are CPU times scaled to a nominal machine speed, measured by a
fixed kernel run between jobs (speed.py), since the host's speed drifts; the
raw wall-time figures are printed beside them.  --trace 1 runs the batch
untraced and then traced, each in its own interpreter, requires
byte-identical stdout from the two, and prints the per-layer metrics of the
traced run (tracer.py), which also writes its spans to
.bench_out/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A run that cannot measure (no program, a crashed
worker) exits nonzero without it.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters started to time set-up, half before the batch and
#: half after it, so that the median spans the run; one more start before
#: them only warms the bytecode cache and is not counted.
SETUP_STARTS = 20
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.process_time()\n"
    "import cylgf.cli\n"
    "cylgf.cli.build_parser()\n"
    "setup = time.process_time() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed, statistics\n"
    "speed.kernel()\n"
    "print(setup * speed.NOMINAL_S\n"
    "      / statistics.median(speed.sample() for _ in range(9)))\n"
)
WORKER_TIMEOUT_S = 150
#: Longest run whose batches still hold no repeated job (see workloads.py).
MAX_SECONDS = 30


class BenchError(RuntimeError):
    """The benchmark cannot measure: no program, or a worker crashed."""


def load_program():
    """The cylgf modules under src/, for the reference checks."""
    if not (SRC / "cylgf" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'cylgf'}")
    sys.path.insert(0, str(SRC))
    import cylgf
    from cylgf import cylindric, genfun, lemmas, slices

    if Path(cylgf.__file__).resolve().parent != SRC / "cylgf":
        raise BenchError(f"imported cylgf from {cylgf.__file__}, not {SRC}")
    return types.SimpleNamespace(
        genfun=genfun, cylindric=cylindric, slices=slices, lemmas=lemmas,
        Profile=cylindric.Profile, data_dir=SRC / "cylgf" / "data")


def run_worker(batch, trace: bool, spans: Path | None = None) -> dict:
    request = {"src": str(SRC), "jobs": [list(job.argv) for job in batch],
               "trace": trace, "spans": str(spans) if spans else None}
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py")],
        input=json.dumps(request), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def time_setup(starts: int) -> list[float]:
    """CPU seconds for each of `starts` fresh interpreters to import
    cylgf.cli and build its parser, scaled to nominal machine speed by
    kernel samples taken in the same interpreter (speed.py)."""
    times = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def check_batch(batch, reply, oracle) -> list[str | None]:
    """One verdict per job: None when correct, else the reason."""
    return [checks.check_job(job.argv, result["rc"], result["out"], oracle)
            for job, result in zip(batch, reply["jobs"])]


def quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the i-th weighted by the mass
    of Beta(p(n+1), (1-p)(n+1)) on [(i-1)/n, i/n] (midpoint rule).  Unlike a
    single order statistic it does not jump when two jobs of different cost
    swap places around the quantile.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t)
                          + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def scaled_latencies(reply) -> list[float]:
    """Each job's CPU seconds, scaled to nominal machine speed by the
    kernel samples taken around it (speed.py)."""
    local = speed.local_medians(reply["kernel_s"], len(reply["jobs"]))
    return [job["cpu_s"] * speed.NOMINAL_S / kernel_s
            for job, kernel_s in zip(reply["jobs"], local)]


def end_to_end(reply, setup_s: float) -> dict:
    latencies = scaled_latencies(reply)
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": quantile(latencies, 0.5) * 1000,
        "job_p90_ms": quantile(latencies, 0.9) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": reply["peak_rss_mb"],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        p.error(f"--seconds must be within 1..{MAX_SECONDS}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    rounds = workloads.rounds_for(args.workload, args.seconds)
    batch = workloads.make_batch(args.workload, args.seed, rounds)
    mix = Counter(job.command for job in batch)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"  jobs {len(batch)} in {rounds} rounds ("
          + ", ".join(f"{k} {v}" for k, v in sorted(mix.items())) + ")"
          f"  repeated-profile share "
          f"{workloads.repeated_profile_share(batch):.3f}")

    try:
        setup = [] if args.trace else time_setup(1 + SETUP_STARTS // 2)[1:]
        reply = run_worker(batch, trace=False)
        if not args.trace:
            setup += time_setup(SETUP_STARTS - len(setup))
        traced = None
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
            traced = run_worker(batch, trace=True, spans=spans)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    verdicts = check_batch(batch, reply, checks.Oracle(program))
    if traced:
        for i, (a, b) in enumerate(zip(reply["jobs"], traced["jobs"])):
            if verdicts[i] is None and (a["rc"], a["out"]) != (b["rc"], b["out"]):
                verdicts[i] = "traced output differs from untraced output"
    failed = [(job, why, result["err"].strip().splitlines()[-1:])
              for job, why, result in zip(batch, verdicts, reply["jobs"]) if why]
    for job, why, err in failed:
        print(f"  FAILED {' '.join(job.argv)[:160]}: {why} {''.join(err)}")

    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    if traced:
        layers = traced["layers"]
        metrics = dict(layers["metrics"])
        metrics["trace_overhead"] = (sum(job["s"] for job in traced["jobs"])
                                     / sum(job["s"] for job in reply["jobs"]))
        print("  self-time share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in layers["shares"].items()))
    else:
        metrics = end_to_end(reply, statistics.median(setup))
        wall = [job["s"] for job in reply["jobs"]]
        print(f"  raw wall time: jobs_per_s {len(wall) / sum(wall):.4f}, "
              f"job_p50_ms {quantile(wall, 0.5) * 1000:.3f}, "
              f"job_p90_ms {quantile(wall, 0.9) * 1000:.3f}; kernel median "
              f"{statistics.median(reply['kernel_s']) * 1000:.3f} ms "
              f"(nominal {speed.NOMINAL_S * 1000:.3f})")
    n = len(batch)
    for name, value in metrics.items():
        note = ""
        if name.startswith("job_p"):
            note = f"  (n={n})"
        elif name == "setup_s":
            note = f"  (median of {SETUP_STARTS} fresh starts)"
        print(f"  {name:34} {value:<22} {units[name]}{note}")
    print(f"  {'fail_ratio':34} {len(failed) / n:<22} ratio  "
          f"({len(failed)}/{n})")

    result = {
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
