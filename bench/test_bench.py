"""Self-test of the benchmark.

Every workload runs at a tiny size and passes its checks, the exact counters
repeat between two traced runs of one seed, and wrong outputs (a perturbed
coefficient, a FAIL line, a nonzero exit) are each counted as failures.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    return checks.Oracle(run.load_program())


def tiny(batch):
    """The cheapest job of each kind in the batch."""
    cheapest = {}
    for job in batch:
        kind = (job.command, "--all" in job.argv, "--boards" in job.argv,
                "json" in job.argv)
        if kind not in cheapest or job.order < cheapest[kind].order:
            cheapest[kind] = job
    return list(cheapest.values())


@pytest.fixture(scope="module")
def tiny_runs():
    """Per workload: the tiny batch, its untraced reply, two traced replies."""
    out = {}
    for name in spec.WORKLOAD_NAMES:
        batch = tiny(workloads.make_batch(name, 1, 1))
        out[name] = (batch, run.run_worker(batch, trace=False),
                     run.run_worker(batch, trace=True),
                     run.run_worker(batch, trace=True))
    return out


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_spec_within_contract_limits():
    data = spec.benchmark_json()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    names += [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in data["workloads"])
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(spec.EXACT_COUNTERS) <= {m["name"] for m in data["per_layer"]}


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_batch_repeats_per_seed_and_holds_no_repeated_job(name):
    rounds = workloads.rounds_for(name, spec.RUN_SECONDS)
    batch = workloads.make_batch(name, 7, rounds)
    assert len(batch) >= workloads.MIN_JOBS
    assert batch == workloads.make_batch(name, 7, rounds)
    assert batch != workloads.make_batch(name, 8, rounds)
    keys = [(job.command, job.profile, job.order) for job in batch]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_tiny_batch_passes_and_counters_repeat(name, tiny_runs, oracle):
    batch, plain, traced, again = tiny_runs[name]
    assert run.check_batch(batch, plain, oracle) == [None] * len(batch)
    outputs = [(job["rc"], job["out"]) for job in plain["jobs"]]
    assert [(job["rc"], job["out"]) for job in traced["jobs"]] == outputs
    first, second = traced["layers"]["metrics"], again["layers"]["metrics"]
    assert {k: first[k] for k in spec.EXACT_COUNTERS} == \
        {k: second[k] for k in spec.EXACT_COUNTERS}
    assert set(first) | {"trace_overhead"} == {m["name"] for m in spec.PER_LAYER}


def test_quantile_estimates():
    ranks = list(range(1, 101))
    assert run.quantile(ranks, 0.5) == pytest.approx(50.5)
    assert run.quantile(ranks, 0.9) == pytest.approx(90.5, abs=0.1)
    assert run.quantile([7.0] * 10, 0.9) == pytest.approx(7.0)


def test_times_are_scaled_by_the_kernel_samples_around_each_job():
    """Jobs timed while the kernel ran twice as slow as nominal count half;
    each job is scaled by the samples near it, not by the run's median."""
    slow, fast = 2 * speed.NOMINAL_S, speed.NOMINAL_S
    reply = {"kernel_s": [slow] * 11 + [fast] * 30,
             "jobs": [{"cpu_s": 0.2}] * 40}
    scaled = run.scaled_latencies(reply)
    assert scaled[0] == pytest.approx(0.1)
    assert scaled[-1] == pytest.approx(0.2)


def _bump_coefficient(out: str) -> str:
    """Add one to the last coefficient of a text or JSON series."""
    if out.startswith("{"):
        data = json.loads(out)
        data["coeffs"][-1] = str(int(data["coeffs"][-1]) + 1)
        return json.dumps(data) + "\n"
    coeffs = json.loads(out)
    coeffs[-1] += 1
    return str(coeffs) + "\n"


def _perturb(job, out: str) -> str:
    if job.command.startswith("expand"):
        return _bump_coefficient(out)
    if job.command == "verify":
        return out.replace("PASS", "FAIL@q^3 lhs=1 rhs=2", 1)
    if job.command == "count":
        lines = out.splitlines()
        m, n, k = lines[-1].split(",")
        return "\n".join(lines[:-1] + [f"{m},{n},{int(k) + 1}"]) + "\n"
    return "\n".join(out.splitlines()[:-1]) + "\n"  # decompose, flow


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_wrong_outputs_are_failures(name, tiny_runs, oracle):
    batch, plain, _, _ = tiny_runs[name]
    perturbed = {"jobs": [dict(job, out=_perturb(b, job["out"]))
                          for b, job in zip(batch, plain["jobs"])]}
    assert all(run.check_batch(batch, perturbed, oracle))
    failing = {"jobs": [dict(job, rc=1) for job in plain["jobs"]]}
    assert all(run.check_batch(batch, failing, oracle))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
