"""Seeded job batches for the four workloads.

A batch is built in rounds.  Every round holds the same cells (a command, a
profile orbit and an order taken from a ladder), so the mix of work does not
depend on the seed.  The seed picks a small order jitter, the partitions fed
to decompose, the gasper z-power and the order in which the jobs of a round
run.  Profile rotations, output formats, --boards and lemma parameters are
taken in turn, since they change a job's cost.  Rounds run one after
another, so every kind of job is spread evenly over the run and sees the
same machine speed on average.  No (command, profile, order) triple repeats
in a batch: a repeat could be served by a cache and would not be new work.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

from checks import contained_slices, valid_slices

#: p90 needs at least ten samples beyond it.
MIN_JOBS = 100


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the key it would be cached under."""

    argv: tuple[str, ...]
    command: str   # subcommand, plus the method for expand
    profile: str   # profile, or identity tag for verify
    order: int     # truncation order, max weight, or partition size


def _rotate(parts, turn: int) -> tuple[int, ...]:
    """Rotation number `turn` (mod rank) of the profile.  Rotations have the
    same generating function but not the same cost (up to 2x for count), so
    they are taken in turn, not drawn from the seed."""
    k = turn % len(parts)
    return tuple(parts[k:] + parts[:k])


def _csv(parts) -> str:
    return ",".join(str(c) for c in parts)


def _ladder(values, round_index, cell_index):
    return values[(round_index + cell_index) % len(values)]


# closed-form: profile orbit -> order ladder (cost grows with rank*level)
BORODIN_CELLS = [
    ((3, 1), (300, 500, 800, 1100, 1500)),
    ((1, 2), (300, 500, 800, 1100, 1500)),
    ((2, 1, 1), (300, 400, 550, 750, 1000)),
    ((1, 1, 1), (300, 400, 550, 750, 1000)),
    ((1, 2, 0, 1), (300, 350, 450, 550, 700)),
    ((1, 1, 0, 0), (300, 350, 450, 550, 700)),
    ((2, 0, 1, 0, 1), (300, 330, 380, 440, 500)),
    ((1, 1, 1, 1, 1), (300, 330, 380, 440, 500)),
]
CATALOG_TAGS = ("1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "A1", "A2")
CATALOG_ORDERS = (100, 150, 200, 250, 300)

# chain-dp: profile orbit -> order ladder, run with both chain methods
CHAIN_CELLS = [
    ((1, 1), (30, 36, 42, 46, 50)),
    ((2, 1), (24, 28, 32, 36, 40)),
    ((1, 0, 1), (22, 25, 28, 31, 34)),
    ((1, 1, 1), (20, 22, 24, 26, 28)),
    ((2, 1, 1), (20, 22, 24, 26, 28)),
    ((1, 0, 0, 1), (20, 21, 22, 24, 25)),
]

# slice-census: census profiles (rank 4-7, rank + level <= 8)
CENSUS_PROFILES = [
    (1, 1, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1), (3, 0, 1, 0),
    (1, 0, 1, 0, 0), (2, 0, 0, 0, 1), (1, 1, 1, 0, 0),
    (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0),
]
FLOW_WEIGHTS = (4, 5, 6, 7, 8)

# audit
LEMMA_TAGS = ("L4.1", "L4.2", "L4.3", "L4.4", "L5.1", "L5.2", "L5.3", "L5.4",
              "L5.5")
LEMMA_ORDERS = (60, 70, 80, 90, 100)
GASPER_ORDERS = (40, 55, 70, 85, 100)
# profile orbit -> order ladder; distinct rotations times ladder length is
# at least 18, so up to 18 rounds draw no (profile, order) twice
COUNT_CELLS = [
    ((2, 1), (10, 11, 12, 13, 14, 15, 16, 17, 18)),
    ((3, 1), (10, 11, 12, 13, 14, 15, 16, 17, 18)),
    ((4, 1), (10, 11, 12, 13, 14, 15, 16, 17, 18)),
    ((3, 0), (10, 11, 12, 13, 14, 15, 16, 17, 18)),
    ((2, 0, 0), (11, 12, 13, 14, 15, 16)),
    ((1, 2, 0), (11, 12, 13, 14, 15, 16)),
    ((2, 1, 0), (11, 12, 13, 14, 15, 16)),
    ((1, 0, 0, 0), (12, 13, 14, 15, 16)),
    ((2, 0, 0, 0), (12, 13, 14, 15, 16)),
    ((1, 1, 0, 0), (10, 11, 12, 13, 14)),
    ((2, 1, 0, 0), (10, 11, 12, 13, 14)),
    ((1, 1, 1, 0), (10, 11, 12, 13, 14)),
]
VERIFY_ALL_FIRST_ORDER = 40


def _closed_form_round(k, rng):
    jobs = []
    for i, (orbit, ladder) in enumerate(BORODIN_CELLS):
        profile = _rotate(orbit, k + i)
        order = _ladder(ladder, k, i) + rng.randrange(10)
        fmt = ("text", "json")[(k + i) % 2]
        jobs.append(Job(("expand", "--profile", _csv(profile), "--order",
                         str(order), "--method", "borodin", "--format", fmt),
                        "expand:borodin", _csv(profile), order))
    for i, tag in enumerate(CATALOG_TAGS):
        order = _ladder(CATALOG_ORDERS, k, i) + rng.randrange(10)
        jobs.append(Job(("verify", "--id", tag, "--order", str(order)),
                        "verify", tag, order))
    return jobs


def _chain_round(k, rng):
    jobs = []
    for i, (orbit, ladder) in enumerate(CHAIN_CELLS):
        for method in ("chain", "chain-distinct"):
            profile = _rotate(orbit, k + i)
            order = _ladder(ladder, k, i) + rng.randrange(2)
            jobs.append(Job(("expand", "--profile", _csv(profile), "--order",
                             str(order), "--method", method),
                            "expand:" + method, _csv(profile), order))
    return jobs


def random_partition(profile, rng) -> list[list[int]]:
    """Rows of a random cylindric partition, built from nested valid slices.

    Level 1 is a random non-empty valid slice; each further level is a
    random non-empty valid slice contained in the one before.
    """
    levels = [rng.choice(valid_slices(profile, len(profile) + 2))]
    for _ in range(rng.randrange(3)):
        inner = contained_slices(profile, levels[-1])
        if not inner:
            break
        levels.append(rng.choice(inner))
    return [[sum(1 for t in levels if t[i] >= j)
             for j in range(1, levels[0][i] + 1)]
            for i in range(len(profile))]


def _decompose_job(profile, rows, boards: bool) -> Job:
    payload = json.dumps({"profile": list(profile), "rows": rows},
                         separators=(",", ":"))
    argv = ("decompose", "--json", payload) + (("--boards",) if boards else ())
    return Job(argv, "decompose", _csv(profile), sum(map(sum, rows)))


def _census_round(k, rng):
    jobs = []
    for i, orbit in enumerate(CENSUS_PROFILES):
        profile = _rotate(orbit, k + i)
        rows = random_partition(profile, rng)
        jobs.append(_decompose_job(profile, rows, (k + i) % 2 == 0))
        weight = _ladder(FLOW_WEIGHTS, k, i)
        jobs.append(Job(("flow", "--profile", _csv(profile), "--max-weight",
                         str(weight)), "flow", _csv(profile), weight))
    return jobs


def _lemma_params(family) -> list[tuple[int, ...]]:
    """Every parameter tuple the audit draws for a lemma family.  Costs
    differ by up to 30 times between tuples of one family, so each round
    takes the next ones in turn rather than random ones: the batch holds
    the same mix of costs for every seed."""
    number = int(family[3])
    if number == 1:
        return [(a,) for a in range(5)]
    if number == 2:
        return [(a,) for a in range(1, 5)]
    if number == 3:
        return list(itertools.product(range(1, 4), repeat=2))
    if number == 4:
        return list(itertools.product(range(1, 3), repeat=3))
    return ([(a,) for a in range(1, 4)]
            + list(itertools.product(range(1, 4), repeat=2)))


def _audit_round(k, rng):
    order = VERIFY_ALL_FIRST_ORDER + 2 * k
    jobs = [Job(("verify", "--all", "--order", str(order)), "verify", "all",
                order)]
    for i, family in enumerate(LEMMA_TAGS + LEMMA_TAGS):
        params = _lemma_params(family)
        turn = 2 * k + (i >= len(LEMMA_TAGS))
        tag = f"{family}({_csv(params[turn % len(params)])})"
        order = _ladder(LEMMA_ORDERS, k, i) + rng.randrange(10)
        jobs.append(Job(("verify", "--id", tag, "--order", str(order)),
                        "verify", tag, order))
    for i in range(3):
        z = rng.randrange(1, 5)
        order = _ladder(GASPER_ORDERS, k, i) + rng.randrange(10)
        jobs.append(Job(("verify", "--id", "gasper", "--z-power", str(z),
                         "--order", str(order)), "verify", f"gasper(z={z})",
                        order))
    for i, (orbit, ladder) in enumerate(COUNT_CELLS):
        # one rotation per pass over the ladder: no (profile, order) repeats
        profile = _rotate(orbit, (k + i) // len(ladder))
        order = _ladder(ladder, k, i)
        jobs.append(Job(("count", "--profile", _csv(profile), "--order",
                         str(order)), "count", _csv(profile), order))
    return jobs


ROUNDS = {
    "closed-form": _closed_form_round,
    "chain-dp": _chain_round,
    "slice-census": _census_round,
    "audit": _audit_round,
}

#: Scaled seconds (see speed.py) one round takes at the baseline commit,
#: used to size a batch to the requested run length.
ROUND_SECONDS = {
    "closed-form": 2.4,
    "chain-dp": 1.85,
    "slice-census": 3.3,
    "audit": 1.55,
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that fill `seconds` at the baseline and give MIN_JOBS jobs."""
    per_round = len(ROUNDS[workload](0, random.Random(0)))
    return max(math.ceil(MIN_JOBS / per_round),
               round(seconds / ROUND_SECONDS[workload]))


def make_batch(workload: str, seed: int, rounds: int) -> list[Job]:
    """The job batch for one workload and seed; no (command, profile, order)
    triple repeats."""
    rng = random.Random(f"{workload}/{seed}")
    make_round = ROUNDS[workload]
    seen = set()
    batch = []
    for k in range(rounds):
        jobs = [_unique(job, seen, rng) for job in make_round(k, rng)]
        rng.shuffle(jobs)
        batch += jobs
    return batch


def _unique(job: Job, seen, rng) -> Job:
    """The job, or a replacement of equal cost whose key is not yet taken:
    another rotation of the profile, or for decompose another partition.
    Failing that, the order steps up by one, or down for count, whose
    enumeration cost grows steeply with the order.  The key is marked taken.
    """
    key = (job.command, job.profile, job.order)
    if key not in seen:
        seen.add(key)
        return job
    if job.command == "decompose":
        profile = tuple(int(c) for c in job.profile.split(","))
        for _ in range(100):
            other = _decompose_job(profile, random_partition(profile, rng),
                                   "--boards" in job.argv)
            if (other.command, other.profile, other.order) not in seen:
                return _unique(other, seen, rng)
        raise RuntimeError(f"no new partition for {job.profile}")
    argv = list(job.argv)
    if "--profile" in argv:
        at = argv.index("--profile") + 1
        parts = [int(c) for c in job.profile.split(",")]
        rotations = [_csv(parts[k:] + parts[:k]) for k in range(len(parts))]
        rng.shuffle(rotations)
        for text in rotations:
            if (job.command, text, job.order) not in seen:
                argv[at] = text
                return _unique(Job(tuple(argv), job.command, text, job.order),
                               seen, rng)
    step = -1 if job.command == "count" else 1
    if job.order + step < 1:
        raise RuntimeError(f"no unused key near {job.argv}")
    flag = "--max-weight" if job.command == "flow" else "--order"
    at = argv.index(flag) + 1
    argv[at] = str(job.order + step)
    return _unique(Job(tuple(argv), job.command, job.profile, job.order + step),
                   seen, rng)


def repeated_profile_share(batch: list[Job]) -> float:
    """Share of jobs whose profile (or identity tag) already appeared in an
    earlier job of the batch, at another order or in another command: the
    work a cache keyed by profile could share."""
    seen = set()
    repeats = 0
    for job in batch:
        repeats += job.profile in seen
        seen.add(job.profile)
    return repeats / len(batch)
