"""Machine speed, measured by a fixed reference kernel run between jobs.

The host this benchmark was built on is a shared virtual machine whose CPU
speed drifts by 20-40% over seconds to minutes, in CPU time as well as in
wall time.  Every time the benchmark reports is therefore scaled to a
nominal machine speed: the worker runs `kernel` after every job, and a job's
CPU time is multiplied by NOMINAL_S over the median kernel time of the
samples taken around it.  The kernel uses nothing from cylgf, so a change to
the program moves the scaled times exactly as it moves the raw ones.

    python3 bench/speed.py     # prints kernel timings on this machine
"""
from __future__ import annotations

import statistics
import time

#: Median CPU seconds of one `kernel` call on the reference machine (a
#: 2-vCPU shared x86-64 virtual machine, CPython 3.11).  Scaled times read
#: as if every job ran at that speed.
NOMINAL_S = 0.0045


def kernel() -> int:
    """A few milliseconds of interpreter work with a working set of some
    hundred kilobytes: integer adds over a table of lists, then a dict keyed
    by tuples.  Of the kernels tried, this one followed the drift of all
    four workloads' jobs most closely."""
    rows = [[i * j for j in range(40)] for i in range(300)]
    acc = [0] * 40
    for row in rows:
        for j, v in enumerate(row):
            acc[j] += v
    table = {}
    for i in range(6000):
        table[(i % 97, i // 97, i & 3)] = i
    total = 0
    for key, v in table.items():
        total += key[0] * v
    return total + acc[-1]


def sample() -> float:
    """CPU seconds of one kernel call."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def local_medians(samples: list[float], jobs: int, half_width: int = 4):
    """For each of `jobs` jobs, the median of the kernel samples around it.

    samples[i] is taken just before job i and samples[i + 1] just after it;
    the window reaches `half_width` samples further on either side.
    """
    return [statistics.median(samples[max(0, i - half_width):
                                      i + 2 + half_width])
            for i in range(jobs)]


if __name__ == "__main__":
    kernel()
    times = [sample() for _ in range(200)]
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"kernel CPU ms: q1 {q1 * 1e3:.3f}  median {q2 * 1e3:.3f}  "
          f"q3 {q3 * 1e3:.3f}  (NOMINAL_S {NOMINAL_S * 1e3:.3f})")
