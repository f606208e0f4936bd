"""What the benchmark measures: its workloads and metrics.

This module is the single source of BENCHMARK.json at the repository root;
regenerate that file with

    python3 bench/spec.py > BENCHMARK.json

and the self-test fails when the two disagree.
"""
from __future__ import annotations

import json

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

#: Seconds of work one run measures at the baseline commit.  The batch size
#: is derived from it (see workloads.rounds_for), so the same seed and
#: seconds always give the same jobs.
RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "closed-form",
        "why": "expand --method borodin (N 300-1500, rank 2-5) and verify "
               "1.2-1.8/A1/A2 (N 100-300): the series kernel on big-integer "
               "coefficients; no slice or chain work",
    },
    {
        "name": "chain-dp",
        "why": "expand --method chain and chain-distinct at N 20-50 on rank "
               "2-4 profiles: the table-add loops of genfun.chain_series",
    },
    {
        "name": "slice-census",
        "why": "decompose (some --boards) and flow on census profiles of rank "
               "4-7 with t <= 8: slice enumeration in slices.iter_slices; no "
               "series work",
    },
    {
        "name": "audit",
        "why": "verify --all, lemma tags L4.x/L5.x, gasper and count at N "
               "10-18: small and rational series, the lemma grid and the "
               "enumeration oracle",
    },
]

END_TO_END = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "job_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

PER_LAYER = [
    {"name": "series.mul.calls", "unit": "count", "better": "lower"},
    {"name": "series.mul.self_s", "unit": "s", "better": "lower"},
    {"name": "series.invert.calls", "unit": "count", "better": "lower"},
    {"name": "series.invert.self_s", "unit": "s", "better": "lower"},
    {"name": "series.pochhammer.self_s", "unit": "s", "better": "lower"},
    {"name": "series.product_expr.self_s", "unit": "s", "better": "lower"},
    {"name": "series.coeff_bits_max", "unit": "bits", "better": "lower"},
    {"name": "series.fraction_share", "unit": "ratio", "better": "lower"},
    {"name": "slices.iter_slices.self_s", "unit": "s", "better": "lower"},
    {"name": "slices.iter_slices.yielded", "unit": "count", "better": "lower"},
    {"name": "slices.candidates", "unit": "count", "better": "lower"},
    {"name": "slices.yield_ratio", "unit": "ratio", "better": "higher"},
    {"name": "slices.contains.calls", "unit": "count", "better": "lower"},
    {"name": "slices.contains.true_ratio", "unit": "ratio", "better": "higher"},
    {"name": "slices.min_slices.self_s", "unit": "s", "better": "lower"},
    {"name": "slices.flow_graph.self_s", "unit": "s", "better": "lower"},
    {"name": "genfun.chain_series.self_s", "unit": "s", "better": "lower"},
    {"name": "genfun.chain.nodes", "unit": "count", "better": "lower"},
    {"name": "genfun.chain.cells", "unit": "count", "better": "lower"},
    {"name": "genfun.borodin.self_s", "unit": "s", "better": "lower"},
    {"name": "genfun.borodin.factors", "unit": "count", "better": "lower"},
    {"name": "genfun.catalog_sides.self_s", "unit": "s", "better": "lower"},
    {"name": "lemmas.nested_sum.self_s", "unit": "s", "better": "lower"},
    {"name": "lemmas.closed_form.self_s", "unit": "s", "better": "lower"},
    {"name": "lemmas.specs", "unit": "count", "better": "lower"},
    {"name": "cylindric.enumerate_table.self_s", "unit": "s", "better": "lower"},
    {"name": "cylindric.partitions", "unit": "count", "better": "lower"},
    {"name": "cylindric.validate.calls", "unit": "count", "better": "lower"},
    {"name": "cli.self_s", "unit": "s", "better": "lower"},
    {"name": "cli.output_bytes", "unit": "bytes", "better": "lower"},
    {"name": "trace_overhead", "unit": "ratio", "better": "lower"},
]

#: Per-layer metrics that are exact counts: two runs of one seed must agree
#: on them to the last digit.
EXACT_COUNTERS = [
    "series.mul.calls", "series.invert.calls", "series.coeff_bits_max",
    "series.fraction_share", "slices.iter_slices.yielded",
    "slices.candidates", "slices.yield_ratio", "slices.contains.calls",
    "slices.contains.true_ratio", "genfun.chain.nodes", "genfun.chain.cells",
    "genfun.borodin.factors", "lemmas.specs", "cylindric.partitions",
    "cylindric.validate.calls", "cli.output_bytes",
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
