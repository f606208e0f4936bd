"""Spans and counters around the program's layer functions, from outside.

install() replaces each function named in the layer table, in every cylgf
module that holds a reference to it, with a wrapper that records a span:
(name, start, end, parent, job, busy).  `busy` is end - start for a call; a
generator records one span per call whose busy time is the sum of the
intervals it ran, so the consumer's work between items is not counted as
its own.  A span's self time is its busy time minus the busy time of its
direct children.

Counters are taken at the same boundaries.  Work the tracer itself does
after a call (inspecting a result) is recorded as a child span named
"trace" of the caller, so it is charged to no layer.
"""
from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from math import comb

clock = time.perf_counter

TRACE = "trace"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.coeffs_seen = 0
        self.fractions_seen = 0

    # --- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A call span; before(*args) -> token, after(result, token, *args)."""
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, end - start)
                counts[calls] += 1
            if after:
                after(result, token, *args, **kwargs)
                done = clock()
                spans.append((TRACE, end, done, parent, self.job, done - end))
            return result

        return traced

    def wrap_generator(self, name, fn, before=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            return drive(fn(*args, **kwargs))

        def drive(inner):
            idx = first = None
            busy = 0.0
            yielded = 0
            try:
                while True:
                    if idx is None:
                        parent = stack[-1] if stack else -1
                        job = self.job
                        idx = len(spans)
                        spans.append(None)
                    stack.append(idx)
                    start = clock()
                    if first is None:
                        first = start
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        busy += end - start
                        stack.pop()
                    yielded += 1
                    yield item
            finally:
                inner.close()
                if idx is not None:
                    spans[idx] = (name, first, end, parent, job, busy)
                counts[name + ".yielded"] += yielded

        return traced

    def counted(self, name, fn):
        """No span: count calls and true results (for very hot predicates)."""
        counts = self.counts
        calls, trues = name + ".calls", name + ".true"

        def traced(*args):
            result = fn(*args)
            counts[calls] += 1
            if result:
                counts[trues] += 1
            return result

        return traced

    # --- result inspection --------------------------------------------------

    def see_series(self, series, _token=None, *args, **kwargs):
        bits = 0
        fractions = 0
        for c in series.coeffs:
            if isinstance(c, Fraction):
                fractions += 1
                b = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            else:
                b = abs(c).bit_length()
            if b > bits:
                bits = b
        self.bits_max = max(self.bits_max, bits)
        self.coeffs_seen += len(series.coeffs)
        self.fractions_seen += fractions

    # --- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[5]
        out: Counter = Counter()
        for i, span in enumerate(self.spans):
            out[span[0]] += span[5] - child[i]
        del out[TRACE]
        return dict(out)


def install(tracer: Tracer, modules) -> None:
    """Wrap the layer functions of the cylgf modules in place.

    `modules` maps short names (series, slices, genfun, lemmas, cylindric)
    to the imported modules.  Every module attribute that is the original
    function is replaced, so calls through `from .x import f` bindings are
    traced too.
    """
    series, slices = modules["series"], modules["slices"]
    genfun, lemmas = modules["genfun"], modules["lemmas"]
    cylindric = modules["cylindric"]
    counts = tracer.counts

    def replace(owner, attr, wrapper):
        original = getattr(owner, attr)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)

    see = tracer.see_series
    S = series.Series
    replace(S, "__mul__", tracer.wrap("series.mul", S.__mul__, after=see))
    replace(S, "invert", tracer.wrap("series.invert", S.invert, after=see))
    replace(series, "pochhammer",
            tracer.wrap("series.pochhammer", series.pochhammer, after=see))
    replace(series, "product_expr",
            tracer.wrap("series.product_expr", series.product_expr, after=see))

    def candidates(profile, max_weight, include_empty=False):
        counts["slices.candidates"] += comb(max_weight + profile.rank,
                                            profile.rank)

    replace(slices, "iter_slices", tracer.wrap_generator(
        "slices.iter_slices", slices.iter_slices, before=candidates))
    replace(slices, "contains", tracer.counted("slices.contains",
                                               slices.contains))
    replace(slices, "min_slices",
            tracer.wrap("slices.min_slices", slices.min_slices))
    replace(slices, "flow_graph",
            tracer.wrap("slices.flow_graph", slices.flow_graph))

    def nodes_before(*args, **kwargs):
        return counts["slices.iter_slices.yielded"]

    def chain_cells(result, before, profile, order, *args, **kwargs):
        nodes = counts["slices.iter_slices.yielded"] - before
        counts["genfun.chain.nodes"] += nodes
        counts["genfun.chain.cells"] += nodes * (order + 1) ** 2

    replace(genfun, "chain_series", tracer.wrap(
        "genfun.chain_series", genfun.chain_series, before=nodes_before,
        after=chain_cells))

    borodin_specs = genfun.borodin_specs

    def factors(result, _token, profile, order):
        counts["genfun.borodin.factors"] += len(borodin_specs(profile))

    replace(genfun, "borodin",
            tracer.wrap("genfun.borodin", genfun.borodin, after=factors))
    replace(genfun, "catalog_sides",
            tracer.wrap("genfun.catalog_sides", genfun.catalog_sides))

    replace(lemmas, "nested_sum",
            tracer.wrap("lemmas.nested_sum", lemmas.nested_sum))
    replace(lemmas, "closed_form",
            tracer.wrap("lemmas.closed_form", lemmas.closed_form))

    def partitions(table, _token, *args, **kwargs):
        counts["cylindric.partitions"] += sum(map(sum, table.counts))

    replace(cylindric, "enumerate_table", tracer.wrap(
        "cylindric.enumerate_table", cylindric.enumerate_table,
        after=partitions))
    replace(cylindric, "validate",
            tracer.counted("cylindric.validate", cylindric.validate))


LAYERS = ("series", "slices", "genfun", "lemmas", "cylindric", "cli")


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """The per-layer metrics of one traced batch, by name."""
    self_s = tracer.self_times()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "series.mul.calls": c["series.mul.calls"],
        "series.mul.self_s": self_s.get("series.mul", 0.0),
        "series.invert.calls": c["series.invert.calls"],
        "series.invert.self_s": self_s.get("series.invert", 0.0),
        "series.pochhammer.self_s": self_s.get("series.pochhammer", 0.0),
        "series.product_expr.self_s": self_s.get("series.product_expr", 0.0),
        "series.coeff_bits_max": tracer.bits_max,
        "series.fraction_share": ratio(tracer.fractions_seen,
                                       tracer.coeffs_seen),
        "slices.iter_slices.self_s": self_s.get("slices.iter_slices", 0.0),
        "slices.iter_slices.yielded": c["slices.iter_slices.yielded"],
        "slices.candidates": c["slices.candidates"],
        "slices.yield_ratio": ratio(c["slices.iter_slices.yielded"],
                                    c["slices.candidates"]),
        "slices.contains.calls": c["slices.contains.calls"],
        "slices.contains.true_ratio": ratio(c["slices.contains.true"],
                                            c["slices.contains.calls"]),
        "slices.min_slices.self_s": self_s.get("slices.min_slices", 0.0),
        "slices.flow_graph.self_s": self_s.get("slices.flow_graph", 0.0),
        "genfun.chain_series.self_s": self_s.get("genfun.chain_series", 0.0),
        "genfun.chain.nodes": c["genfun.chain.nodes"],
        "genfun.chain.cells": c["genfun.chain.cells"],
        "genfun.borodin.self_s": self_s.get("genfun.borodin", 0.0),
        "genfun.borodin.factors": c["genfun.borodin.factors"],
        "genfun.catalog_sides.self_s": self_s.get("genfun.catalog_sides", 0.0),
        "lemmas.nested_sum.self_s": self_s.get("lemmas.nested_sum", 0.0),
        "lemmas.closed_form.self_s": self_s.get("lemmas.closed_form", 0.0),
        "lemmas.specs": c["lemmas.nested_sum.calls"],
        "cylindric.enumerate_table.self_s":
            self_s.get("cylindric.enumerate_table", 0.0),
        "cylindric.partitions": c["cylindric.partitions"],
        "cylindric.validate.calls": c["cylindric.validate.calls"],
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.output_bytes": output_bytes,
    }
    total = sum(self_s.values())
    shares = {layer: ratio(sum(v for k, v in self_s.items()
                               if k.split(".")[0] == layer), total)
              for layer in LAYERS}
    return {"metrics": metrics, "shares": shares}
