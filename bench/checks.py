"""Output checks, each against a route other than the one being timed.

* expand --method borodin: every coefficient against an integer recurrence
  over the product's factor exponents (the same formula, another kernel), and
  a prefix against the chain DP;
* expand --method chain: every coefficient against that recurrence;
* expand --method chain-distinct: a prefix against brute-force enumeration of
  cylindric partitions whose level slices are pairwise distinct, and every
  coefficient against a one-variable chain DP written here;
* count: the marginal against the recurrence, a prefix of the refined table
  against the chain DP;
* verify: every line reads PASS, one line per identity or lemma spec;
* decompose: the printed levels recompose to the input rows, and weights,
  shapes, terms and boards agree with the benchmark's own slice calculus;
* flow: the DOT text equals the single-square graph built here.

References are computed outside the timed region and cached per rotation
orbit, since a cyclic rotation of a profile leaves every checked quantity
unchanged.
"""
from __future__ import annotations

import json
import string

#: Largest prefix the chain DP and the enumeration oracle check, by rank.
CHAIN_PREFIX = {2: 16, 3: 14, 4: 12, 5: 10}
ENUM_PREFIX = {2: 14, 3: 12, 4: 10}


# --- the benchmark's own slice calculus ------------------------------------

def valid_slices(c, max_weight: int) -> list[tuple[int, ...]]:
    """Non-empty white tuples t with t_{i+1} <= t_i + c_{i+1} cyclically and
    weight <= max_weight, in (weight, t) order."""
    r = len(c)
    out = []

    def rec(acc, room):
        i = len(acc)
        if i == r:
            if acc[0] <= acc[-1] + c[0] and sum(acc) > 0:
                out.append(tuple(acc))
            return
        hi = room if i == 0 else min(room, acc[-1] + c[i])
        for v in range(hi + 1):
            acc.append(v)
            rec(acc, room - v)
            acc.pop()

    rec([], max_weight)
    out.sort(key=lambda t: (sum(t), t))
    return out


def contained_slices(c, outer) -> list[tuple[int, ...]]:
    """Non-empty valid slices t <= outer row by row."""
    return [t for t in valid_slices(c, sum(outer))
            if all(a <= b for a, b in zip(t, outer))]


def baseline(c) -> tuple[int, ...]:
    return tuple(c[0] + sum(c[i + 1:]) for i in range(len(c)))


def shape(c, t) -> tuple[int, ...]:
    b = baseline(c)
    last = b[-1] + t[-1]
    return tuple(b[j] + t[j] - last for j in range(len(c) - 1))


def shape_letters(c) -> dict:
    """Display letter of every shape, shapes sorted as tuples."""
    r, level = len(c), sum(c)
    shapes = sorted({shape(c, t) for t in valid_slices(c, r * level + r)})
    return {sh: string.ascii_lowercase[k] if k < 26 else f"s{k}"
            for k, sh in enumerate(shapes)}


def flow_dot(c, max_weight: int) -> str:
    """The single-square flow graph as the CLI prints it."""
    letters = shape_letters(c)
    nodes = valid_slices(c, max_weight)

    def key(t):
        return (sum(t), shape(c, t), t)

    nodes.sort(key=key)
    names = {t: f"n{k}" for k, t in enumerate(nodes)}
    lines = ["digraph sliceflow {"]
    lines += [f'  {names[t]} [label="{letters[shape(c, t)]}q^{sum(t)}"];'
              for t in nodes]
    edges = []
    for u in nodes:
        for i in range(len(c)):
            v = u[:i] + (u[i] + 1,) + u[i + 1:]
            if v in names:
                edges.append((u, v))
    edges.sort(key=lambda e: (key(e[0]), key(e[1])))
    lines += [f"  {names[u]} -> {names[v]};" for u, v in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- reference series ------------------------------------------------------

def euler_product(specs, order: int) -> list[int]:
    """prod 1/(1 - q^e) over every factor e = start + k*step <= order, by the
    in-place recurrence out[n] += out[n - e]."""
    out = [1] + [0] * order
    for spec in specs:
        for e in range(spec.start, order + 1, spec.step):
            for n in range(e, order + 1):
                out[n] += out[n - e]
    return out


def distinct_chain_series(c, order: int) -> list[int]:
    """Sum over strict containment chains of non-empty valid slices of
    q^(total weight), by a one-variable DP written apart from the program's
    two-variable one: f(s) = q^w(s) (1 + sum of f(t) over t inside s)."""
    nodes = valid_slices(c, order)
    f = []
    total = [1] + [0] * order
    for i, s in enumerate(nodes):
        w = sum(s)
        acc = [1] + [0] * (order - w)
        for j in range(i):
            t = nodes[j]
            if sum(t) < w and all(a <= b for a, b in zip(t, s)):
                for n, v in enumerate(f[j][: order - w + 1]):
                    acc[n] += v
        fs = [0] * w + acc
        f.append(fs)
        for n, v in enumerate(fs):
            total[n] += v
    return total


def _orbit(c) -> tuple[int, ...]:
    return min(tuple(c[k:] + c[:k]) for k in range(len(c)))


class Oracle:
    """Reference values from independent routes, cached per rotation orbit."""

    def __init__(self, program):
        self.program = program
        self._cache = {}

    def _cached(self, kind, c, order, compute):
        key = (kind, _orbit(c))
        hit = self._cache.get(key)
        if hit is None or hit[0] < order:
            hit = (order, compute(_orbit(c), order))
            self._cache[key] = hit
        return hit[1]

    def partition_series(self, c, order: int) -> list[int]:
        genfun, Profile = self.program.genfun, self.program.Profile
        full = self._cached(
            "product", c, order,
            lambda o, n: euler_product(genfun.borodin_specs(Profile(o)), n))
        return full[: order + 1]

    def chain_table(self, c):
        prefix = CHAIN_PREFIX[len(c)]
        return self._cached(
            "chain", c, prefix,
            lambda o, n: self.program.genfun.chain_series(
                self.program.Profile(o), n).table)

    def distinct_chains(self, c, order: int) -> list[int]:
        full = self._cached("chains", c, order,
                            lambda o, n: distinct_chain_series(o, n))
        return full[: order + 1]

    def distinct_levels(self, c) -> list[int]:
        """Counts by size of cylindric partitions with pairwise distinct
        level slices, by enumeration."""
        cyl, slices = self.program.cylindric, self.program.slices

        def compute(o, n):
            counts = [0] * (n + 1)
            for cp in cyl.iter_partitions(self.program.Profile(o), n):
                levels = [s.white for s in slices.decompose(cp)]
                if len(set(levels)) == len(levels):
                    counts[cp.size] += 1
            return counts

        return self._cached("distinct", c, ENUM_PREFIX[len(c)], compute)


# --- per-command checks ----------------------------------------------------

def _options(argv) -> dict:
    """--flag value pairs; a flag followed by another flag maps to True."""
    opts = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = True
            i += 1
    return opts


def _profile(text) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_series(text: str, fmt: str, order: int) -> list[int]:
    if fmt == "json":
        data = json.loads(text)
        if data["order"] != order:
            raise ValueError(f"order field {data['order']} != {order}")
        coeffs = [int(c) for c in data["coeffs"]]
    else:
        coeffs = json.loads(text)
    if len(coeffs) != order + 1 or any(type(c) is not int for c in coeffs):
        raise ValueError("not order+1 integer coefficients")
    return coeffs


def _first_diff(got, want):
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"q^{n}: got {a}, want {b}"
    return None


def check_expand(argv, out, oracle):
    o = _options(argv)
    c, order, method = _profile(o["--profile"]), int(o["--order"]), o["--method"]
    coeffs = _parse_series(out, o.get("--format", "text"), order)
    if method == "chain-distinct":
        return (_first_diff(coeffs, oracle.distinct_levels(c))
                or _first_diff(coeffs, oracle.distinct_chains(c, order)))
    bad = _first_diff(coeffs, oracle.partition_series(c, order))
    if bad or method == "chain":
        return bad
    table = oracle.chain_table(c)
    marginal = [sum(row[n] for row in table) for n in range(len(table))]
    return _first_diff(coeffs, marginal)


def check_count(argv, out, oracle):
    o = _options(argv)
    c, order = _profile(o["--profile"]), int(o["--order"])
    lines = out.splitlines()
    if lines[0] != "max,size,count":
        return "missing CSV header"
    counts = {}
    for line in lines[1:]:
        m, n, k = map(int, line.split(","))
        if k <= 0 or m > order or n > order:
            return f"bad row {line}"
        counts[(m, n)] = k
    marginal = [sum(k for (m, n), k in counts.items() if n == size)
                for size in range(order + 1)]
    bad = _first_diff(marginal, oracle.partition_series(c, order))
    if bad:
        return "marginal " + bad
    table = oracle.chain_table(c)
    for m in range(len(table)):
        for n in range(min(order + 1, len(table))):
            if counts.get((m, n), 0) != table[m][n]:
                return f"refined count at z^{m} q^{n}"
    return None


def check_verify(argv, out, program):
    lines = out.splitlines()
    if not lines or not all(line.endswith(",PASS") for line in lines):
        return "a line does not read PASS"
    o = _options(argv)
    if "--all" in o:
        grid = json.loads((program.data_dir / "verify_all.json").read_text())
        lem = grid["lemmas"]
        want = len(grid["identities"]) + len(program.lemmas.grid(
            lem["n_max"], lem["m_max"], lem["k_max"]))
        return None if len(lines) == want else f"{len(lines)} lines, want {want}"
    tag = o["--id"]
    if "--z-power" in o:
        tag += f"(z=q^{o['--z-power']})"
    want = f"{tag},order={o['--order']},PASS"
    return None if lines == [want] else f"got {lines!r}, want [{want!r}]"


def check_decompose(argv, out):
    data = json.loads(_options(argv)["--json"])
    c, rows = tuple(data["profile"]), data["rows"]
    boards = "--boards" in argv
    letters = shape_letters(c)
    b = baseline(c)
    lines = out.splitlines()
    levels = []
    while lines:
        head = lines.pop(0)
        k = len(levels) + 1
        white_text = head.split(" t=", 1)[1].split(" weight=", 1)[0]
        t = tuple(json.loads("[" + white_text.strip("(),") + "]"))
        w, sh = sum(t), shape(c, t)
        want = (f"level {k}: t={t} weight={w} shape={sh} "
                f"term={letters[sh]}q^{w}")
        if head != want:
            return f"got {head!r}, want {want!r}"
        if boards:
            # the CLI strips the newlines that empty trailing rows leave
            board = "\n".join("." * b[i] + "#" * t[i]
                              for i in range(len(c))).rstrip("\n").split("\n")
            if lines[: len(board)] != board:
                return f"board of level {k}"
            del lines[: len(board)]
        levels.append(t)
    recomposed = [[sum(1 for t in levels if t[i] >= j)
                   for j in range(1, max((t[i] for t in levels), default=0) + 1)]
                  for i in range(len(c))]
    stripped = [[p for p in row if p] for row in rows]
    return None if recomposed == stripped else "levels do not recompose"


def check_flow(argv, out):
    o = _options(argv)
    want = flow_dot(_profile(o["--profile"]), int(o["--max-weight"]))
    return None if out == want else "DOT differs from the single-square graph"


def check_job(argv, rc, out, oracle) -> str | None:
    """None when the job exited 0 and its output is right, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        command = argv[0]
        if command == "expand":
            return check_expand(argv, out, oracle)
        if command == "count":
            return check_count(argv, out, oracle)
        if command == "verify":
            return check_verify(argv, out, oracle.program)
        if command == "decompose":
            return check_decompose(argv, out)
        if command == "flow":
            return check_flow(argv, out)
        return f"no check for {command}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
