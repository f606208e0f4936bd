"""Slice calculus over a profile's gray baseline.

A slice records, per row, how many white squares sit to the right of the
gray staircase the profile induces.  Everything downstream (containment,
shapes, minimal representatives, the single-square flow graph) is phrased
in terms of these white counts.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from math import comb

from .cylindric import CylindricPartition, Profile


class SliceError(ValueError):
    """Invalid slice, profile mismatch, or broken containment chain."""


def baseline(profile: Profile) -> tuple[int, ...]:
    """Gray row lengths b_i = c_1 + c_{i+1} + ... + c_r.

    Weakly decreasing with b_i - b_{i+1} = c_{i+1} and b_r = c_1; pinned by
    unit tests against the boards (1,1,1) -> (3,2,1), (2,1) -> (3,2),
    (2,0,0,0) -> (2,2,2,2).
    """
    c = profile.parts
    r = profile.rank
    return tuple(c[0] + sum(c[i + 1 :]) for i in range(r))


@dataclass(frozen=True)
class Slice:
    """White-square counts t_1..t_r over the gray baseline."""

    profile: Profile
    white: tuple[int, ...]

    def __post_init__(self):
        if len(self.white) != self.profile.rank:
            raise SliceError(
                f"expected {self.profile.rank} white counts, got {len(self.white)}"
            )
        if any(t < 0 for t in self.white):
            raise SliceError(f"negative white count: {self.white}")

    @property
    def weight(self) -> int:
        return sum(self.white)

    def is_valid(self) -> bool:
        """t_{i+1} <= t_i + c_{i+1} cyclically (a 0/1 cylindric partition)."""
        t, c = self.white, self.profile.parts
        r = self.profile.rank
        return all(t[(i + 1) % r] <= t[i] + c[(i + 1) % r] for i in range(r))


def shape(s: Slice) -> tuple[int, ...]:
    """Row-length differences against the last row; (r-1)-tuple.

    Unchanged when the same number of white squares is added to every row.
    """
    if not s.is_valid():
        raise SliceError(f"invalid slice {s.white} for profile {s.profile}")
    b = baseline(s.profile)
    r = s.profile.rank
    last = b[r - 1] + s.white[r - 1]
    return tuple(b[j] + s.white[j] - last for j in range(r - 1))


def contains(inner: Slice, outer: Slice) -> bool:
    """True iff every white square of inner is also in outer (per-row <=)."""
    if inner.profile != outer.profile:
        raise SliceError("profile mismatch")
    return all(a <= b for a, b in zip(inner.white, outer.white))


def decompose(cp: CylindricPartition) -> list[Slice]:
    """Level slices of a cylindric partition, level 1 (bottom) first.

    The level-k slice marks, per row, how many parts are >= k; there are
    max parts levels and their weights sum to the size.
    """
    out = []
    for k in range(1, cp.largest + 1):
        white = tuple(sum(1 for p in row if p >= k) for row in cp.rows)
        out.append(Slice(cp.profile, white))
    return out


def recompose(profile: Profile, levels: list[Slice]) -> CylindricPartition:
    """Inverse of decompose: part j of row i counts levels with t_i >= j.

    No levels give the empty partition of the profile.
    """
    for k, s in enumerate(levels):
        if s.profile != profile:
            raise SliceError("profile mismatch among levels")
        if k + 1 < len(levels) and not contains(levels[k + 1], s):
            raise SliceError(
                f"level {k + 2} slice {levels[k + 1].white} is not contained "
                f"in level {k + 1} slice {s.white}"
            )
    rows = []
    for i in range(profile.rank):
        depth = max((s.white[i] for s in levels), default=0)
        rows.append(tuple(
            sum(1 for s in levels if s.white[i] >= j) for j in range(1, depth + 1)
        ))
    return CylindricPartition(profile, tuple(rows))


def iter_slices(profile: Profile, max_weight: int):
    """Non-empty valid slices with weight <= max_weight, lazily.

    Slices come out in (weight, white tuple) order: for w = 1, 2, ...,
    max_weight the tuples of sum exactly w are built entry by entry in
    lexicographic order.  A prefix only grows by t_{i+1} <= t_i + c_{i+1},
    the last entry takes the room that is left, and only the cyclic edge
    t_1 <= t_r + c_1 is tested on a complete tuple.  No invalid tuple is
    ever wrapped in a Slice and nothing is collected or sorted, so a
    caller that stops early pays only for the slices it consumed.
    """
    c = profile.parts
    r = profile.rank

    def extend(prefix, room):
        i = len(prefix)
        if i == r - 1:
            if room <= prefix[-1] + c[i] and prefix[0] <= room + c[0]:
                yield Slice(profile, prefix + (room,))
            return
        for v in range(min(room, prefix[-1] + c[i]) + 1):
            yield from extend(prefix + (v,), room - v)

    for w in range(1, max_weight + 1):
        if r == 1:
            yield Slice(profile, (w,))
        else:
            for first in range(w + 1):
                yield from extend((first,), w - first)


def shape_count(profile: Profile) -> int:
    """binom(level + rank - 1, rank - 1), the number of realizable shapes."""
    return comb(profile.level + profile.rank - 1, profile.rank - 1)


def min_slices(profile: Profile) -> dict[tuple[int, ...], Slice]:
    """Minimal positive-weight valid slice of each shape.

    The all-gray shape (realized by the empty slice) gets its smallest
    positive representative, which adds one white square to every row.
    A scan up to weight rank*level + rank reaches every shape.
    """
    target = shape_count(profile)
    out: dict[tuple[int, ...], Slice] = {}
    bound = profile.rank * profile.level + profile.rank
    for s in iter_slices(profile, bound):
        sh = shape(s)
        if sh not in out:
            out[sh] = s
            if len(out) == target:
                break
    return out


def shape_letters(profile: Profile) -> dict[tuple[int, ...], str]:
    """Stable display letters: a, b, c, ... by lexicographic shape tuple."""
    shapes = sorted(min_slices(profile))
    names = {}
    for k, sh in enumerate(shapes):
        if k < 26:
            names[sh] = string.ascii_lowercase[k]
        else:
            names[sh] = "s" + str(k)
    return names


@dataclass(frozen=True)
class SliceFlow:
    """Single-square-addition graph on non-empty valid slices of weight <= bound."""

    profile: Profile
    max_weight: int
    nodes: tuple[Slice, ...]
    edges: tuple[tuple[Slice, Slice], ...]

    def to_dot(self) -> str:
        letters = shape_letters(self.profile)

        def label(s: Slice) -> str:
            return f"{letters[shape(s)]}q^{s.weight}"

        def key(s: Slice) -> tuple:
            return (s.weight, shape(s), s.white)

        names = {s: f"n{k}" for k, s in enumerate(sorted(self.nodes, key=key))}
        lines = ["digraph sliceflow {"]
        for s in sorted(self.nodes, key=key):
            lines.append(f'  {names[s]} [label="{label(s)}"];')
        for u, v in sorted(self.edges, key=lambda e: (key(e[0]), key(e[1]))):
            lines.append(f"  {names[u]} -> {names[v]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def flow_graph(profile: Profile, max_weight: int) -> SliceFlow:
    """Nodes sorted by (weight, white tuple); edges add one white square."""
    if max_weight < 1:
        raise SliceError("max_weight must be >= 1")
    nodes = list(iter_slices(profile, max_weight))
    node_set = set(nodes)
    edges = []
    for u in nodes:
        for i in range(profile.rank):
            t = list(u.white)
            t[i] += 1
            v = Slice(profile, tuple(t))
            if v in node_set:
                edges.append((u, v))
    return SliceFlow(profile, max_weight, tuple(nodes), tuple(edges))


def board(s: Slice) -> str:
    """ASCII Ferrers board: '.' for gray squares, '#' for white."""
    b = baseline(s.profile)
    lines = ["." * b[i] + "#" * s.white[i] for i in range(s.profile.rank)]
    return "\n".join(lines) + "\n"
