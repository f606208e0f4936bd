"""Slice calculus over a profile's gray baseline.

A slice records, per row, how many white squares sit to the right of the
gray staircase the profile induces.  Everything downstream (containment,
shapes, minimal representatives, the single-square flow graph) is phrased
in terms of these white counts.  A valid slice is also a pair (sigma, L) of
its shape and its last-row length; `shape_floors` and `shape_difference`
describe slices and their containment that way, for the chain DP.
"""
from __future__ import annotations

from itertools import accumulate, combinations_with_replacement
from math import comb

from .cylindric import CylindricPartition, Profile
from .record import Record


class SliceError(ValueError):
    """Invalid slice, profile mismatch, or a max_weight below 1."""


def baseline(profile: Profile) -> tuple[int, ...]:
    """Gray row lengths b_i = c_1 + c_{i+1} + ... + c_r.

    Weakly decreasing with b_i - b_{i+1} = c_{i+1} and b_r = c_1; pinned by
    unit tests against the boards (1,1,1) -> (3,2,1), (2,1) -> (3,2),
    (2,0,0,0) -> (2,2,2,2).
    """
    c = profile.parts
    # b_r = c_1 and b_i = b_{i+1} + c_{i+1}: suffix sums, linear in the rank
    return tuple(accumulate(reversed(c[1:]), initial=c[0]))[::-1]


class Slice(Record):
    """White-square counts t_1..t_r over the gray baseline."""

    __slots__ = ("profile", "white")

    def __init__(self, profile: Profile, white: tuple[int, ...]):
        if len(white) != profile.rank:
            raise SliceError(
                f"expected {profile.rank} white counts, got {len(white)}"
            )
        # not empty: a profile has rank >= 1
        if min(white) < 0:
            raise SliceError(f"negative white count: {white}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "white", white)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.profile, self.white) == (other.profile, other.white)
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.white))

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
    """True iff every white square of inner is also in outer (per-row <=).

    Only bench/tracer.py, which wraps it by name, keeps it in the package,
    until ROADMAP item 1."""
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


def iter_slices(profile: Profile, max_weight: int):
    """Non-empty valid slices with weight <= max_weight, lazily.

    Slices come out in (weight, white tuple) order: for each w up to
    max_weight an odometer, one list and no recursion, turns out the tuples
    of sum w in lexicographic order.  A free entry t_{i+1} only grows up to
    t_i + c_{i+1}, the last entry t_r takes the room left, and only its two
    edges are tested.  Nothing is collected or sorted, so a caller that
    stops early pays only for the slices it consumed.
    """
    c = profile.parts
    r = profile.rank
    for w in range(1, max_weight + 1):
        if r == 1:
            yield Slice(profile, (w,))
            continue
        t = [0] * (r - 1) + [w]
        while True:
            if t[-1] <= t[-2] + c[-1] and t[0] <= t[-1] + c[0]:
                yield Slice(profile, tuple(t))
            # the rightmost free entry that may grow takes one unit of room;
            # the free entries right of it give theirs back and go to 0
            room, i = t[-1], r - 2
            while i >= 0 and (not room or i and t[i] >= t[i - 1] + c[i]):
                room += t[i]
                t[i] = 0
                i -= 1
            if i < 0:
                break
            t[i] += 1
            t[-1] = room - 1


def shape_floors(profile: Profile) -> dict[tuple[int, ...], int]:
    """Each shape with the least last-row length of a non-empty slice of it.

    A valid slice is a pair (sigma, L): its shape sigma, with
    level >= sigma_1 >= ... >= sigma_{r-1} >= 0, and its last-row length
    L = b_r + t_r.  Its white counts are t_j = sigma_j + L - b_j and
    t_r = L - b_r, so L >= max(b_r, max_j (b_j - sigma_j)); the all-gray
    shape (that of the empty slice) starts one higher, at the slice with
    one white square in every row.  Its weight is sum(sigma) + r*L - sum(b).
    Shapes come out in (sum(sigma), sigma) order, the order in which the
    chain DP visits the slices of one last-row length.
    """
    b = baseline(profile)
    gray = tuple(x - b[-1] for x in b[:-1])
    # combinations of the descending range are the weakly decreasing tuples
    shapes = sorted(combinations_with_replacement(range(profile.level, -1, -1),
                                                  profile.rank - 1),
                    key=lambda sh: (sum(sh), sh))
    return {sh: max([b[-1]] + [x - s for x, s in zip(b, sh)]) + (sh == gray)
            for sh in shapes}


def shape_difference(inner: tuple[int, ...], outer: tuple[int, ...]) -> int:
    """d(sigma', sigma) = max(0, max_j (sigma'_j - sigma_j)).

    The slice (sigma', L') lies inside (sigma, L) exactly when
    L - L' >= d(sigma', sigma), since row j of a slice has length
    sigma_j + L: the difference condition between the shape letters.
    """
    return max([0] + [a - b for a, b in zip(inner, outer)])


def min_slices(profile: Profile) -> dict[tuple[int, ...], Slice]:
    """Minimal positive-weight valid slice of each shape.

    The slice (sigma, L) of least weight has the shape's floor L
    (`shape_floors`); the all-gray shape's adds one white square to every
    row.  Only bench/tracer.py, which wraps it by name, keeps it in the
    package, until ROADMAP item 1.
    """
    b = baseline(profile)
    return {sh: Slice(profile, tuple(s + low - x for s, x in zip(sh + (0,), b)))
            for sh, low in shape_floors(profile).items()}


def shape_name(sh: tuple[int, ...]) -> str:
    """Display letter of a shape: a, b, c, ... by its rank among the shapes
    of its profile in lexicographic order, then s<rank> from the 27th on.

    The shapes below sh that first differ from it at entry j hold some
    v < sh_j there, followed by any weakly decreasing tail of length
    m = len(sh) - 1 - j with entries <= v; by the hockey-stick identity
    there are sum_{v < sh_j} C(v + m, m) = C(sh_j + m, m + 1) of them.  The
    rank does not depend on the level, and no shape but sh is visited.
    """
    k = sum(comb(s + m, m + 1)
            for m, s in zip(range(len(sh) - 1, -1, -1), sh))
    return chr(ord("a") + k) if k < 26 else f"s{k}"


class SliceFlow(Record):
    """Single-square-addition graph on non-empty valid slices of weight <= bound."""

    __slots__ = ("profile", "max_weight", "nodes", "edges")

    def __init__(self, profile: Profile, max_weight: int,
                 nodes: tuple[Slice, ...],
                 edges: tuple[tuple[Slice, Slice], ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "max_weight", max_weight)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.profile, self.max_weight, self.nodes, self.edges)
                    == (other.profile, other.max_weight, other.nodes,
                        other.edges))
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.max_weight, self.nodes, self.edges))

    def to_dot(self) -> str:
        shapes = {s: shape(s) for s in self.nodes}
        # nodes in (weight, shape, white) order, edges by their ends' ranks
        order = sorted(self.nodes, key=lambda s: (s.weight, shapes[s], s.white))
        rank = {s: k for k, s in enumerate(order)}
        lines = ["digraph sliceflow {"]
        for k, s in enumerate(order):
            name = shape_name(shapes[s])
            lines.append(f'  n{k} [label="{name}q^{s.weight}"];')
        for u, v in sorted(self.edges, key=lambda e: (rank[e[0]], rank[e[1]])):
            lines.append(f"  n{rank[u]} -> n{rank[v]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def flow_graph(profile: Profile, max_weight: int) -> SliceFlow:
    """Nodes sorted by (weight, white tuple); edges add one white square.

    One more square in row i of a node t below max_weight gives a node iff
    t_i < t_{i-1} + c_i, cyclically: no other inequality gets tighter.  Only
    a real edge builds its target, looked up by white tuple (KeyError if
    the rule were wrong).
    """
    if max_weight < 1:
        raise SliceError("max_weight must be >= 1")
    nodes = list(iter_slices(profile, max_weight))
    by_white = {u.white: u for u in nodes}
    c = profile.parts
    edges = []
    for u in nodes:
        t = u.white
        if u.weight < max_weight:
            for i in range(profile.rank):
                if t[i] < t[i - 1] + c[i]:
                    v = by_white[t[:i] + (t[i] + 1,) + t[i + 1:]]
                    edges.append((u, v))
    return SliceFlow(profile, max_weight, tuple(nodes), tuple(edges))


def board(s: Slice) -> str:
    """ASCII Ferrers board: '.' for gray squares, '#' for white."""
    b = baseline(s.profile)
    lines = ["." * b[i] + "#" * s.white[i] for i in range(s.profile.rank)]
    return "\n".join(lines) + "\n"
