"""Slice calculus over a profile's gray baseline.

A slice records, per row, how many white squares sit to the right of the
gray staircase the profile induces.  `Slice`, `decompose`, containment and
`iter_slices` speak in these white counts.  A valid slice is also a pair
(sigma, L) of its shape and its last-row length: the single-square flow
graph grows shapes, and `shape_floors` lists the shapes with their least
last-row lengths for the chain DP.  Row j of (sigma, L) has length
sigma_j + L, so containment is entrywise order on the shapes, shifted by the
difference in L (the difference condition between shape letters), and the
chain DP reads it off sums over the lattice of shapes.

Slices grow one square at a time.  Row i of a valid slice t takes one more
square, and the slice stays valid, iff t_i < t_{i-1} + c_i, cyclically: no
other inequality gets tighter.  Every non-empty valid slice is such a growth
of one of weight one less.  Suppose one had no square to remove.  Then
t_{i+1} = t_i + c_{i+1} for every row with t_i >= 1, so the row after such a
row has t_{i+1} >= 1 too; some row has, so every row has, and summing
t_{i+1} - t_i = c_{i+1} once round the cylinder gives level 0, which no
profile has.  So the valid slices of weight w + 1 are the growths of those
of weight w, from the empty slice up, and those growths are the edges into
them.

The growth is read in shape coordinates, sigma_j = (b_j + t_j) - (b_r + t_r),
with sigma_0 = level and sigma_r = 0 set around it.  Since b_{i-1} - b_i = c_i,
b_1 = level and b_r = c_1, the rule t_i < t_{i-1} + c_i says b_i + t_i <
b_{i-1} + t_{i-1} for 1 < i <= r and b_1 + t_1 < level + b_r + t_r for i = 1;
subtracting b_r + t_r gives sigma_i < sigma_{i-1} for every row.  A square in
row i < r raises sigma_i by one, and one in row r lowers every entry by one.
The empty slice has the gray shape (b_j - b_r), and within one weight w a
shape fixes its slice, whose last-row length is (w + sum(b) - sum(sigma)) / r.
So a weight layer is a set of shapes, and one pass (`_layers`) gives
`flow_graph` and `iter_slices` both.
"""
from __future__ import annotations

from itertools import accumulate, combinations_with_replacement
from math import comb
from operator import sub

from .cylindric import CylindricPartition, Profile
from .record import Record


class SliceError(ValueError):
    """A slice that breaks its profile's inequalities, or a profile mismatch."""


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
    """White-square counts t_1..t_r over the gray baseline.

    Built valid or not at all: the counts are non-negative and
    t_{i+1} <= t_i + c_{i+1} cyclically (a 0/1 cylindric partition), else
    SliceError.
    """

    __slots__ = ("profile", "white")

    def __init__(self, profile: Profile, white: tuple[int, ...]):
        if len(white) != profile.rank:
            raise SliceError(
                f"expected {profile.rank} white counts, got {len(white)}"
            )
        # not empty: a profile has rank >= 1
        if min(white) < 0:
            raise SliceError(f"negative white count: {white}")
        c = profile.parts
        # i = 0 pairs t_1 with t_r, the cyclic inequality
        if any(white[i] > white[i - 1] + c[i] for i in range(profile.rank)):
            raise SliceError(f"invalid slice {white} for profile {profile}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "white", white)

    @property
    def weight(self) -> int:
        return sum(self.white)


def shape(gray: tuple[int, ...], white: tuple[int, ...]) -> tuple[int, ...]:
    """Row-length differences against the last row; (r-1)-tuple.

    `gray` is the profile's `baseline` and `white` a valid slice's counts.
    Unchanged when the same number of white squares is added to every row.
    """
    last = gray[-1] + white[-1]
    return tuple([b + t - last for b, t in zip(gray[:-1], white)])


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
    max parts levels and their weights sum to the size.  Those counts are
    the row's conjugate, read in one pass from its last part up, so the
    cost is linear in the parts plus the levels times the rank.
    """
    largest = cp.largest
    columns = []
    for row in cp.rows:
        column = []
        for j in range(len(row), 0, -1):
            # parts 1..j are the ones >= each level up to row[j - 1]
            column += [j] * (row[j - 1] - len(column))
        columns.append(column + [0] * (largest - len(column)))
    return [Slice(cp.profile, white) for white in zip(*columns)]


def _growths(level: int, sh: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The shapes of the valid slices with one square more than the slice of
    shape sh, in increasing order (module docstring): a square in row r
    lowers every entry, one in row i < r raises sh_i, the later row first."""
    grown = [tuple([s - 1 for s in sh])] if (sh[-1] if sh else level) else []
    for i in range(len(sh) - 1, -1, -1):
        if sh[i] < (sh[i - 1] if i else level):
            grown.append(sh[:i] + (sh[i] + 1,) + sh[i + 1:])
    return grown


def _layers(profile: Profile, max_weight: int):
    """For w = 1..max_weight: the growth lists of the shapes of weight w - 1,
    in layer order, and the sorted layer of shapes of weight w they make up;
    weight 0 holds the empty slice's gray shape alone."""
    b, level = baseline(profile), profile.level
    layer = [tuple([x - b[-1] for x in b[:-1]])]
    for _ in range(max_weight):
        grown = [_growths(level, sh) for sh in layer]
        layer = sorted({u for us in grown for u in us})
        yield grown, layer


def iter_slices(profile: Profile, max_weight: int):
    """White tuples of the non-empty valid slices with weight <= max_weight,
    lazily, in (weight, white tuple) order.

    Each weight's shapes come from `_layers`; the slice of shape sigma and
    weight w has last-row length L = (w + sum(b) - sum(sigma)) / r and white
    counts t_j = sigma_j + L - b_j, t_r = L - b_r.  Only valid slices are
    built, so a caller that stops early pays for the weight layers up to the
    one it stopped in, and no more.
    """
    b = baseline(profile)
    r, total = profile.rank, sum(b)
    for w, (_, layer) in enumerate(_layers(profile, max_weight), 1):
        whites = []
        for sh in layer:
            last = (w + total - sum(sh)) // r
            whites.append(tuple([s + last - x for s, x in zip(sh + (0,), b)]))
        whites.sort()
        yield from whites


def shape_floors(profile: Profile) -> dict[tuple[int, ...], int]:
    """Each shape with the least last-row length of a non-empty slice of it.

    A valid slice is a pair (sigma, L): its shape sigma, with
    level >= sigma_1 >= ... >= sigma_{r-1} >= 0, and its last-row length
    L = b_r + t_r.  Its white counts are t_j = sigma_j + L - b_j and
    t_r = L - b_r, so L >= max(b_r, max_j (b_j - sigma_j)); the all-gray
    shape (that of the empty slice) starts one higher, at the slice with
    one white square in every row.  Its weight is sum(sigma) + r*L - sum(b).
    Shapes come out in (sum(sigma), sigma) order; at each last-row length
    the chain DP sweeps a prefix of it.
    """
    b = baseline(profile)
    gray = tuple([x - b[-1] for x in b[:-1]])
    # combinations of the descending range are the weakly decreasing tuples;
    # sorted by (size, shape) pairs, and with sigma_r = 0 the floor's last
    # term b_r - sigma_r is b_r
    shapes = sorted([(sum(sh), sh) for sh in combinations_with_replacement(
        range(profile.level, -1, -1), profile.rank - 1)])
    return {sh: max(map(sub, b, sh + (0,))) + (sh == gray)
            for _, sh in shapes}


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

    Read from the last entry, the entries grow weakly.  A zero entry adds
    C(m, m + 1) = 0.  After an entry p, the next term is built from the last
    by exact multiply-and-divide steps, C(p + m - 1, m) -> C(p + m, m + 1)
    -> ... -> C(s + m, m + 1), one small factor each; a jump s - p of more
    than m + 1 (a huge level) takes a fresh `comb` of about m + 1 factors.
    """
    k = term = last = 0
    for m, s in enumerate(reversed(sh)):
        if not s:
            continue
        if term and s - last <= m + 1:
            term = term * (last + m) // (m + 1)
            for v in range(last, s):
                term = term * (v + m + 1) // v
        else:
            term = comb(s + m, m + 1)
        k += term
        last = s
    return chr(ord("a") + k) if k < 26 else f"s{k}"


def flow_graph(profile: Profile, max_weight: int):
    """The single-square-addition graph on the non-empty valid slices of
    weight <= max_weight: the tuple of (weight, shape) nodes, sorted, and the
    sorted tuple of (i, j) node-index edges, node j having one white square
    more than node i.

    The growths that build each layer (`_layers`) are the edges into it, so
    each slice is grown once; the empty slice's growths give no edges.  Each
    growth list is sorted and so is each layer, so the edges come out
    sorted.  A max_weight below 1 gives the empty graph.
    """
    nodes, edges, below = [], [], None
    for weight, (grown, layer) in enumerate(_layers(profile, max_weight), 1):
        index = dict(zip(layer, range(len(nodes), len(nodes) + len(layer))))
        if below is not None:
            edges += [(i, index[u]) for i, us in enumerate(grown, below)
                      for u in us]
        below = len(nodes)
        nodes += [(weight, sh) for sh in layer]
    return tuple(nodes), tuple(edges)
