"""Reference code that only the tests use.

`recompose` inverts `slices.decompose` from the definition,
`shape_difference` is the difference condition between two shape letters,
`chain_visits` counts the (shape, last-row length) pairs the chain DP
visits,
`DUALITY_PAIRS` lists the profiles that share one generating function under
rank-level duality, `zero_one_valid` tests white counts against the
definition, and `comb_shape_name` names a shape with one `comb` per
entry, the reference for `slices.shape_name`; `recursive_walk` is the
enumeration oracle's walk as plain recursion, one call per partition,
without its pruning of the rows between the first and the last;
`walk_table` counts by (largest part, size) from it, the reference for
`cylindric.enumerate_table`, and `gapless_table` counts the partitions
that skip no part value, the reference for `chain-distinct`;
`block_nested_sum` evaluates one nested-sum spec by its own block passes,
the reference for `lemmas.nested_sums`.  No command of the package needs
any of them.
"""
from itertools import accumulate
from math import comb

from cylgf.cylindric import (CylindricPartition, PartitionError, Profile,
                             iter_partitions, validate)
from cylgf.lemmas import NestedSumSpec, _term
from cylgf.series import Series
from cylgf.slices import Slice, SliceError, baseline, contains, shape_floors

#: profiles sharing one generating function under rank-level duality
DUALITY_PAIRS = (
    ((2, 1), (1, 1, 0)),
    ((3, 0), (2, 0, 0)),
    ((4, 0), (2, 0, 0, 0)),
    ((2, 2), (1, 0, 1, 0)),
    ((3, 1), (1, 1, 0, 0)),
)


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


def shape_difference(inner: tuple[int, ...], outer: tuple[int, ...]) -> int:
    """d(sigma', sigma) = max(0, max_j (sigma'_j - sigma_j)).

    The slice (sigma', L') lies inside (sigma, L) exactly when
    L - L' >= d(sigma', sigma), since row j of a slice has length
    sigma_j + L: the difference condition between the shape letters, which
    `genfun.chain_series` reads through sums over the lattice of shapes.
    """
    return max([0] + [a - b for a, b in zip(inner, outer)])


def chain_visits(profile: Profile, order: int) -> int:
    """(shape, L) pairs that `genfun.chain_series` visits: every shape at
    every last-row length L from the least floor of a slice of weight
    sum(sigma) + r*L - sum(b) <= order to the greatest such L."""
    base = sum(baseline(profile))
    floors = shape_floors(profile)
    spans = [(low, (order + base - sum(sh)) // profile.rank)
             for sh, low in floors.items()]
    spans = [(low, high) for low, high in spans if low <= high]
    if not spans:
        return 0
    return len(floors) * (max(high for _, high in spans)
                          - min(low for low, _ in spans) + 1)


def zero_one_valid(profile: Profile, white: tuple[int, ...]) -> bool:
    """Whether the 0/1 partition with rows 1^{t_i} passes the definition-level
    validator: the reference for the inequalities `Slice` checks."""
    try:
        validate(profile, [(1,) * t for t in white])
    except PartitionError:
        return False
    return True


def comb_shape_name(sh: tuple[int, ...]) -> str:
    """`slices.shape_name` as the hockey-stick sum of C(sh_j + m, m + 1),
    m the length of the tail after entry j."""
    k = sum(comb(s + m, m + 1)
            for m, s in zip(range(len(sh) - 1, -1, -1), sh))
    return chr(ord("a") + k) if k < 26 else f"s{k}"


def recursive_walk(profile: Profile, bound: int, visit) -> None:
    """Call visit(rows, largest, size) once per cylindric partition of size
    <= bound, by plain backtracking.

    Rows are built one after another, part by part, and every inequality is
    enforced as its part is placed: each part of row i > 0 is at most the
    entry of row i - 1 that dominates it, and each part of the last row is at
    least the entry of the first row it must dominate (the cyclic inequality
    last[j] >= first[j + c_1]).  `need`, the sum of the first-row parts the
    last row still has to dominate, is the least size the last row must
    still take, so a prefix that leaves less room than that is cut at once;
    the last row is complete only when `need` is 0.  `rows` is the walk's own
    list of part lists: read it during the call, do not keep it.

    This is the slow reference and stays unpruned on purpose: it holds only
    the last row below by the first row, so at rank >= 3 it builds middle
    rows that can never dominate the first row, and it walks the profile as
    given.  `cylindric._walk` bounds every row below by the first row.
    """
    c = profile.parts
    last, lift = len(c) - 1, c[0]
    rows: list[list[int]] = [[] for _ in c]
    first = rows[0]

    def extend(i, pos, cap, size, largest, need):
        row = rows[i]
        if i < last:
            extend(i + 1, 0, bound - size, size, largest, need)
        elif not need:
            visit(rows, largest, size)
        lo, grow = 1, 0
        if i == last and need:
            # this part dominates first[pos + lift] and takes it off the need
            lo = first[pos + lift]
            need -= lo
        room = bound - size - need
        hi = min(cap, room)
        if i:
            above, j = rows[i - 1], pos - c[i]
            if j >= 0:
                hi = min(hi, above[j] if j < len(above) else 0)
        elif last and pos >= lift:
            # the last row will have to dominate this part too
            hi, grow = min(hi, room // 2), 1
        for v in range(hi, lo - 1, -1):
            row.append(v)
            extend(i, pos + 1, v, size + v, largest if pos else max(largest, v),
                   need + grow * v)
            row.pop()

    extend(0, 0, bound, 0, 0, 0)


def walk_table(profile: Profile, order: int) -> tuple[tuple[int, ...], ...]:
    """counts[m][n] by `recursive_walk`, one partition at a time."""
    counts = [[0] * (order + 1) for _ in range(order + 1)]

    def visit(rows, largest, size):
        counts[largest][size] += 1

    recursive_walk(profile, order, visit)
    return tuple(map(tuple, counts))


def gapless_table(profile: Profile, order: int) -> tuple[tuple[int, ...], ...]:
    """counts[m][n]: the cylindric partitions of size n <= order whose set
    of part values is exactly {1, ..., m}, m the largest part, by filtering
    `iter_partitions`.  These are the partitions whose level slices are
    pairwise distinct, which `chain_series(distinct=True)` counts."""
    counts = [[0] * (order + 1) for _ in range(order + 1)]
    for cp in iter_partitions(profile, order):
        if {v for row in cp.rows for v in row} == set(range(1, cp.largest + 1)):
            counts[cp.largest][cp.size] += 1
    return tuple(map(tuple, counts))


def block_nested_sum(spec: NestedSumSpec, order: int) -> Series:
    """2^h times the multi-sum at the order, one chain pass per block.

    Block i depends on K_i = k_1 + ... + k_i alone, and the sum runs over
    1 <= K_1 < K_2 < ... < K_n.  So with S_1(K) the first block at K and
    S_i(K) = B_i(K) * sum_{K' < K} S_{i-1}(K'), the multi-sum is
    sum_K S_n(K): each block is one pass over K with a running prefix sum
    of the previous block's terms, each term that prefix times q^(numerator
    degree) divided by the block's denominators (1 + q^(2K+2M_{i-1}+e+2j)),
    j = 0..m_i.  K_i runs from i until the least degree of any full term
    with that K_i (K_j = j before it, K_i + j - i after it) exceeds the
    order.  A fixed-k spec is the one block's term at K = k, and only it
    has h > 0.
    """
    blocks = spec.blocks
    bases = [2 * before + spec.offset
             for before in accumulate(blocks[:-1], initial=0)]
    tails = list(accumulate(reversed(blocks)))[::-1]

    def degree(i: int, k: int) -> int:
        """Numerator degree of block i at K_i = k."""
        return blocks[i] * (2 * k + bases[i] + blocks[i])

    def term(prefix: Series, i: int, k: int, halves: int = 0) -> Series:
        """Block i at K_i = k times the prefix."""
        return _term(prefix, degree(i, k), 2 * k + bases[i], blocks[i] + 1,
                     halves)

    one = Series.monomial(0, order)
    if spec.fixed_k is not None:
        return term(one, 0, spec.fixed_k, spec.halves)

    # the least term, K_j = j for every j, has degree low; with K_i = k it
    # gains 2 (k - i) T_i, T_i = m_i + ... + m_n (i counted from 1 here)
    low = sum(degree(j, j + 1) for j in range(len(blocks)))
    if low > order:
        return Series.zero(order)

    # (K, term) of the previous block; the empty block is 1 at K = 0
    terms = [(0, one)]
    for i in range(len(blocks)):
        prefix, done, out = Series.zero(order), 0, []
        k = i + 1
        while low + 2 * (k - i - 1) * tails[i] <= order:
            while done < len(terms) and terms[done][0] < k:
                prefix = prefix + terms[done][1]
                done += 1
            out.append((k, term(prefix, i, k)))
            k += 1
        terms = out
    return sum((series for _, series in terms), Series.zero(order))
