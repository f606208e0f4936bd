"""Reference code that only the tests use.

`recompose` inverts `slices.decompose` from the definition,
`shape_difference` is the difference condition between two shape letters,
`chain_visits` counts the live cells (shape, last-row length) of the
chain DP and the lattice sums it reads there,
`dual` is the rank-level duality map and `profiles_up_to` lists every
profile up to a rank and a level, `zero_one_valid` tests white counts
against the definition and `valid_whites` lists the slices it passes, and
`comb_shape_name` names a shape with one `comb` per entry, the reference
for `slices.shape_name`; `recursive_walk` is the
enumeration oracle's walk as plain recursion, one call per partition,
without its pruning of the rows between the first and the last;
`walk_table` counts by (largest part, size) from it, the reference for
`cylindric.enumerate_table`, and `gapless_table` counts the partitions
that skip no part value, the reference for `chain-distinct`;
`block_nested_sum` evaluates one nested-sum spec by its own block passes,
the reference for `lemmas.nested_sums`.  No command of the package needs
any of them.
"""
from itertools import accumulate, product
from math import comb

from cylgf.cylindric import (CylindricPartition, PartitionError, Profile,
                             iter_partitions, validate)
from cylgf.lemmas import NestedSumSpec, _term
from cylgf.series import Series
from cylgf.slices import Slice, SliceError, baseline, contains, shape_floors


def dual(parts: tuple[int, ...]) -> tuple[int, ...]:
    """D(c), the profile whose generating function F(z, q) is that of c.

    Write c as the cyclic word 1^c_1 0 1^c_2 0 ... 1^c_r 0 and swap every 0
    and 1.  Part k is the number of ones before the k-th zero, the ones
    after the last zero joining part 1; then the tuple is reversed.  D(c)
    has rank the level of c and level the rank of c, and D(D(c)) is a
    rotation of c.  c needs level >= 1.
    """
    out, ones = [], 0
    for bit in [bit for part in parts for bit in [0] * part + [1]]:
        if bit:
            ones += 1
        else:
            out.append(ones)
            ones = 0
    out[0] += ones
    return tuple(reversed(out))


def profiles_up_to(max_rank: int, max_level: int) -> list[tuple[int, ...]]:
    """Every profile of rank 1..max_rank and level 1..max_level."""
    return [parts for rank in range(1, max_rank + 1)
            for parts in product(range(max_level + 1), repeat=rank)
            if 1 <= sum(parts) <= max_level]


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


def chain_visits(profile: Profile, order: int) -> tuple[int, int]:
    """The live cells of `genfun.chain_series`, the pairs (shape, L) that are
    slices of weight <= order, and the lattice sums it reads there, counted
    cell by cell.

    A slice (sigma, L) has weight sum(sigma) + r*L - sum(b), so its shape's
    greatest L of weight <= order is high = (order + sum(b) - sum(sigma))
    // r, and its least is the shape's floor.  A live cell reads 2^c sums,
    c its shape's removable corners (sigma_j > sigma_{j+1}, sigma_r = 0)."""
    r, base = profile.rank, sum(baseline(profile))
    cells = reads = 0
    for sh, low in shape_floors(profile).items():
        corners = sum(a > b for a, b in zip(sh, sh[1:] + (0,)))
        for _ in range(low, (order + base - sum(sh)) // r + 1):
            cells += 1
            reads += 2 ** corners
    return cells, reads


def zero_one_valid(profile: Profile, white: tuple[int, ...]) -> bool:
    """Whether the 0/1 partition with rows 1^{t_i} passes the definition-level
    validator: the reference for the inequalities `Slice` checks."""
    try:
        validate(profile, [(1,) * t for t in white])
    except PartitionError:
        return False
    return True


def valid_whites(profile: Profile, max_weight: int) -> list[tuple[int, ...]]:
    """White tuples of weight 1..max_weight that `zero_one_valid` passes, in
    (weight, white tuple) order: every tuple of each weight is tried."""
    def tuples(total, rank):
        if rank == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in tuples(total - first, rank - 1):
                yield (first,) + rest

    return [t for w in range(1, max_weight + 1)
            for t in tuples(w, profile.rank) if zero_one_valid(profile, t)]


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
