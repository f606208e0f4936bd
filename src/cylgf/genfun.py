"""Three independent routes to the same generating functions.

* borodin: the closed-form infinite product for F_c(1, q).
* chain_series: the slice-chain DP, the paper's method of weighted words:
  each last-row length keeps down-set sums over the live prefix of the
  lattice of shape letters, from which the chains inside each slice are
  read.  It is refined by the largest-part statistic (z-degree) and the
  size (q-degree) for the callers that read F_c(z, q) (the tests and the
  benchmark checks), or run at z = 1 for `expand`, which prints only
  F_c(1, q).
* catalog_sides: a table of named series identities, one row per tag
  (the lemma tags L4.x, L5.x belong to `lemmas`), read by one evaluator.
  Each sum is kept by its term ratio and built term from previous term,
  starting from the row's outer product, which `product_expr` expands once;
  the right-hand side is `product_expr` alone.  Both sides are expanded so
  they can be compared coefficient by coefficient.
"""
from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from operator import mul

from .cylindric import Profile
from .record import InputError, Record
from .series import PochSpec, Series, pochhammer, product_expr
from .slices import baseline, shape_floors


class UnknownIdentityError(InputError):
    """Identity tag not in the catalog, or parameters out of range."""


def borodin_specs(profile: Profile) -> list[PochSpec]:
    """Denominator factor list of the closed-form product for F_c(1, q).

    One factor (q^t; q^t) plus, for every admissible (i, j, m) in the two
    triple products, a factor (q^e; q^t).  The partial sums
    s(i, j) = c_i + ... + c_j come off the gray rows b_i (`slices.baseline`):
    s(i+1, j) = b_i - b_j, s(j, i-1) = b_{j-1} - b_{i-1}.  Every e is at
    least 1: e = m + (j - i) + s(i+1, j) >= m with j >= i in the first
    product, and in the second e >= r + j - i >= 2, since
    s(j, i-1) <= level - c_i, m <= c_i and 2 <= j <= i <= r.  `PochSpec`
    checks it as each factor is built.
    """
    c = profile.parts
    r = profile.rank
    t = profile.t
    b = (0,) + baseline(profile)  # b[i] = b_i, 1-based
    exps = [t]
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            for m in range(1, c[i - 1] + 1):
                exps.append(m + j - i + b[i] - b[j])
    for i in range(2, r + 1):
        for j in range(2, i + 1):
            for m in range(1, c[i - 1] + 1):
                exps.append(t - m + j - i - b[j - 1] + b[i - 1])
    return [PochSpec(1, e, t) for e in exps]


def borodin(profile: Profile, order: int) -> Series:
    """F_c(1, q) from the closed-form product, truncated at the order."""
    return product_expr([], borodin_specs(profile), order)


class ChainGF(Record):
    """table[m][n] = coefficient of z^m q^n in the chain generating function.

    A table folded at z = 1 (`chain_series(..., refined=False)`) is one row,
    table = (row,) with row[n] = [q^n] F_c(1, q); `marginal` reads both.
    The last four fields describe the work, and equality and hashing leave
    them out.  `nodes`, `shapes` and `shape_pairs` (slices of weight <= N,
    shapes, lattice sums the sweep reads) are counted from the lattice and are
    the same for either layout; `slot_bits` is the packed slot width of the
    layout that filled the table: W(r, N) folded, the bit length of the
    largest [q^k] F_c(1, q) refined.
    """

    __slots__ = ("profile", "order", "distinct", "table",
                 "nodes", "shapes", "shape_pairs", "slot_bits")
    _compared = __slots__[:4]

    def __init__(self, profile: Profile, order: int, distinct: bool,
                 table: tuple[tuple[int, ...], ...], nodes: int, shapes: int,
                 shape_pairs: int, slot_bits: int):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "shape_pairs", shape_pairs)
        object.__setattr__(self, "slot_bits", slot_bits)

    def marginal(self) -> Series:
        """Specialization z = 1."""
        return Series.from_coeffs(map(sum, zip(*self.table)))


def chain_series(profile: Profile, order: int, distinct: bool = False,
                 refined: bool = True) -> ChainGF:
    """Sum over strict containment chains of non-empty slices.

    A chain element of weight w contributes z*q^w once (distinct=True) or
    with arbitrary positive multiplicity j, giving z^j q^{j*w}
    (distinct=False).  The multiplicity j counts repeated levels, so the
    z-degree of a chain is its total number of levels, which is the largest
    part of the recomposed cylindric partition.

    A slice is a shape letter sigma with a last-row length L
    (`slices.shape_floors`), whose row j has length sigma_j + L (sigma_r =
    0).  So (sigma', L'') lies inside (sigma, L) exactly when L'' <= L and
    sigma' <= sigma + (L - L'') entrywise, capped at the level: the
    weighted-words difference condition L - L'' >= d(sigma', sigma) =
    max(0, max_j (sigma'_j - sigma_j)).  g(sigma, L) collects the chains
    whose largest (bottom) slice is (sigma, L); it is 0 unless (sigma, L) is
    a slice of weight <= N, that is unless L_min(sigma) <= L <= high(sigma),
    with L_min the floor of `shape_floors` and high(sigma) =
    (N + sum(b) - size(sigma)) // r, size(sigma) = sum_j sigma_j.  The DP
    keeps two sums per cell (sigma, L):

    * H_L(sigma), the sum of g(sigma', L) over sigma' <= sigma entrywise;
    * T_L(sigma) = H_L(sigma) + T_{L-1}(sigma+), with sigma+ =
      (min(sigma_j + 1, level))_j, the sum of g over every slice inside
      (sigma, L), itself included.

    The slices strictly inside (sigma, L) are those with a smaller L, whose
    sum is T_{L-1}(sigma+), and those of the same L strictly below sigma.
    The shapes strictly below sigma form the union of the down-sets under
    sigma - e_j, j a removable corner (sigma_j > sigma_{j+1}, taking
    sigma_r = 0): a shape sigma' < sigma lies below sigma - e_j for the last
    j with sigma'_j < sigma_j, which is a corner.  The down-sets under
    sigma - e_j for j in a set A of corners meet in the down-set under
    sigma - A, also a shape.  So by inclusion-exclusion
    S = sum over non-empty A of (-1)^(|A|+1) H_L(sigma - A), the chains below
    (sigma, L), with the empty one, number inner = 1 + T_{L-1}(sigma+) + S,
    and H_L(sigma) = S + g(sigma, L).

    A shape is the int sum_j sigma_j * (level+1)^(r-2-j), so sigma - A and
    sigma+ are integer arithmetic, and one dict turns them into positions
    in `shape_floors` order, (size, shape), in which sigma - A comes before
    sigma.  With the shapes so numbered, the lattice is built in one pass
    over that order.  The sweep runs L up from the least floor at or below
    its shape's high, below which every g is 0, and does only the work the
    answer needs, by three facts:

    1. high(sigma) does not increase along the order, since size does not
       decrease.  So at L the shapes with high >= L, the only ones whose g
       can be non-zero, form a prefix of the order, and the sweep stops at
       its end.  Nothing a cell of the prefix reads lies past it: sigma - A
       is smaller, and (sigma+, L-1) has weight at most
       w(sigma, L) - 1 <= N, since sigma+ adds at most r - 1 to the size
       and one less L takes off r.
    2. If L < L_min(sigma), every sigma' <= sigma has L_min(sigma') >=
       L_min(sigma): each term b_j - sigma'_j is at least b_j - sigma_j,
       and a shape strictly below the gray shape (b_j - b_r) has some
       b_j - sigma'_j > b_r, which covers the gray shape's +1.  So
       H_L(sigma) = 0, and T_L(sigma) = T_{L-1}(sigma+) is 0 too: some row
       of (sigma, L) falls short of its gray row (or, for the gray shape at
       L = b_r, none passes it), and a slice inside has no row longer, so
       it is invalid or empty.  Such a cell makes no lattice reads and no
       writes: L only grows, so it was never written and holds 0.
    3. T_L(sigma) may overwrite T_{L-1}(sigma) in place.  sigma+ comes at
       or after sigma in the order, so the sweep reads T_{L-1}(sigma+)
       before it writes T_L(sigma+).  If sigma+ lies past the prefix at L,
       it still holds T_{L-1}(sigma+) from the layer below, where fact 1
       puts it inside the prefix.  H_L may overwrite H_{L-1} too: a cell
       reads H only at sigma - A, which comes before it in the prefix and
       so was written at this L, or lies below its floor and holds 0.

    So H and T are two fixed lists over the shapes, written in place, and
    T holds 1 + T_L, the empty chain with it, so that inner = T(sigma+) + S.
    A live cell, a slice of weight <= N, with c corners reads 2^c sums,
    c <= min(r - 1, level), one of them of T; no pair of letters is ever
    compared.  `shape_pairs` counts these reads.

    Each (z, q) table is one int (Kronecker substitution): z^m q^k sits in
    the B-bit slot k*(N+1) + m, so a table add is one big-int add.  A slot
    of the table, or of any H, T, inner or repetition term, counts chains of
    one size k <= N with m levels (cylindric partitions, the empty one at
    k = 0): a subset of the f_k = [q^k] F_c(1, q) chains that the table
    counts at size k.  B keeps every f_k below 2^B (see below), so no slot
    carries into the next.  The partial sums of the inclusion-exclusion may
    leave a slot negative or past 2^B, borrowing from or carrying into the
    next; but they are exact integer sums, S ends as the packing of its
    exact slots, and no partial sum is ever masked.  Only inner and the
    repetition terms are.  z^j q^{jw} is a shift by j*(w*(N+1)+1) slots.
    Nonzero cells have m <= k and w >= 1, so a term with k + jw <= N has
    m + j <= N and keeps its row; a term past q^N lands at slot (N+1)^2 or
    above, where the mask drops it.  The repetition sum over
    j = 1 .. floor(N/w) is built by doubling, S <- S + S * (z q^w)^span with
    span = 1, 2, 4, ...: about log2(N/w) steps, and the terms with
    j > floor(N/w) it adds have q-degree past N, so the mask drops them.

    With refined=False the same loop runs at z = 1: q^k sits in slot k, a
    level of weight w repeated j times is a shift by j*w slots, the mask
    keeps N+1 slots, and the result is the one row table = (row,), f_0..f_N.
    `expand` asks for this layout, as it prints only F_c(1, q); the default
    (N+1)^2 layout is the reference for F_c(z, q).

    The slot width.  The r rows of a cylindric partition of size k are
    partitions of total size k, so f_k <= p_r(k) <= p_r(N) =
    [q^N] (q;q)_oo^(-r), and for every t > 0, with P(x) = 1/(x;x)_oo:
      p_r(N) e^(-Nt) <= P(e^-t)^r <= exp(r pi^2 / (6t)), as
      log P(e^-t) = sum_m 1/(m (e^(mt) - 1)) <= sum_m 1/(m^2 t);
      t = pi sqrt(r/(6N)) gives p_r(N) <= e^(pi sqrt(2rN/3)) for N >= 1,
    which is below 2^sqrt(13.7 rN), as 2 pi^2 / (3 ln^2 2) = 13.695...  So
    the folded layout packs at B = W(r, N) = isqrt(137*r*N // 10) + 1, at
    least the bit length of p_r(N), in int arithmetic alone.  A refined call
    runs the folded pass first and then the same loop, on the same lattice,
    at B = the bit length of the largest f_k: every slot (m, k) is at most
    f_k.  At a low level that is far below W: 36 bits against 75 at
    (1,1,0,0), N = 100.
    """
    r, level, base = profile.rank, profile.level, sum(baseline(profile))
    floors = shape_floors(profile)
    top = order + base  # (sigma, L) has weight <= N iff r*L <= top - size
    # shape sigma as the int sum_j sigma_j * (level+1)^(r-2-j); sigma+ adds
    # every unit past sigma's leading entries equal to the level
    units = [(level + 1) ** k for k in range(r - 2, -1, -1)]
    tails = [sum(units[j:]) for j in range(r)]
    codes = [sum(map(mul, sh, units)) for sh in floors]
    find = dict(zip(codes, range(len(codes)))).__getitem__
    # per shape: its floor, its weight less r*L, the index of sigma+, and
    # the indices of sigma - A for the non-empty sets A of removable
    # corners, |A| odd and |A| even; and the live cells and their reads
    lattice, sizes = [], []
    nodes = reads = 0
    start = top // r + 1  # the least floor of a slice of weight <= N
    for code, (sh, low) in zip(codes, floors.items()):
        odd, even = [], [code]  # even holds A = {} first
        for s, after, unit in zip(sh, sh[1:] + (0,), units):
            if s > after:
                odd, even = (odd + [c - unit for c in even],
                             even + [c - unit for c in odd])
        del even[0]
        size = sum(sh)
        sizes.append(size)
        lattice.append((low, size - base, find(code + tails[sh.count(level)]),
                        list(map(find, odd)), list(map(find, even))))
        live = (top - size) // r - low + 1
        if live > 0:
            nodes += live
            reads += live * (len(odd) + len(even) + 1)
            start = min(start, low)
    # each L the sweep runs, with the end of its prefix of shapes of
    # high >= L (fact 1)
    layers = [(length, bisect_right(sizes, top - r * length))
              for length in range(start, top // r + 1)]

    bits = isqrt(137 * r * order // 10) + 1
    table = _chain_pass(lattice, layers, order, r, distinct, False, bits)
    if refined:
        bits = max(table[0]).bit_length()
        table = _chain_pass(lattice, layers, order, r, distinct, True, bits)
    return ChainGF(profile, order, distinct, table, nodes, len(floors), reads,
                   bits)


def _chain_pass(lattice, layers, n, r, distinct, refined, bits):
    """One sweep of `chain_series` over the live cells in the layout that
    `refined` names, at slot width `bits`: the table."""
    side = n + 1
    z_slots = side if refined else 1
    mask = (1 << (side * z_slots * bits)) - 1
    total = 1
    # H_L and 1 + T_L, the empty chain counted in T, written in place
    down, inside = [0] * len(lattice), [1] * len(lattice)
    for length, cut in layers:
        lift = r * length
        for k, (low, w0, up, odd, even) in enumerate(lattice[:cut]):
            if length < low:
                continue  # fact 2: H_L = T_L = 0, as both lists hold
            s = 0
            for j in odd:
                s += down[j]
            for j in even:
                s -= down[j]
            below = inside[up]
            w = w0 + lift
            span = (w * z_slots + refined) * bits
            cur = ((below + s) << span) & mask
            if not distinct:
                # doublings until 2^steps >= floor(N/w) terms
                for _ in range((n // w - 1).bit_length()):
                    cur = (cur + (cur << span)) & mask
                    span *= 2
            s += cur
            total += cur
            down[k] = s
            inside[k] = s + below

    slot_mask = (1 << bits) - 1
    if not refined:
        return (tuple([total >> k * bits & slot_mask for k in range(side)]),)
    row_mask = (1 << side * bits) - 1
    rows = [total >> k * side * bits & row_mask for k in range(side)]
    return tuple(tuple(row >> m * bits & slot_mask for row in rows)
                 for m in range(side))


# --- identity catalog ------------------------------------------------------
# A row of _CATALOG is (sum or None, outer numerator, outer denominator, rhs
# denominator), a product (sign, start, step) being PochSpec(sign, start,
# step), and a sum the keyword arguments of _sum_series.  A sum family
# (sign, start, step, offset) is PochSpec(sign, start, step, n + offset) in
# term n, so term n is term n - 1 shifted by degree(n) - degree(n - 1) and
# times one factor of exponent start + (n + offset - 1)*step: one `times` call.


def _sum_series(order: int, degree, num=(), den=(), first=0, coeff=1,
                lead=0, outer: Series | None = None) -> Series:
    """outer * (lead + sum_{n >= first} coeff q^degree(n) prod num / prod
    den), up to its first term of degree past the order (degree increases);
    no outer means 1.  Multiplying by outer commutes with the step from one
    term to the next, so the sum starts from it.  lead*outer and every term
    are one `times` call each: term `first` is coeff q^degree(first) outer
    times its factors, a later term the one before, shifted, times the
    factors it gains."""
    def factors(n):
        # the factor each family gains at term n, if n + offset >= 1; every
        # family has 0 or 1 factors at term `first`, so this builds it too
        return [[PochSpec(g, a + (n + off - 1) * k, k, 1)
                 for g, a, k, off in fams if n + off >= 1]
                for fams in (num, den)]

    base = outer or Series.monomial(0, order)
    acc = base.times(scale=lead)
    n, deg = first, degree(first)
    term = base.times(*factors(n), deg, coeff)
    while deg <= order:
        acc = acc + term
        n += 1
        shift, deg = degree(n) - deg, degree(n)
        term = term.times(*factors(n), shift)
    return acc


# the auxiliary sums, also the sums of 1.4 and 1.5
_A1 = dict(degree=lambda n: n * n, den=((1, 4, 4, 0),))
_A2 = dict(degree=lambda n: n * n + 2 * n, den=((1, 4, 4, 0),))
_CATALOG = {
    "1.2": (None, ((-1, 1, 2),), ((1, 1, 1),),
            ((1, 4, 4), (1, 1, 4), (1, 1, 4), (1, 3, 4), (1, 3, 4))),
    "1.3": (None, ((-1, 2, 2),), ((1, 1, 1),), ((1, 1, 1), (1, 2, 4))),
    "1.4": (_A1, ((-1, 2, 2),), ((1, 1, 1),), ((1, 1, 1), (1, 1, 5), (1, 4, 5))),
    "1.5": (_A2, ((-1, 2, 2),), ((1, 1, 1),), ((1, 1, 1), (1, 2, 5), (1, 3, 5))),
    "1.6": (dict(degree=lambda n: n * (n + 1), num=((-1, 2, 2, 0),),
                 den=((-1, 3, 2, 0), (1, 2, 2, 0))), ((-1, 3, 2),),
            ((1, 1, 1),), ((1, 1, 1), (1, 2, 6), (1, 3, 6), (1, 4, 6))),
    # 1 + 2 sum_{n >= 1}: term 0 would hold (-q^2; q^2)_{-1} = 1/2
    "1.7": (dict(degree=lambda n: n * (n + 1), num=((-1, 2, 2, -1),),
                 den=((1, 2, 2, 0), (-1, 1, 2, 0)), first=1, coeff=2,
                 lead=1), ((-1, 1, 2),), ((1, 1, 1),),
            ((1, 6, 6), (1, 1, 6), (1, 1, 6), (1, 2, 6), (1, 2, 6),
             (1, 4, 6), (1, 4, 6), (1, 5, 6), (1, 5, 6))),
    "1.8": (dict(degree=lambda n: n * n, den=((1, 2, 2, 0),)), ((-1, 2, 2),),
            ((1, 1, 1),), ((1, 1, 1), (1, 1, 6), (1, 3, 6), (1, 5, 6))),
    "A1": (_A1, (), (), ((-1, 2, 2), (1, 1, 5), (1, 4, 5))),
    "A2": (_A2, (), (), ((-1, 2, 2), (1, 2, 5), (1, 3, 5))),
}


def catalog_sides(tag: str, order: int, z_power: int | None = None):
    """(lhs, rhs) of a tag of IDENTITY_TAGS or of "gasper", with z specialized
    to q^z_power, both truncated at the order."""
    if tag == "gasper":
        j = z_power
        if j is None or j < 1:
            raise UnknownIdentityError("gasper needs z_power >= 1")
        return (_sum_series(order, lambda n: n * (n - 1) // 2 + j * n,
                            den=((1, 1, 1, 0),)),
                pochhammer(PochSpec(-1, j, 1), order))
    if tag not in _CATALOG:
        raise UnknownIdentityError(f"unknown identity tag {tag!r}")
    total, num, den, rhs = _CATALOG[tag]
    num, den = [PochSpec(*f) for f in num], [PochSpec(*f) for f in den]
    # rows without outer factors skip the empty product_expr: at q^300 it
    # takes about 0.8 ms, against 1.8 ms for both sides of A1
    outer = product_expr(num, den, order) if num or den else None
    lhs = outer if total is None else _sum_series(order, outer=outer, **total)
    return lhs, product_expr([], [PochSpec(*f) for f in rhs], order)


IDENTITY_TAGS = tuple(_CATALOG)

#: profile -> identity tag whose left-hand side is its generating function
PROFILE_IDENTITIES = {
    (1, 1): "1.2",
    (2, 0): "1.3",
    (2, 1): "1.4",
    (1, 1, 0): "1.4",
    (3, 0): "1.5",
    (2, 0, 0): "1.5",
    (4, 0): "1.6",
    (2, 0, 0, 0): "1.6",
    (2, 2): "1.7",
    (1, 0, 1, 0): "1.7",
    (3, 1): "1.8",
    (1, 1, 0, 0): "1.8",
}
