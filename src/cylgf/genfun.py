"""Three independent routes to the same generating functions.

* borodin: the closed-form infinite product for F_c(1, q).
* chain_series: the slice-chain DP, the paper's method of weighted words:
  each last-row length keeps down-set sums over the lattice of shape
  letters, from which the chains inside each slice are read.  It is
  refined by the largest-part statistic (z-degree) and the size (q-degree)
  for the callers that read F_c(z, q) (the tests and the benchmark checks),
  or run at z = 1 for `expand`, which prints only F_c(1, q).
* catalog_sides: a table of named series identities, one row per tag
  (the lemma tags L4.x, L5.x belong to `lemmas`), read by one evaluator.
  Each sum is kept by its term ratio and built term from previous term,
  starting from the row's outer product, which `product_expr` expands once;
  the right-hand side is `product_expr` alone.  Both sides are expanded so
  they can be compared coefficient by coefficient.
"""
from __future__ import annotations

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
    The last four fields count the work done (slices, shapes, shape-lattice
    sums read, packed slot width); equality and hashing leave them out.
    """

    __slots__ = ("profile", "order", "distinct", "table",
                 "nodes", "shapes", "shape_pairs", "slot_bits")
    _compared = __slots__[:4]

    def __init__(self, profile: Profile, order: int, distinct: bool,
                 table: tuple[tuple[int, ...], ...], nodes: int = 0,
                 shapes: int = 0, shape_pairs: int = 0, slot_bits: int = 0):
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
    a slice of weight <= N.  Each last-row length L keeps two lists over all
    shapes:

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
    and H_L(sigma) = S + g(sigma, L).  Shapes are visited in `shape_floors`
    order, in which sigma - A comes before sigma, and T_{L-1} is complete
    before layer L starts.  A shape with c corners costs 2^c reads,
    c <= min(r - 1, level), one of them of T_{L-1}; no pair of letters is
    ever compared.  `shape_pairs` counts the reads.

    Each (z, q) table is one int (Kronecker substitution): z^m q^k sits in
    the B-bit slot k*(N+1) + m, so a table add is one big-int add.  An entry
    counts distinct cylindric partitions of one size k <= N, whose r rows
    are partitions of total size k, so it is at most [q^N] (q;q)_oo^{-r}
    (nondecreasing in N); B is the bit length of that bound, so no slot
    carries into the next.  The same holds for every H, T and inner: each
    of their slots counts partitions of one size (with the empty one at
    k = 0).  The partial sums of the inclusion-exclusion may leave a slot
    negative or past 2^B, borrowing from or carrying into the next; but
    they are exact integer sums, S ends as the packing of its exact slots,
    and no partial sum is ever masked.  Only inner and the repetition terms
    are.  z^j q^{jw} is a shift by j*(w*(N+1)+1) slots.
    Nonzero cells have m <= k and w >= 1, so a term with k + jw <= N has
    m + j <= N and keeps its row; a term past q^N lands at slot (N+1)^2 or
    above, where the mask drops it.  The repetition sum over
    j = 1 .. floor(N/w) is built by doubling, S <- S + S * (z q^w)^span with
    span = 1, 2, 4, ...: about log2(N/w) steps, and the terms with
    j > floor(N/w) it adds have q-degree past N, so the mask drops them.

    With refined=False the same loop runs at z = 1: q^k sits in slot k, a
    level of weight w repeated j times is a shift by j*w slots, the mask
    keeps N+1 slots, and the result is the one row table = (row,).  A slot
    still counts the cylindric partitions of one size k <= N, so B is the
    same.  `expand` asks for this layout, as it prints only F_c(1, q); the
    default (N+1)^2 layout is the reference for F_c(z, q).
    """
    n, side = order, order + 1
    z_slots = side if refined else 1
    bound = product_expr([], [PochSpec(1, 1, 1)] * profile.rank, n)
    bits = bound.coeffs[n].bit_length()
    mask = (1 << (side * z_slots * bits)) - 1
    r, level, base = profile.rank, profile.level, sum(baseline(profile))
    floors = shape_floors(profile)
    index = {sh: k for k, sh in enumerate(floors)}
    # per shape sigma: its floor, the last L of a slice of weight <= N, its
    # weight less r*L, the index of sigma+, and the indices of sigma - A for
    # the non-empty sets A of removable corners, |A| odd and |A| even
    shapes = []
    for sh, low in floors.items():
        below = [(sh, -1)]  # sigma - A with its sign (-1)^(|A|+1)
        for j, (s, after) in enumerate(zip(sh, sh[1:] + (0,))):
            if s > after:
                below += [(t[:j] + (s - 1,) + t[j + 1:], -sign)
                          for t, sign in below]
        size = sum(sh)
        shapes.append((low, (n + base - size) // r, size - base,
                       index[tuple([min(s + 1, level) for s in sh])],
                       [index[t] for t, sign in below if sign > 0],
                       [index[t] for t, sign in below[1:] if sign < 0]))
    spans = [(low, high) for low, high, *_ in shapes if low <= high]
    lengths = range(min((low for low, _ in spans), default=1),
                    max((high for _, high in spans), default=0) + 1)
    total, nodes = 1, 0
    inside_below = [0] * len(shapes)  # T_{L-1}, 0 below the least L
    for length in lengths:
        down, inside = [], []  # H_L and T_L
        for low, high, w0, up, odd, even in shapes:
            s = 0
            for k in odd:
                s += down[k]
            for k in even:
                s -= down[k]
            if low <= length <= high:
                w = w0 + r * length
                span = (w * z_slots + refined) * bits
                cur = ((1 + inside_below[up] + s) << span) & mask
                if not distinct:
                    # doublings until 2^steps >= floor(N/w) terms
                    for _ in range((n // w - 1).bit_length()):
                        cur = (cur + (cur << span)) & mask
                        span *= 2
                s += cur
                total += cur
                nodes += 1
            down.append(s)
            inside.append(s + inside_below[up])
        inside_below = inside
    reads = len(lengths) * sum(len(odd) + len(even) + 1
                               for *_, odd, even in shapes)

    row_mask, slot_mask = (1 << z_slots * bits) - 1, (1 << bits) - 1
    rows = [total >> k * z_slots * bits & row_mask for k in range(side)]
    table = tuple(tuple(row >> m * bits & slot_mask for row in rows)
                  for m in range(z_slots))
    return ChainGF(profile, n, distinct, table, nodes, len(floors), reads,
                   bits)


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
