"""Three independent routes to the same generating functions.

* borodin: the closed-form infinite product for F_c(1, q).
* chain_series: the slice-chain DP, refined by the largest-part statistic
  (z-degree) and the size (q-degree) for the callers that read F_c(z, q)
  (the tests and the benchmark checks), or run at z = 1 for `expand`, which
  prints only F_c(1, q).
* catalog_sides: a table of named series identities, one row per tag
  (the lemma tags L4.x, L5.x belong to `lemmas`), read by one evaluator.
  Each sum is kept by its term ratio and built term from previous term,
  starting from the row's outer product, which `product_expr` expands once;
  the right-hand side is `product_expr` alone.  Both sides are expanded so
  they can be compared coefficient by coefficient.
"""
from __future__ import annotations

from .cylindric import Profile
from .record import Record
from .series import PochSpec, Series, pochhammer, product_expr
from .slices import baseline, shape_difference, shape_floors


class FormulaError(ValueError):
    """A product factor came out with a nonpositive exponent (indexing bug)."""


class UnknownIdentityError(ValueError):
    """Identity tag not in the catalog, or parameters out of range."""


def borodin_specs(profile: Profile) -> list[PochSpec]:
    """Denominator factor list of the closed-form product for F_c(1, q).

    One factor (q^t; q^t) plus, for every admissible (i, j, m) in the two
    triple products, a factor (q^e; q^t) whose exponent e is checked to be
    at least 1; empty partial sums s(i, j) with i > j contribute 0.
    """
    c = profile.parts
    r = profile.rank
    t = profile.t
    s = profile.partial_sum
    exps = [t]
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            inner = s(i + 1, j) if i + 1 <= j else 0
            for m in range(1, c[i - 1] + 1):
                exps.append(m + j - i + inner)
    for i in range(2, r + 1):
        for j in range(2, i + 1):
            for m in range(1, c[i - 1] + 1):
                exps.append(t - m + j - i - s(j, i - 1))
    for e in exps:
        if e < 1:
            raise FormulaError(
                f"factor exponent {e} < 1 for profile {profile} (t={t})"
            )
    return [PochSpec(1, e, t) for e in exps]


def borodin(profile: Profile, order: int) -> Series:
    """F_c(1, q) from the closed-form product, truncated at the order."""
    return product_expr([], borodin_specs(profile), order)


class ChainGF(Record):
    """table[m][n] = coefficient of z^m q^n in the chain generating function.

    A table folded at z = 1 (`chain_series(..., refined=False)`) is one row,
    table = (row,) with row[n] = [q^n] F_c(1, q); `marginal` reads both.
    The last four fields count the work done (slices, shapes, prefix sums
    added, packed slot width); equality and hashing leave them out.
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
    (`slices.shape_floors`), and (sigma', L') lies inside (sigma, L) exactly
    when L - L' >= d(sigma', sigma) = max(0, max_j (sigma'_j - sigma_j)),
    the weighted-words difference condition.  Strictly inside means
    L - L' >= e(sigma', sigma), with e = d for sigma' != sigma and e = 1 for
    sigma' = sigma.  g(sigma, L) collects the chains whose largest (bottom)
    slice is (sigma, L), and P_sigma[L] = sum of g(sigma, L'') over L'' <= L,
    so the chains below (sigma, L), with the empty one, number
    inner = 1 + sum over sigma' of P_sigma'[L - e(sigma', sigma)].  Slices
    are visited in (L, sum(sigma)) order: an inner slice has a smaller L,
    or the same L (d = 0) and a smaller shape sum, so every prefix read is
    complete.

    Each (z, q) table is one int (Kronecker substitution): z^m q^k sits in
    the B-bit slot k*(N+1) + m, so a table add is one big-int add.  An entry
    counts distinct cylindric partitions of one size k <= N, whose r rows
    are partitions of total size k, so it is at most [q^N] (q;q)_oo^{-r}
    (nondecreasing in N); B is the bit length of that bound, so no slot
    carries into the next.  z^j q^{jw} is a shift by j*(w*(N+1)+1) slots.
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
    r, base = profile.rank, sum(baseline(profile))
    floors = shape_floors(profile)
    # the shapes with a slice of weight sum(sigma) + r*L - sum(b) <= N:
    # sigma, sum(sigma) and the range of L
    letters = []
    for sh, low in floors.items():
        size = sum(sh)
        high = (n + base - size) // r
        if low <= high:
            letters.append((sh, size, low, high))
    # per letter sigma, pairs (sigma', L_min(sigma') + e(sigma', sigma)): at
    # last-row length L, P_sigma' is read at list index L minus that offset
    reads = [[(k2, low2 + (1 if k2 == k else shape_difference(sh2, sh)))
              for k2, (sh2, _, low2, _) in enumerate(letters)]
             for k, (sh, _, _, _) in enumerate(letters)]
    prefix: list[list[int]] = [[] for _ in letters]
    nodes = pairs = 0
    for length in range(min((x[2] for x in letters), default=1),
                        max((x[3] for x in letters), default=0) + 1):
        for k, (_, size, low, high) in enumerate(letters):
            if not low <= length <= high:
                continue
            terms = [prefix[k2][length - off] for k2, off in reads[k]
                     if off <= length]
            pairs += len(terms)
            inner = 1 + sum(terms)
            w = size + r * length - base
            span = (w * z_slots + refined) * bits
            cur = (inner << span) & mask
            if not distinct:
                reps = 1
                while reps < n // w:
                    cur = (cur + (cur << span)) & mask
                    span *= 2
                    reps *= 2
            p = prefix[k]
            p.append(p[-1] + cur if p else cur)
            nodes += 1

    total = 1 + sum(p[-1] for p in prefix)
    row_mask, slot_mask = (1 << z_slots * bits) - 1, (1 << bits) - 1
    rows = [total >> k * z_slots * bits & row_mask for k in range(side)]
    table = tuple(tuple(row >> m * bits & slot_mask for row in rows)
                  for m in range(z_slots))
    return ChainGF(profile, n, distinct, table, nodes, len(floors), pairs,
                   bits)


# --- identity catalog ------------------------------------------------------
# A row of _CATALOG is (sum or None, outer numerator, outer denominator, rhs
# denominator), a product (sign, start, step) being PochSpec(sign, start,
# step), and a sum the keyword arguments of _sum_series.  A sum family
# (sign, start, step, offset) is PochSpec(sign, start, step, n + offset) in
# term n, so term n is term n - 1 shifted by degree(n) - degree(n - 1) and
# times one factor of exponent start + (n + offset - 1)*step.


def _sum_series(order: int, degree, num=(), den=(), first=0, coeff=1,
                lead=0, outer: Series | None = None) -> Series:
    """outer * (lead + sum_{n >= first} coeff q^degree(n) prod num / prod
    den), up to its first term of degree past the order (degree increases);
    no outer means 1.  Multiplying by outer commutes with the step from one
    term to the next, so the sum starts from it: lead*outer, then term
    `first` as coeff q^degree(first) outer times its factors, then one
    `times` pass per new factor of each later term."""
    def factors(n, new):
        return [[PochSpec(g, a + (n + off - 1) * k, k, 1) if new
                 else PochSpec(g, a, k, n + off) for g, a, k, off in fams]
                for fams in (num, den)]

    base = (outer or Series.monomial(0, order)).coeffs

    def start(shift, scale):  # scale q^shift outer
        shift = min(shift, order + 1)
        return Series(order, (0,) * shift + tuple(
            scale * c for c in base[:order + 1 - shift]))

    acc = start(0, lead)
    n, deg = first, degree(first)
    term = start(deg, coeff).times(*factors(n, False))
    while deg <= order:
        acc = acc + term
        n += 1
        shift, deg = degree(n) - deg, degree(n)
        if deg <= order:
            coeffs = (0,) * shift + term.coeffs[:order + 1 - shift]
            term = Series(order, coeffs).times(*factors(n, True))
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
