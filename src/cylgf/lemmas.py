"""Telescoping q-series identities over nested geometric-style sums.

Three families share one skeleton and differ only by a global exponent
offset e on the denominator bases:

    family A: e = 0    numerators q^{2k+1}, denominators (1+q^{2k}) ...
    family B: e = +1   numerators q^{2k+2}, denominators (1+q^{2k+1}) ...
    family C: e = -1   numerators q^{2k},   denominators (1+q^{2k-1}) ...

A spec with n blocks m_1..m_n denotes the n-fold sum over k_1..k_n >= 1 of

    prod_i  prod_{j=1..m_i} q^{2K_i + 2M_{i-1} + 2j - 1 + e}
            / prod_{j=0..m_i} (1 + q^{2K_i + 2M_{i-1} + 2j + e})

with K_i = k_1+..+k_i and M_i = m_1+..+m_i.  The closed form telescopes to

    prod_{j=1..M} q^{2j-1+e}/(1+q^{2j+e}) * prod_i q^{2T_i}/(1 - q^{2T_i})

with M = M_n and suffix sums T_i = m_i+..+m_n.  The fixed-k variants keep
k as an explicit parameter (k >= 0, one block): the sum side is the block's
term at K = k, and the identity is its partial-fraction split.
`nested_sums` evaluates the sums of many block vectors of one family at
once: block i depends only on the prefix (m_1, ..., m_i), so each block
pass runs once per distinct prefix, and `verify_lemmas` checks a batch of
specs through it.  One helper, `_term`, builds every term of both sides
from a single progression of denominators (1+q^a)(1+q^(a+2))...  The
fixed-k family-A identity at k = 0 carries the one rational factor of the
package, 1/(1+q^0) = 1/2.  A spec knows its power of two h
(`NestedSumSpec.halves`, 1 there and 0 elsewhere), and both sides are
computed as 2^h times their series, so every coefficient stays an int.
`parse_tag` reads the lemma tags of `cylgf verify --id`, such as "L4.2(2)".
"""
from __future__ import annotations

from itertools import accumulate

from .record import InputError, Record
from .series import PochSpec, Series, first_mismatch

_OFFSETS = {"A": 0, "B": 1, "C": -1}


class LemmaSpecError(InputError):
    """Rejected nested-sum specification."""


class NestedSumSpec(Record):
    """family A/B/C; block lengths m_1..m_n; optional fixed summation index."""

    __slots__ = ("family", "blocks", "fixed_k")

    def __init__(self, family: str, blocks: tuple[int, ...],
                 fixed_k: int | None = None):
        if family not in _OFFSETS:
            raise LemmaSpecError(f"unknown family {family!r}")
        if not blocks or min(blocks) < 1:
            raise LemmaSpecError(f"block lengths must be >= 1: {blocks}")
        if fixed_k is not None:
            if len(blocks) != 1:
                raise LemmaSpecError("fixed_k requires a single block")
            if fixed_k < 0:
                raise LemmaSpecError(f"fixed_k must be >= 0, got {fixed_k}")
            low = 2 * fixed_k + _OFFSETS[family]
            if low < 0:
                raise LemmaSpecError(
                    f"fixed_k = {fixed_k} gives family {family} "
                    f"the factor (1 + q^{low})")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "fixed_k", fixed_k)

    @property
    def offset(self) -> int:
        return _OFFSETS[self.family]

    @property
    def halves(self) -> int:
        """h, the power of two that scales both sides to integers: the one
        factor 1/(1+q^0) = 1/2 is family A's at fixed k = 0."""
        return int(self.family == "A" and self.fixed_k == 0)


def _term(base: Series, degree: int, start: int, count: int,
          halves: int = 0, den=()) -> Series:
    """2^halves q^degree base / ((1+q^start)(1+q^(start+2)) ... (count
    factors) * prod(den)), den a list of PochSpecs: one `Series.times` call.

    A factor (1+q^0) = 2 stays out of the int kernel `Series.times` and
    comes off the power of two instead: only fixed-k family A at k = 0
    starts at 0, and its h = 1, so the coefficient stays an int.  Past the
    order `times` returns the zero series and expands nothing, so a block
    of 10^8 factors costs nothing.
    """
    if start == 0:
        start, count, halves = 2, count - 1, halves - 1
    return base.times((), [PochSpec(-1, start, 2, count), *den], degree,
                      1 << halves)


def nested_sums(family: str, vectors, order: int) -> dict:
    """{blocks: the multi-sum at the order} for every block vector (a tuple)
    of the family, all vectors evaluated as one trie of their prefixes.

    Block i depends on K_i = k_1 + ... + k_i alone, and the sum runs over
    1 <= K_1 < K_2 < ... < K_n.  So with S_1(K) the first block at K and
    S_i(K) = B_i(K) * sum_{K' < K} S_{i-1}(K'), the multi-sum is
    sum_K S_n(K): each block is one pass over K that reads the prefix sums
    of the previous block's terms, each term that prefix sum times
    q^(numerator degree) divided by the block's denominators
    (1 + q^(2K+2M_{i-1}+e+2j)), j = 0..m_i.  Block i's pass depends only on
    the prefix (m_1, ..., m_i), so each distinct prefix is one trie node
    that runs its pass once, and each node forms its prefix sums once for
    all of its children.  For one vector, K_i runs from i until the least
    degree of any full term with that K_i (K_j = j before it, K_i + j - i
    after it) exceeds the order; a node runs to the largest such K_i of the
    vectors through it, so a lone vector forms the terms it needs and no
    more.  A vector whose least term lies past the order is the zero series
    and builds no node.  The trie is walked depth first on an explicit
    stack, and a node's prefix sums live only while a child still reads
    them.
    """
    e = _OFFSETS[family]
    sums, tops = {}, {}
    for blocks in vectors:
        bases = [2 * before + e for before in accumulate(blocks[:-1],
                                                         initial=0)]
        # the least term, K_j = j for every j, has degree low; with K_i = k
        # it gains 2 (k - i) T_i, T_i = m_i + ... + m_n (i counted from 1)
        low = sum(m * (2 * j + b + m)
                  for j, (m, b) in enumerate(zip(blocks, bases), start=1))
        if low > order:
            sums[blocks] = Series.zero(order)
            continue
        sums[blocks] = None  # its leaf fills it in, in the order asked
        tails = list(accumulate(reversed(blocks)))[::-1]
        for i, tail in enumerate(tails):
            key, top = blocks[:i + 1], i + 1 + (order - low) // (2 * tail)
            tops[key] = max(tops.get(key, 0), top)
    children = {}
    for key in tops:
        children.setdefault(key[:-1], []).append(key)

    # (node, base, prefix sums of its parent at K = i, i + 1, ...), i the
    # node's depth; the empty block is 1 at K = 0, so its prefix sums are 1
    one = Series.monomial(0, order)
    stack = [(key, e, [one] * tops[key]) for key in children.get((), ())]
    while stack:
        key, base, prefix = stack.pop()
        m, i = key[-1], len(key)
        # reads[j] is the sum of the node's terms at K = i, ..., i + j, the
        # prefix sum at K = i + j + 1; its last entry is the node's whole
        # sum, and no term outlives its addition
        reads = list(accumulate(
            _term(prefix[k - i], m * (2 * k + base + m), 2 * k + base, m + 1)
            for k in range(i, tops[key] + 1)))
        if key in sums:
            sums[key] = reads[-1]
        below = children.get(key)
        if below:
            # a child may reach past this node's terms
            need = max(tops[child] for child in below) - i
            reads += reads[-1:] * (need - len(reads))
            stack.extend((child, base + 2 * m, reads) for child in below)
    return sums


def nested_sum(spec: NestedSumSpec, order: int) -> Series:
    """2^h times the multi-sum at the order.  A fixed-k spec is the one
    block's term at K = k, and only it has h > 0; any other spec is its
    vector's entry of `nested_sums`, whose trie is then a single path of
    one block pass per block.  Batched with other vectors of its family,
    as `verify_lemmas` does, it shares each pass of a common prefix."""
    if spec.fixed_k is not None:
        m, base = spec.blocks[0], 2 * spec.fixed_k + spec.offset
        return _term(Series.monomial(0, order), m * (base + m), base, m + 1,
                     spec.halves)
    return nested_sums(spec.family, [spec.blocks], order)[spec.blocks]


def closed_form(spec: NestedSumSpec, order: int) -> Series:
    """2^h times the telescoped right-hand side matching nested_sum."""
    e, one = spec.offset, Series.monomial(0, order)
    if spec.fixed_k is not None:
        # numerators q^1 and q^(2k+2j-1+e), j = 2..m, over (1 - q^(2m)) and
        # (1 + q^(2k+2j+e)) for j = 1..m (high) or j = 0..m-1 (low)
        base, m = 2 * spec.fixed_k + e, spec.blocks[0]
        degree, den = 1 + (m - 1) * (base + m + 1), [PochSpec(1, 2 * m, 1, 1)]
        return (_term(one, degree, base + 2, m, spec.halves, den)
                - _term(one, degree, base, m, spec.halves, den))
    # numerators q^(2j-1+e), j = 1..M, and q^(2 T_i); denominators
    # (1 + q^(2j+e)), j = 1..M, and (1 - q^(2 T_i))
    total = sum(spec.blocks)
    minus = [2 * tail for tail in accumulate(reversed(spec.blocks))]
    return _term(one, total * (total + e) + sum(minus), 2 + e, total,
                 den=[PochSpec(1, x, 1, 1) for x in minus])


def verify_lemmas(specs, order: int) -> list:
    """For each spec, None on success, else (degree, lhs, rhs) at the first
    degree where the sum (lhs) and the closed form (rhs) differ.  The
    non-fixed specs of a family share one `nested_sums` trie.

    Both sides carry the same 2^h, which changes neither their equality nor
    the first degree where they differ; only the two values of a mismatch
    are divided back, as Fractions when h > 0.
    """
    vectors = {}
    for spec in specs:
        if spec.fixed_k is None:
            vectors.setdefault(spec.family, []).append(spec.blocks)
    sums = {family: nested_sums(family, blocks, order)
            for family, blocks in vectors.items()}
    results = []
    for spec in specs:
        lhs = (nested_sum(spec, order) if spec.fixed_k is not None
               else sums[spec.family][spec.blocks])
        bad = first_mismatch(lhs, closed_form(spec, order))
        if bad is not None and spec.halves:
            from fractions import Fraction

            scale = 2 ** spec.halves
            bad = bad[0], Fraction(bad[1], scale), Fraction(bad[2], scale)
        results.append(bad)
    return results


def grid(n_max: int, m_max: int, k_max: int):
    """Every spec of at most n_max blocks of length at most m_max, and the
    fixed-k variants of families A and B up to k_max."""
    specs = []
    for family in ("A", "B", "C"):
        vecs = [()]
        for _ in range(n_max):
            vecs = [v + (m,) for v in vecs for m in range(1, m_max + 1)]
            specs.extend(NestedSumSpec(family, v) for v in vecs)
    for family in ("A", "B"):
        for k in range(k_max + 1):
            for m in range(1, m_max + 1):
                specs.append(NestedSumSpec(family, (m,), fixed_k=k))
    return specs


def parse_tag(tag: str) -> list[NestedSumSpec]:
    """The specs of a lemma tag such as "L4.2(2)", "L4.3(1,2)" or "L4.1(3)".

    L4.x map to family A, L5.2-L5.4 to family B, L5.5 to family C; L4.1 and
    L5.1 are the fixed-k variants (block length defaults to 1..3).
    """
    import re

    m = re.fullmatch(r"L([45])\.([1-5])\((\d+(?:,\d+)*)\)", tag)
    if not m:
        raise LemmaSpecError(f"cannot parse lemma tag {tag!r}")
    group, number = int(m.group(1)), int(m.group(2))
    args = tuple(int(x) for x in m.group(3).split(","))
    if group == 4 and number == 5:
        raise LemmaSpecError(f"unknown lemma tag {tag!r}")
    family = "A" if group == 4 else ("C" if number == 5 else "B")
    if number == 1:
        if len(args) > 2:
            raise LemmaSpecError(
                f"{tag}: expected 1 or 2 parameters, got {len(args)}")
        return [NestedSumSpec(family, (m,), fixed_k=args[0])
                for m in args[1:] or (1, 2, 3)]
    expected = {2: 1, 3: 2}.get(number)
    if expected is not None and len(args) != expected:
        raise LemmaSpecError(
            f"{tag}: expected {expected} parameter(s), got {len(args)}")
    return [NestedSumSpec(family, args)]
