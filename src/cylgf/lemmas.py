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
term at K = k, and the identity is its partial-fraction split.  One helper,
`_term`, builds every term of both sides from a single progression of
denominators (1+q^a)(1+q^(a+2))...  The fixed-k family-A identity at k = 0
carries the one rational factor of the package, 1/(1+q^0) = 1/2.  A spec
knows its power of two h (`NestedSumSpec.halves`, 1 there and 0 elsewhere),
and both sides are computed as 2^h times their series, so every coefficient
stays an int.
`parse_tag` reads the lemma tags of `cylgf verify --id`, such as "L4.2(2)".
"""
from __future__ import annotations

import re
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


def nested_sum(spec: NestedSumSpec, order: int) -> Series:
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


def verify_lemma(spec: NestedSumSpec, order: int):
    """None on success, else (degree, lhs, rhs) at the first degree where
    the sum (lhs) and the closed form (rhs) differ.

    Both sides carry the same 2^h, which changes neither their equality nor
    the first degree where they differ; only the two values of a mismatch
    are divided back, as Fractions when h > 0.
    """
    bad = first_mismatch(nested_sum(spec, order), closed_form(spec, order))
    if bad is None or not spec.halves:
        return bad
    from fractions import Fraction

    degree, lhs, rhs = bad
    scale = 2 ** spec.halves
    return degree, Fraction(lhs, scale), Fraction(rhs, scale)


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
