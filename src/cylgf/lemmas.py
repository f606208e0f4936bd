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
k as an explicit parameter (k >= 0, one block) and assert a partial-fraction
split instead of a sum.  The fixed-k family-A identity at k = 0 carries the
one rational factor of the package, 1/(1+q^0) = 1/2.  A spec knows its power
of two h (`NestedSumSpec.halves`, 1 there and 0 elsewhere), and both sides
are computed as 2^h times their series, so every coefficient stays an int.
`parse_tag` reads the lemma tags of `cylgf verify --id`, such as "L4.2(2)".
"""
from __future__ import annotations

import re
from itertools import accumulate
from operator import add

from .record import Record
from .series import PochSpec, Series, first_mismatch

_OFFSETS = {"A": 0, "B": 1, "C": -1}


class LemmaSpecError(ValueError):
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


def _ratio(degree: int, plus_exps, minus_exps, order: int,
           halves: int) -> Series:
    """2^halves * q^degree / (prod (1+q^d) * prod (1-q^d)) at the order.

    Each (1+q^0) = 2 stays out of the int kernel `Series.times` and lowers
    the power of two of the monomial instead; `halves` is at least the
    number of such factors, so the coefficient 2^(halves - zeros) is an int
    (a shift: a negative exponent would raise, not make a float).
    The exponents may be ranges: past the order the result is zero and they
    are not read, so a block of 10^8 factors costs nothing.
    """
    if 0 in minus_exps:
        raise LemmaSpecError("denominator factor (1 - q^0) vanishes")
    if degree > order:
        return Series.zero(order)
    den = [PochSpec(-1, d, 1, 1) for d in plus_exps if d != 0]
    den += [PochSpec(1, d, 1, 1) for d in minus_exps]
    coeff = 1 << (halves - plus_exps.count(0))
    return Series.monomial(degree, order, coeff).times((), den)


def _sum_by_twos(first: int, count: int) -> int:
    """first + (first + 2) + ... + (first + 2*(count - 1))."""
    return count * (first + count - 1)


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
    order.  Only fixed-k specs have h > 0.
    """
    e = spec.offset
    blocks = spec.blocks

    if spec.fixed_k is not None:
        # the block at base 2k: numerators q^(2k+2j-1+e), j = 1..m, and
        # denominators (1 + q^(2k+2j+e)), j = 0..m
        base, m = 2 * spec.fixed_k + e, blocks[0]
        return _ratio(_sum_by_twos(base + 1, m),
                      range(base, base + 2 * m + 1, 2), (), order, spec.halves)

    bases = [2 * before + e for before in accumulate(blocks[:-1], initial=0)]
    tails = list(accumulate(reversed(blocks)))[::-1]

    def degree(i: int, k: int) -> int:
        """Numerator degree of block i at K_i = k."""
        m = blocks[i]
        return m * (2 * k + bases[i]) + m * m

    # the least term, K_j = j for every j, has degree low; with K_i = k it
    # gains 2 (k - i) T_i, T_i = m_i + ... + m_n (i counted from 1 here)
    low = sum(degree(j, j + 1) for j in range(len(blocks)))
    if low > order:
        return Series.zero(order)

    # (K, coefficients) of the previous block's terms; the empty block is 1
    # at K = 0.  Prefix sums stay plain lists, added in C by map(add, ...).
    terms = [(0, (1,) + (0,) * order)]
    for i, m in enumerate(blocks):
        prefix, done, out = [0] * (order + 1), 0, []
        k = i + 1
        while low + 2 * (k - i - 1) * tails[i] <= order:
            while done < len(terms) and terms[done][0] < k:
                prefix = list(map(add, prefix, terms[done][1]))
                done += 1
            d = min(degree(i, k), order + 1)
            shifted = Series(order, (0,) * d + tuple(prefix[:order + 1 - d]))
            den = PochSpec(-1, 2 * k + bases[i], 2, m + 1)
            out.append((k, shifted.times((), [den]).coeffs))
            k += 1
        terms = out
    total = [0] * (order + 1)
    for _, coeffs in terms:
        total = list(map(add, total, coeffs))
    return Series.from_coeffs(total)


def closed_form(spec: NestedSumSpec, order: int) -> Series:
    """2^h times the telescoped right-hand side matching nested_sum."""
    e = spec.offset
    if spec.fixed_k is not None:
        # numerators q^1 and q^(2k+2j-1+e), j = 2..m; denominators
        # (1 + q^(2k+2j+e)) over j = 1..m (high) or j = 0..m-1 (low)
        base, m = 2 * spec.fixed_k + e, spec.blocks[0]
        degree = 1 + _sum_by_twos(base + 3, m - 1)
        d_low = range(base, base + 2 * m, 2)
        d_high = range(base + 2, base + 2 * m + 1, 2)
        return (_ratio(degree, d_high, [2 * m], order, spec.halves)
                - _ratio(degree, d_low, [2 * m], order, spec.halves))
    # numerators q^(2j-1+e), j = 1..M, and q^(2 T_i); denominators
    # (1 + q^(2j+e)), j = 1..M, and (1 - q^(2 T_i))
    total = sum(spec.blocks)
    minus = [2 * tail for tail in accumulate(reversed(spec.blocks))][::-1]
    return _ratio(_sum_by_twos(1 + e, total) + sum(minus),
                  range(2 + e, 2 * total + e + 1, 2), minus, order, spec.halves)


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
