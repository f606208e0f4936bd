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
split instead of a sum.  Coefficients may be genuinely rational here: the
fixed-k family-A identity at k = 0 carries a factor 1/(1+q^0) = 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .series import PochSpec, Series, first_mismatch

_OFFSETS = {"A": 0, "B": 1, "C": -1}


class LemmaSpecError(ValueError):
    """Rejected nested-sum specification."""


@dataclass(frozen=True)
class NestedSumSpec:
    """family A/B/C; block lengths m_1..m_n; optional fixed summation index."""

    family: str
    blocks: tuple[int, ...]
    fixed_k: int | None = None

    def __post_init__(self):
        if self.family not in _OFFSETS:
            raise LemmaSpecError(f"unknown family {self.family!r}")
        if not self.blocks or any(m < 1 for m in self.blocks):
            raise LemmaSpecError(f"block lengths must be >= 1: {self.blocks}")
        if self.fixed_k is not None:
            if len(self.blocks) != 1:
                raise LemmaSpecError("fixed_k requires a single block")
            if self.fixed_k < 0:
                raise LemmaSpecError(f"fixed_k must be >= 0, got {self.fixed_k}")

    @property
    def offset(self) -> int:
        return _OFFSETS[self.family]


def _ratio(num_exps, plus_exps, minus_exps, order: int) -> Series:
    """q^(sum num_exps) / (prod (1+q^d) * prod (1-q^d)) at the order.

    A (1+q^0) factor becomes the scalar 1/2.
    """
    if 0 in minus_exps:
        raise LemmaSpecError("denominator factor (1 - q^0) vanishes")
    den = [PochSpec(-1, d, 1, 1) for d in plus_exps]
    den += [PochSpec(1, d, 1, 1) for d in minus_exps]
    return Series.monomial(sum(num_exps), order).times((), den)


def _block_exps(e: int, base: int, m: int) -> tuple[list[int], list[int]]:
    """(numerator, denominator) exponents of one block over base = 2K+2M_prev."""
    nums = [base + 2 * j - 1 + e for j in range(1, m + 1)]
    dens = [base + 2 * j + e for j in range(0, m + 1)]
    return nums, dens


def nested_sum(spec: NestedSumSpec, order: int, extra: int = 0) -> Series:
    """The multi-sum evaluated exactly at the order, one chain pass per block.

    Block i depends on K_i = k_1 + ... + k_i alone, and the sum runs over
    1 <= K_1 < K_2 < ... < K_n.  So with S_1(K) the first block at K and
    S_i(K) = B_i(K) * sum_{K' < K} S_{i-1}(K'), the multi-sum is
    sum_K S_n(K): each block is one pass over K with a running prefix sum
    of the previous block's terms, each term that prefix times q^(numerator
    degree) divided by the block's denominators (1 + q^(2K+2M_{i-1}+e+2j)),
    j = 0..m_i.  K_i runs from i until the least degree of any full term
    with that K_i (K_j = j before it, K_i + j - i after it) exceeds the
    order; `extra` runs every range that many steps further, which must not
    change any coefficient (truncation soundness).
    """
    e = spec.offset
    blocks = spec.blocks

    if spec.fixed_k is not None:
        base = 2 * spec.fixed_k
        nums, dens = _block_exps(e, base, blocks[0])
        return _ratio(nums, dens, (), order)

    bases = [2 * sum(blocks[:i]) + e for i in range(len(blocks))]

    def degree(i: int, k: int) -> int:
        """Numerator degree of block i at K_i = k."""
        m = blocks[i]
        return m * (2 * k + bases[i]) + m * m

    def least(i: int, k: int) -> int:
        return sum(degree(j, j + 1 if j < i else k + j - i)
                   for j in range(len(blocks)))

    # (K, coefficients) of the previous block's terms; the empty block is 1
    # at K = 0.  Prefix sums stay plain lists, added in C by map(add, ...).
    terms = [(0, (1,) + (0,) * order)]
    for i, m in enumerate(blocks):
        prefix, done, out = [0] * (order + 1), 0, []
        k, over = i + 1, 0
        while True:
            if least(i, k) > order:
                over += 1
                if over > extra:
                    break
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
    """The telescoped right-hand side matching nested_sum."""
    e = spec.offset
    if spec.fixed_k is not None:
        k, m = spec.fixed_k, spec.blocks[0]
        shared = [2 * k + 2 * j - 1 + e for j in range(2, m + 1)]
        d_low = [2 * k + 2 * j + e for j in range(0, m)]
        d_high = [2 * k + 2 * j + e for j in range(1, m + 1)]
        nums = [1] + shared
        return (_ratio(nums, d_high, [2 * m], order)
                - _ratio(nums, d_low, [2 * m], order))
    total = sum(spec.blocks)
    nums = [2 * j - 1 + e for j in range(1, total + 1)]
    plus = [2 * j + e for j in range(1, total + 1)]
    minus = []
    for i in range(len(spec.blocks)):
        suffix = sum(spec.blocks[i:])
        nums.append(2 * suffix)
        minus.append(2 * suffix)
    return _ratio(nums, plus, minus, order)


def verify_lemma(spec: NestedSumSpec, order: int):
    """None on success, else (degree, sum_coeff, closed_coeff)."""
    return first_mismatch(nested_sum(spec, order), closed_form(spec, order))


def grid(n_max: int = 3, m_max: int = 3, k_max: int = 6):
    """The default verification grid over all three families."""
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


def report_line(spec: NestedSumSpec, order: int) -> tuple[str, bool]:
    """One CSV-ish audit line: family,n,m_vec,k_or_-,order,status."""
    bad = verify_lemma(spec, order)
    status = "PASS" if bad is None else f"FAIL@q^{bad[0]}"
    k = "-" if spec.fixed_k is None else str(spec.fixed_k)
    m_vec = "+".join(str(m) for m in spec.blocks)
    line = f"{spec.family},{len(spec.blocks)},{m_vec},{k},{order},{status}"
    return line, bad is None
