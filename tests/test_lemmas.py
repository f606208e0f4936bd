"""Tests for the nested-sum identities and their closed forms."""
import itertools
from fractions import Fraction

import pytest

from cylgf.lemmas import (LemmaSpecError, NestedSumSpec, _ratio, closed_form,
                          grid, nested_sum, report_line, verify_lemma)
from cylgf.series import PochSpec, Series


def geometric(shift, period, order):
    """q^shift / (1 - q^period) at the given order."""
    out = [0] * (order + 1)
    e = shift
    while e <= order:
        out[e] = 1
        e += period
    return Series.from_coeffs(out)


def one_plus_q(exp, order):
    f = [0] * (order + 1)
    f[0] = 1
    if exp <= order:
        f[exp] = 1
    return Series.from_coeffs(f)


def brute_nested_sum(spec, order):
    """The multi-sum from its definition: one Series.times term per explicit
    tuple (k_1, ..., k_n).  Block i has degree >= 2K_i, so K_n <= order/2
    bounds every tuple that reaches the order."""
    e, blocks = spec.offset, spec.blocks
    acc = Series.zero(order)
    top = order // 2 + 1
    for ks in itertools.product(range(1, top + 1), repeat=len(blocks)):
        if sum(ks) > top:
            continue
        deg, den, big_k, big_m = 0, [], 0, 0
        for k, m in zip(ks, blocks):
            big_k += k
            base = 2 * big_k + 2 * big_m
            deg += sum(base + 2 * j - 1 + e for j in range(1, m + 1))
            den += [PochSpec(-1, base + 2 * j + e, 1, 1) for j in range(m + 1)]
            big_m += m
        if deg <= order:
            acc = acc + Series.monomial(deg, order).times((), den)
    return acc


BRUTE_ORDER = 30


class TestSpec:
    def test_rejections(self):
        with pytest.raises(LemmaSpecError):
            NestedSumSpec("D", (1,))
        with pytest.raises(LemmaSpecError):
            NestedSumSpec("A", ())
        with pytest.raises(LemmaSpecError):
            NestedSumSpec("A", (0,))
        with pytest.raises(LemmaSpecError):
            NestedSumSpec("A", (1, 1), fixed_k=1)
        with pytest.raises(LemmaSpecError):
            NestedSumSpec("A", (1,), fixed_k=-1)
        # family C at k = 0 would have the factor (1 + q^(2k - 1)) = (1 + q^-1)
        with pytest.raises(LemmaSpecError, match="fixed_k = 0"):
            NestedSumSpec("C", (1,), fixed_k=0)
        assert verify_lemma(NestedSumSpec("C", (1,), fixed_k=1), 20) is None

    def test_offsets(self):
        assert NestedSumSpec("A", (1,)).offset == 0
        assert NestedSumSpec("B", (1,)).offset == 1
        assert NestedSumSpec("C", (1,)).offset == -1


class TestFixedK:
    def test_family_a_k0_has_half_coefficients(self):
        # q / ((1+q^0)(1+q^2)) = (1/2) q / (1+q^2)
        n = 12
        spec = NestedSumSpec("A", (1,), fixed_k=0)
        lhs = nested_sum(spec, n)
        expected = (one_plus_q(2, n).invert()
                    * Series.monomial(1, n, Fraction(1, 2)))
        assert lhs == expected
        assert verify_lemma(spec, n) is None
        # _ratio halves for a (1+q^0) itself; the series kernels take e >= 1
        # 1 / ((1 + q^0)(1 + q^2)) = (1 - q^2 + q^4 - ...) / 2
        half = Fraction(1, 2)
        assert _ratio(0, [0, 2], [], 4).coeffs == (half, 0, -half, 0, half)
        with pytest.raises(LemmaSpecError, match="vanishes"):
            _ratio(1, [2], [0], 4)

    def test_family_a_single_term(self):
        # q^{2k+1} / ((1+q^{2k})(1+q^{2k+2})) at k=2
        n = 20
        spec = NestedSumSpec("A", (1,), fixed_k=2)
        lhs = nested_sum(spec, n)
        den = one_plus_q(4, n) * one_plus_q(6, n)
        assert lhs == den.invert() * Series.monomial(5, n)
        assert verify_lemma(spec, n) is None

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_partial_fraction_split(self, family, k, m):
        assert verify_lemma(NestedSumSpec(family, (m,), fixed_k=k), 40) is None


class TestNestedSum:
    def test_order_zero_is_zero(self):
        for family in ("A", "B", "C"):
            assert nested_sum(NestedSumSpec(family, (1,)), 0) == Series.zero(0)

    def test_family_a_m1_literal(self):
        # sum_{k>=1} q^{2k+1} / ((1+q^{2k})(1+q^{2k+2})), built by hand
        n = 25
        acc = Series.zero(n)
        for k in range(1, n):
            if 2 * k + 1 > n:
                break
            den = one_plus_q(2 * k, n) * one_plus_q(2 * k + 2, n)
            acc = acc + den.invert() * Series.monomial(2 * k + 1, n)
        assert nested_sum(NestedSumSpec("A", (1,)), n) == acc

    def test_family_b_is_family_a_shifted_by_one(self):
        # the B sum is the A sum with every exponent raised by 1; build the
        # shifted sum literally and compare
        n = 25
        acc = Series.zero(n)
        for k in range(1, n):
            if 2 * k + 2 > n:
                break
            den = one_plus_q(2 * k + 1, n) * one_plus_q(2 * k + 3, n)
            acc = acc + den.invert() * Series.monomial(2 * k + 2, n)
        assert nested_sum(NestedSumSpec("B", (1,)), n) == acc

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chain_pass_equals_brute_force(self, family, n):
        # every block vector with m_i in 1..3, at every order 0..30
        for blocks in itertools.product([1, 2, 3], repeat=n):
            spec = NestedSumSpec(family, blocks)
            full = brute_nested_sum(spec, BRUTE_ORDER)
            for order in range(BRUTE_ORDER + 1):
                truncated = Series.from_coeffs(full.coeffs[:order + 1])
                assert nested_sum(spec, order) == truncated, \
                    (blocks, order)

    def test_truncation_soundness(self):
        for spec in [NestedSumSpec("A", (1, 2)), NestedSumSpec("B", (2,)),
                     NestedSumSpec("C", (1, 1, 1))]:
            base = nested_sum(spec, 30)
            assert nested_sum(spec, 30, extra=1) == base
            assert nested_sum(spec, 30, extra=2) == base


class TestClosedForm:
    def test_family_a_m1(self):
        # (q^2/(1-q^2)) * (q/(1+q^2))
        n = 20
        rhs = closed_form(NestedSumSpec("A", (1,)), n)
        expected = (geometric(2, 2, n) * one_plus_q(2, n).invert()
                    * Series.monomial(1, n))
        assert rhs == expected

    def test_family_b_m1(self):
        # (q^2/(1-q^2)) * (q^2/(1+q^3))
        n = 20
        rhs = closed_form(NestedSumSpec("B", (1,)), n)
        expected = (geometric(2, 2, n) * one_plus_q(3, n).invert()
                    * Series.monomial(2, n))
        assert rhs == expected

    def test_family_c_m1(self):
        # (q^2/(1-q^2)) * (q^0/(1+q^1))
        n = 20
        rhs = closed_form(NestedSumSpec("C", (1,)), n)
        expected = geometric(2, 2, n) * one_plus_q(1, n).invert()
        assert rhs == expected

    def test_two_block_telescoping(self):
        # the (m1, m2) double sum collapses to two geometric factors
        n = 30
        rhs = closed_form(NestedSumSpec("A", (1, 1)), n)
        lead = ((one_plus_q(2, n) * one_plus_q(4, n)).invert()
                * Series.monomial(1 + 3, n))
        expected = lead * geometric(4, 4, n) * geometric(2, 2, n)
        assert rhs == expected


class TestVerify:
    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_small_grid(self, family):
        for blocks in [(1,), (3,), (1, 2), (2, 2), (1, 1, 1), (3, 1, 2)]:
            assert verify_lemma(NestedSumSpec(family, blocks), 40) is None, \
                (family, blocks)

    def test_grid_contents(self):
        specs = grid(2, 2, 1)
        fams = {s.family for s in specs}
        assert fams == {"A", "B", "C"}
        assert sum(1 for s in specs if s.fixed_k is not None) == 2 * 2 * 2
        assert sum(1 for s in specs if s.fixed_k is None) == 3 * (2 + 4)

    def test_report_line(self):
        line, ok = report_line(NestedSumSpec("A", (1, 2), fixed_k=None), 20)
        assert ok and line == "A,2,1+2,-,20,PASS"
        line, ok = report_line(NestedSumSpec("B", (2,), fixed_k=3), 20)
        assert ok and line == "B,1,2,3,20,PASS"
