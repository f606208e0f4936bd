"""Tests for exact truncated series arithmetic and Pochhammer products."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf.series import (NotAUnitError, OrderMismatchError, PochSpec,
                          PochSpecError, Series, UNBOUNDED, first_mismatch,
                          pochhammer, product_expr)


def partition_counts(n_max):
    """Independent oracle: number of partitions of n, by the classic DP."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


def distinct_odd_counts(n_max):
    """Oracle: partitions of n into distinct odd parts, subset DP."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1, 2):
        for n in range(n_max, part - 1, -1):
            table[n] += table[n - part]
    return table


def rand_series(rng, order, unit=False):
    coeffs = [rng.randint(-4, 4) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return Series.from_coeffs(coeffs)


COEFF = st.one_of(st.integers(-50, 50),
                  st.fractions(-50, 50, max_denominator=6))


@st.composite
def series_triples(draw):
    """Three series of one order, with int or rational coefficients."""
    order = draw(st.integers(0, 8))
    coeffs = st.lists(COEFF, min_size=order + 1, max_size=order + 1)
    return tuple(Series.from_coeffs(draw(coeffs)) for _ in range(3))


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(series_triples())
    def test_commutative_associative_distributive(self, abc):
        a, b, c = abc
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(series_triples(), st.sampled_from([1, -1]))
    def test_unit_times_inverse_is_one(self, abc, c0):
        a = Series.from_coeffs((c0,) + abc[0].coeffs[1:])
        assert a * a.invert() == Series.one(a.order)


class TestArithmetic:
    def test_add_cancellation(self):
        a = Series.from_coeffs([1, 1])
        b = Series.from_coeffs([1, -1])
        assert a + b == Series.from_coeffs([2, 0])

    def test_sub_self_is_zero(self):
        s = Series.from_coeffs([3, -2, 5])
        assert s - s == Series.zero(2)

    def test_add_partition_series_plus_zero(self):
        p = pochhammer(PochSpec(1, 1, 1), 2).invert()
        expected = Series.from_coeffs(partition_counts(2))
        assert p + Series.zero(2) == expected
        assert expected.coeffs == (1, 1, 2)

    def test_mul_difference_of_squares(self):
        a = Series.from_coeffs([1, 1, 0])
        b = Series.from_coeffs([1, -1, 0])
        assert a * b == Series.from_coeffs([1, 0, -1])

    def test_mul_by_one_is_identity(self):
        s = Series.from_coeffs([2, 0, -3, 7])
        assert s * Series.one(3) == s

    def test_convolution_example(self):
        a = Series.from_coeffs([1, 1, 0, 1, 1, 1])
        b = Series.from_coeffs([1, 1, 2, 3, 5, 7])
        assert (a * b).coeffs == (1, 2, 3, 6, 10, 16)

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            Series.one(2) + Series.one(3)
        with pytest.raises(OrderMismatchError):
            Series.one(2) * Series.one(3)

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240817)
        for _ in range(50):
            n = rng.randint(0, 8)
            a, b, c = (rand_series(rng, n) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_scale_and_shift(self):
        s = Series.from_coeffs([1, 2, 3])
        assert s.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
        assert s.shift(1).coeffs == (0, 1, 2)
        assert s.shift(5) == Series.zero(2)

    def test_truncate(self):
        s = Series.from_coeffs([1, 2, 3, 4])
        assert s.truncate(1).coeffs == (1, 2)
        with pytest.raises(OrderMismatchError):
            s.truncate(9)


class TestInvert:
    def test_geometric_series(self):
        s = Series.from_coeffs([1, -1, 0, 0, 0])
        assert s.invert().coeffs == (1, 1, 1, 1, 1)

    def test_invert_one(self):
        assert Series.one(4).invert() == Series.one(4)

    def test_partition_function(self):
        p = pochhammer(PochSpec(1, 1, 1), 8).invert()
        assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)
        assert p.coeffs == tuple(partition_counts(8))

    def test_two_sided_inverse_randomized(self):
        rng = random.Random(99)
        for _ in range(30):
            s = rand_series(rng, rng.randint(0, 10), unit=True)
            assert s * s.invert() == Series.one(s.order)
            assert s.invert() * s == Series.one(s.order)

    def test_rational_leading_coefficient(self):
        s = Series.from_coeffs([2, 1])
        inv = s.invert()
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4))

    def test_non_unit_raises(self):
        with pytest.raises(NotAUnitError):
            Series.from_coeffs([0, 1]).invert()


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(PochSpec(1, 1, 1, count=0), 5) == Series.one(5)

    def test_single_factor(self):
        assert pochhammer(PochSpec(1, 1, 1, count=1), 3).coeffs == (1, -1, 0, 0)

    def test_distinct_odd_parts(self):
        s = pochhammer(PochSpec(-1, 1, 2), 9)
        assert s.coeffs == (1, 1, 0, 1, 1, 1, 1, 1, 2, 2)
        assert s.coeffs == tuple(distinct_odd_counts(9))

    def test_unbounded_equals_long_enough_bounded(self):
        inf = pochhammer(PochSpec(1, 2, 3), 20)
        fin = pochhammer(PochSpec(1, 2, 3, count=7), 20)
        assert inf == fin

    def test_start_zero_plus_sign(self):
        # (1 - q^0) = 0 annihilates everything for a bounded product
        s = pochhammer(PochSpec(1, 0, 2, count=2), 4)
        assert s == Series.zero(4)
        # (1 + q^0) = 2 doubles
        s = pochhammer(PochSpec(-1, 0, 9, count=1), 4)
        assert s.coeffs == (2, 0, 0, 0, 0)

    def test_rejected_specs(self):
        with pytest.raises(PochSpecError):
            PochSpec(2, 1, 1)
        with pytest.raises(PochSpecError):
            PochSpec(1, -1, 1)
        with pytest.raises(PochSpecError):
            PochSpec(1, 1, 0)
        with pytest.raises(PochSpecError):
            PochSpec(1, 1, 1, count=-2)
        with pytest.raises(PochSpecError):
            PochSpec(1, 0, 2, count=UNBOUNDED)


class TestProductExpr:
    def test_empty_is_one(self):
        assert product_expr([], [], 6) == Series.one(6)

    def test_partition_function(self):
        p = product_expr([], [PochSpec(1, 1, 1)], 8)
        assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)

    def test_profile_one_one_product(self):
        s = product_expr([PochSpec(-1, 1, 2)], [PochSpec(1, 1, 1)], 4)
        assert s.coeffs == (1, 2, 3, 6, 10)

    def test_non_unit_denominator(self):
        with pytest.raises(NotAUnitError, match="is not a unit"):
            product_expr([], [PochSpec(1, 0, 2, count=1)], 4)
        with pytest.raises(NotAUnitError, match="is not a unit"):
            product_expr([PochSpec(-1, 1, 1)], [PochSpec(1, 0, 3, count=2)], 5)


def factor_series(sign, e, order):
    """The two-term series 1 - sign*q^e (a constant when e == 0)."""
    coeffs = [1] + [0] * order
    if e <= order:
        coeffs[e] -= sign
    return Series.from_coeffs(coeffs)


def slow_product(numerator, denominator, order):
    """Reference for product_expr from explicit factors, * and invert only."""
    def factors(spec):
        k = 0
        while k != spec.count:
            e = spec.start + k * spec.step
            if spec.count is UNBOUNDED and e > order:
                return
            yield factor_series(spec.sign, e, order)
            k += 1

    num = den = Series.one(order)
    for spec in numerator:
        for f in factors(spec):
            num = num * f
    for spec in denominator:
        for f in factors(spec):
            den = den * f
    return num * den.invert()


def rand_spec(rng, order):
    """sign +-1, start 0-4, step 1-3; bounded counts may reach past the order."""
    while True:
        sign, start, step = rng.choice([1, -1]), rng.randint(0, 4), rng.randint(1, 3)
        count = rng.choice([UNBOUNDED, rng.randint(0, order // step + 3)])
        if not (count is UNBOUNDED and start == 0 and sign == 1):
            return PochSpec(sign, start, step, count)


class TestTimes:
    def test_matches_mul_and_invert_randomized(self):
        rng = random.Random(4417)
        seen = {"halves": 0, "not_a_unit": 0}
        for _ in range(400):
            order = rng.randint(0, 12)
            num = [rand_spec(rng, order) for _ in range(rng.randint(0, 3))]
            den = [rand_spec(rng, order) for _ in range(rng.randint(0, 3))]
            base = rand_series(rng, order)
            base = base.shift(rng.randint(0, 3)).scale(rng.choice([1, 2, Fraction(1, 3)]))
            try:
                expected = slow_product(num, den, order)
            except NotAUnitError:
                seen["not_a_unit"] += 1
                with pytest.raises(NotAUnitError):
                    product_expr(num, den, order)
                with pytest.raises(NotAUnitError):
                    base.times(num, den)
                continue
            got = product_expr(num, den, order)
            assert got == expected
            assert base.times(num, den) == base * expected
            if any(isinstance(c, Fraction) for c in got.coeffs):
                seen["halves"] += 1
        assert seen["halves"] > 0 and seen["not_a_unit"] > 0

    def test_one_plus_q0_denominator_gives_halves(self):
        # 1 / ((1 + q^0)(1 + q^2)) = (1 - q^2 + q^4 - ...) / 2
        s = product_expr([], [PochSpec(-1, 0, 2, count=2)], 4)
        half = Fraction(1, 2)
        assert s.coeffs == (half, 0, -half, 0, half)

    def test_pochhammer_is_times_on_one(self):
        spec = PochSpec(-1, 2, 3)
        assert pochhammer(spec, 9) == Series.one(9).times([spec])
        assert pochhammer(spec, 9) == slow_product([spec], [], 9)


class TestMisc:
    def test_first_mismatch(self):
        a = Series.from_coeffs([1, 1, 3])
        b = Series.from_coeffs([1, 2, 3])
        assert first_mismatch(a, b) == (1, 1, 2)
        assert first_mismatch(a, a) is None

    def test_is_nonneg_integral(self):
        assert Series.from_coeffs([0, 1, 2]).is_nonneg_integral()
        assert not Series.from_coeffs([1, -1]).is_nonneg_integral()
        assert not Series.from_coeffs([Fraction(1, 2)]).is_nonneg_integral()
        # a Fraction that reduces to an integer is normalized away
        assert Series.from_coeffs([Fraction(4, 2)]).coeffs == (2,)

    def test_str(self):
        assert str(Series.from_coeffs([1, 0, Fraction(1, 2)])) == "[1, 0, 1/2]"

    def test_json_round_trip(self):
        s = Series.from_coeffs([1, Fraction(-3, 7), 10 ** 30])
        data = s.to_json_dict()
        assert data["coeffs"][1] == "-3/7"
        assert Series.from_json_dict(data) == s

    def test_json_order_consistency(self):
        with pytest.raises(ValueError):
            Series.from_json_dict({"order": 5, "coeffs": ["1", "2"]})

    def test_monomial(self):
        assert Series.monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
        assert Series.monomial(9, 4) == Series.zero(4)
