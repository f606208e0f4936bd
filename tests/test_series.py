"""Tests for exact truncated series arithmetic and Pochhammer products."""
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf import genfun, series
from cylgf.cli import main
from cylgf.cylindric import Profile
from cylgf.genfun import IDENTITY_TAGS, borodin_specs, catalog_sides
from cylgf.lemmas import _ratio
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
        assert a * a.invert() == Series.monomial(0, a.order)


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
        assert s * Series.monomial(0, 3) == s

    def test_convolution_example(self):
        a = Series.from_coeffs([1, 1, 0, 1, 1, 1])
        b = Series.from_coeffs([1, 1, 2, 3, 5, 7])
        assert (a * b).coeffs == (1, 2, 3, 6, 10, 16)

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            Series.monomial(0, 2) + Series.monomial(0, 3)
        with pytest.raises(OrderMismatchError):
            Series.monomial(0, 2) * Series.monomial(0, 3)

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240817)
        for _ in range(50):
            n = rng.randint(0, 8)
            a, b, c = (rand_series(rng, n) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestInvert:
    def test_geometric_series(self):
        s = Series.from_coeffs([1, -1, 0, 0, 0])
        assert s.invert().coeffs == (1, 1, 1, 1, 1)

    def test_invert_one(self):
        assert Series.monomial(0, 4).invert() == Series.monomial(0, 4)

    def test_partition_function(self):
        p = pochhammer(PochSpec(1, 1, 1), 8).invert()
        assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)
        assert p.coeffs == tuple(partition_counts(8))

    def test_two_sided_inverse_randomized(self):
        rng = random.Random(99)
        for _ in range(30):
            s = rand_series(rng, rng.randint(0, 10), unit=True)
            assert s * s.invert() == Series.monomial(0, s.order)
            assert s.invert() * s == Series.monomial(0, s.order)

    def test_rational_leading_coefficient(self):
        # over the integers only 1 and -1 are units: 1/(2 + q) is not integral
        with pytest.raises(NotAUnitError, match="constant coefficient 2"):
            Series.from_coeffs([2, 1]).invert()

    def test_non_unit_raises(self):
        with pytest.raises(NotAUnitError):
            Series.from_coeffs([0, 1]).invert()


class TestPochhammer:
    def test_empty_product(self):
        empty = pochhammer(PochSpec(1, 1, 1, count=0), 5)
        assert empty == Series.monomial(0, 5)

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
        # a q^0 factor is a constant, not a factor of the kernels
        with pytest.raises(PochSpecError):
            PochSpec(1, 0, 2, count=1)
        with pytest.raises(PochSpecError):
            PochSpec(-1, 0, 9, count=1)

    def test_start_zero_plus_sign(self):
        # (1 - q^0) = 0 and (1 + q^0) = 2 are constants: neither sign may
        # start at q^0, whatever the count
        for sign in (1, -1):
            for count in (0, 1, 2, UNBOUNDED):
                with pytest.raises(PochSpecError, match="start must be >= 1"):
                    PochSpec(sign, 0, 2, count=count)
        # from q^1 on, a (1 + q^e) product has int coefficients
        s = pochhammer(PochSpec(-1, 1, 9, count=1), 4)
        assert s.coeffs == (1, 1, 0, 0, 0)
        assert all(type(c) is int for c in s.coeffs)


class TestProductExpr:
    def test_empty_is_one(self):
        assert product_expr([], [], 6) == Series.monomial(0, 6)

    def test_partition_function(self):
        p = product_expr([], [PochSpec(1, 1, 1)], 8)
        assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)

    def test_profile_one_one_product(self):
        s = product_expr([PochSpec(-1, 1, 2)], [PochSpec(1, 1, 1)], 4)
        assert s.coeffs == (1, 2, 3, 6, 10)

    def test_non_unit_denominator(self):
        # a (1 - q^0) denominator cannot be built; every factor the kernel
        # takes has constant term 1, so every denominator is a unit
        with pytest.raises(PochSpecError):
            product_expr([], [PochSpec(1, 0, 2, count=1)], 4)
        with pytest.raises(PochSpecError):
            product_expr([PochSpec(-1, 1, 1)], [PochSpec(1, 0, 3, count=2)], 5)
        s = product_expr([PochSpec(-1, 1, 1)], [PochSpec(1, 1, 3, count=2)], 5)
        assert s == slow_product([PochSpec(-1, 1, 1)],
                                 [PochSpec(1, 1, 3, count=2)], 5)
        # a series with no constant term is still not a unit
        with pytest.raises(NotAUnitError, match="constant coefficient is zero"):
            Series.zero(4).invert()


def factor_series(sign, e, order):
    """The two-term series 1 - sign*q^e."""
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

    num = den = Series.monomial(0, order)
    for spec in numerator:
        for f in factors(spec):
            num = num * f
    for spec in denominator:
        for f in factors(spec):
            den = den * f
    return num * den.invert()


def rand_spec(rng, order, max_start=4, max_step=3):
    """sign +-1, start 1-max_start, step 1-max_step; bounded counts may reach
    past the order."""
    sign = rng.choice([1, -1])
    start, step = rng.randint(1, max_start), rng.randint(1, max_step)
    count = rng.choice([UNBOUNDED, rng.randint(0, order // step + 3)])
    return PochSpec(sign, start, step, count)


class TestTimes:
    def test_matches_mul_and_invert_randomized(self):
        rng = random.Random(4417)
        for _ in range(400):
            order = rng.randint(0, 12)
            num = [rand_spec(rng, order) for _ in range(rng.randint(0, 3))]
            den = [rand_spec(rng, order) for _ in range(rng.randint(0, 3))]
            base = rand_series(rng, order)
            base = base * Series.monomial(rng.randint(0, 3), order,
                                          rng.choice([1, 2, Fraction(1, 3)]))
            expected = slow_product(num, den, order)
            got = product_expr(num, den, order)
            assert got == expected
            assert all(type(c) is int for c in got.coeffs)
            assert base.times(num, den) == base * expected

    def test_one_plus_q0_denominator_gives_halves(self):
        # 1 / ((1 + q^0)(1 + q^2)) = (1 - q^2 + q^4 - ...) / 2: the kernel
        # takes the (1 + q^2) on int, and lemmas._ratio, given h = 1, returns
        # 2^h times the ratio, so the (1 + q^0) cancels the 2 and stays int
        s = product_expr([], [PochSpec(-1, 2, 2, count=1)], 4)
        assert s.coeffs == (1, 0, -1, 0, 1)
        assert all(type(c) is int for c in s.coeffs)
        r = _ratio(0, [0, 2], [], 4, 1)
        assert r.coeffs == (1, 0, -1, 0, 1)
        assert all(type(c) is int for c in r.coeffs)

    def test_pochhammer_is_times_on_one(self):
        spec = PochSpec(-1, 2, 3)
        assert pochhammer(spec, 9) == Series.monomial(0, 9).times([spec])
        assert pochhammer(spec, 9) == slow_product([spec], [], 9)


class TestRecurrence:
    """product_expr (log-derivative recurrence) against Series.times on 1
    (one pass per factor)."""

    def test_borodin_products(self):
        from test_cylindric import all_profiles
        for profile in all_profiles(7):
            den = borodin_specs(profile)
            one = Series.monomial(0, 200)
            assert product_expr([], den, 200) == one.times((), den), profile

    def test_catalog_products(self, monkeypatch):
        # every product_expr and pochhammer call of the catalog: the
        # right-hand sides, the left-hand sides of 1.2 and 1.3, the outer
        # products the sums of 1.4-1.8 start from, and gasper's right-hand
        # sides; both sides agree well past the orders of TestCatalog
        calls = []

        def record(num, den, order):
            got = product_expr(num, den, order)
            calls.append((num, den, got))
            return got

        monkeypatch.setattr(genfun, "product_expr", record)
        monkeypatch.setattr(genfun, "pochhammer",
                            lambda spec, order: record([spec], [], order))
        for tag in IDENTITY_TAGS:
            assert first_mismatch(*catalog_sides(tag, 300)) is None, tag
        for j in (1, 2, 5):
            assert first_mismatch(*catalog_sides("gasper", 300, j)) is None, j
        assert len(calls) == len(IDENTITY_TAGS) + 2 + 5 + 3
        for num, den, got in calls:
            one = Series.monomial(0, got.order)
            assert got == one.times(num, den), (num, den)

    def test_matches_times_randomized(self):
        rng = random.Random(8080)
        one_plus_num = 0
        for _ in range(300):
            order = rng.randint(0, 80)
            num = [rand_spec(rng, order, 12, 12)
                   for _ in range(rng.randint(0, 4))]
            den = [rand_spec(rng, order, 12, 12)
                   for _ in range(rng.randint(0, 4))]
            expected = Series.monomial(0, order).times(num, den)
            got = product_expr(num, den, order)
            assert got == expected, (num, den, order)
            assert all(type(c) is int for c in got.coeffs)
            one_plus_num += any(spec.sign == -1 for spec in num)
        assert one_plus_num


# (numerator, denominator) for the packed path of product_expr.  Every case
# but the Borodin product has b_k and p_n of both signs, from numerator
# (1 - q^e) factors; the fourth also has a (1 + q^e) denominator.
PACKED_CASES = [
    ([], borodin_specs(Profile((2, 1)))),
    ([PochSpec(1, 1, 1)] * 3, []),
    ([PochSpec(1, 1, 1)] * 2, [PochSpec(1, 1, 3)] * 4),
    ([PochSpec(1, 1, 2)] * 3, [PochSpec(-1, 2, 2), PochSpec(1, 1, 1)]),
    ([PochSpec(1, 1, 1)] * 5, [PochSpec(1, 2, 1)] * 9),
]
CUT = series._CUT
PACKED_ORDERS = [CUT - 1, CUT, CUT + 1, 2 * CUT + 3]


def pack_twos(values, nbytes):
    """_pack without the bias: each slot in two's complement."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little", signed=True)
                                   for v in values), "little")


def unpack_twos(packed, lo, hi, nbytes):
    """_unpack without the bias: each slot read back in two's complement."""
    bits = 8 * nbytes
    return [int.from_bytes(((packed >> (i * bits)) & ((1 << bits) - 1))
                           .to_bytes(nbytes, "little"), "little", signed=True)
            for i in range(lo, hi)]


def caught(order):
    """How many PACKED_CASES product_expr gets wrong or raises on."""
    wrong = 0
    for num, den in PACKED_CASES:
        try:
            got = product_expr(num, den, order)
        except (ValueError, OverflowError):
            wrong += 1
        else:
            wrong += got != Series.monomial(0, order).times(num, den)
    return wrong


class TestPacked:
    """The relaxed product kernel with its cut forced down, so that the
    Kronecker-packed blocks run at small orders; Series.times is the
    reference."""

    @pytest.mark.parametrize("cut", [1, 2, CUT])
    @pytest.mark.parametrize("order", [0, 1, 5] + PACKED_ORDERS)
    def test_matches_times(self, monkeypatch, cut, order):
        monkeypatch.setattr(series, "_CUT", cut)
        for num, den in PACKED_CASES:
            got = product_expr(num, den, order)
            assert got == Series.monomial(0, order).times(num, den), (num, den)
            assert all(type(c) is int for c in got.coeffs)

    def test_slot_one_byte_short_is_caught(self, monkeypatch):
        slot_bytes = series._slot_bytes
        monkeypatch.setattr(series, "_slot_bytes",
                            lambda *args: slot_bytes(*args) - 1)
        assert caught(2 * CUT + 3)
        monkeypatch.setattr(series, "_CUT", 2)
        assert caught(CUT) == len(PACKED_CASES)

    def test_missing_bias_is_caught(self, monkeypatch):
        # two's complement slots are right for nonnegative values only:
        # a negative slot borrows from the one above it
        monkeypatch.setattr(series, "_pack", pack_twos)
        monkeypatch.setattr(series, "_unpack", unpack_twos)
        for cut in (2, CUT):
            monkeypatch.setattr(series, "_CUT", cut)
            assert caught(2 * CUT + 3) == len(PACKED_CASES) - 1


class TestMisc:
    def test_first_mismatch(self):
        a = Series.from_coeffs([1, 1, 3])
        b = Series.from_coeffs([1, 2, 3])
        bad = first_mismatch(a, b)
        assert bad == (1, 1, 2) and type(bad) is tuple
        assert first_mismatch(a, a) is None

    def test_json_round_trip(self, capsys, monkeypatch):
        # expand --format json writes each coefficient as a decimal string,
        # exact for halves and big integers alike
        s = Series.from_coeffs([1, Fraction(-3, 7), 10 ** 30])
        monkeypatch.setattr(genfun, "borodin", lambda profile, order: s)
        assert main(["expand", "--profile", "1,1", "--order", "2",
                     "--method", "borodin", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "order": 2, "coeffs": ["1", "-3/7", str(10 ** 30)]}

    def test_monomial(self):
        assert Series.monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
        assert Series.monomial(9, 4) == Series.zero(4)
