"""Tests for the product formula, the chain DP, and the identity catalog."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf import genfun
from cylgf.cylindric import Profile, enumerate_table
from cylgf.genfun import (DUALITY_PAIRS, FormulaError, PROFILE_IDENTITIES,
                          UnknownIdentityError, borodin, borodin_specs,
                          catalog_sides, chain_series, lemmas_for_tag,
                          verify_identity)
from cylgf.lemmas import NestedSumSpec
from cylgf.series import (Mismatch, PochSpec, Series, first_mismatch,
                          pochhammer, product_expr)
from cylgf.slices import contains, iter_slices

# the profile orbits and top orders of the chain-dp benchmark workload
CHAIN_ORBITS = [((1, 1), 50), ((2, 1), 40), ((1, 0, 1), 34), ((1, 1, 1), 28),
                ((2, 1, 1), 28), ((1, 0, 0, 1), 25)]


def partition_numbers(n):
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        j = 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            for pent in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if pent <= k:
                    p[k] += sign * p[k - pent]
            j += 1
    return p


def distinct_chain_marginal(profile, n):
    """Chains with pairwise distinct levels, one q-series per slice, as lists."""
    nodes = list(iter_slices(profile, n))
    ending = []
    total = [1] + [0] * n
    for s in nodes:
        below = [1] + [0] * n
        for s2, h in zip(nodes, ending):
            if s2.weight < s.weight and contains(s2, s):
                below = [a + b for a, b in zip(below, h)]
        cur = [0] * s.weight + below[:n + 1 - s.weight]
        ending.append(cur)
        total = [a + b for a, b in zip(total, cur)]
    return total


class TestBorodin:
    def test_profile_1_1_spec_multiset(self):
        specs = Counter((s.start, s.step) for s in borodin_specs(Profile((1, 1))))
        assert specs == Counter({(4, 4): 1, (1, 4): 2, (3, 4): 2})

    def test_profile_2_0_product_collapses(self):
        # the step-4 factors for (2,0) together give 1/((q;q)(q^2;q^4))
        got = borodin(Profile((2, 0)), 20)
        want = product_expr([], [PochSpec(1, 1, 1), PochSpec(1, 2, 4)], 20)
        assert got == want

    def test_matches_enumeration(self):
        for parts in [(1, 1), (2, 1), (1, 1, 1), (3, 0)]:
            profile = Profile(parts)
            marg = enumerate_table(profile, 8).marginal()
            assert borodin(profile, 8) == marg, parts

    def test_counting_series_is_integral(self):
        for parts in [(1, 1), (2, 2), (1, 0, 1, 0)]:
            coeffs = borodin(Profile(parts), 15).coeffs
            assert all(type(c) is int and c >= 0 for c in coeffs), parts

    def test_all_exponents_positive(self):
        # must never raise on any profile in range
        from test_cylindric import all_profiles
        for profile in all_profiles(8):
            for s in borodin_specs(profile):
                assert s.start >= 1


class TestChainSeries:
    def test_matches_enumeration(self):
        for parts in [(1, 1), (2, 0), (2, 1)]:
            profile = Profile(parts)
            marg = enumerate_table(profile, 9).marginal()
            assert chain_series(profile, 9).marginal() == marg, parts

    def test_order_zero(self):
        g = chain_series(Profile((2, 1)), 0)
        assert g.table == ((1,),)

    def test_refined_equals_enumeration(self):
        for parts in [(1, 1), (2, 1)]:
            profile = Profile(parts)
            g = chain_series(profile, 8)
            t = enumerate_table(profile, 8)
            assert g.table == t.counts, parts

    def test_z_degree_bounded_by_q_degree(self):
        g = chain_series(Profile((1, 1)), 8)
        for m in range(9):
            for n in range(9):
                if m > n:
                    assert g.table[m][n] == 0

    def test_distinct_profile_1_1(self):
        n = 20
        acc = Series.one(n)
        k = 0
        while 2 * k + 1 <= n:
            f = [0] * (n + 1)
            f[0], f[2 * k + 1] = 1, 2
            acc = acc * Series.from_coeffs(f)
            if 2 * k + 2 <= n:
                f = [0] * (n + 1)
                f[0], f[2 * k + 2] = 1, 1
                acc = acc * Series.from_coeffs(f)
            k += 1
        assert chain_series(Profile((1, 1)), n, distinct=True).marginal() == acc

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.integers(0, 2), min_size=1, max_size=4).filter(any),
           order=st.integers(0, 8))
    def test_packed_table_equals_enumeration(self, parts, order):
        profile = Profile(tuple(parts))
        assert (chain_series(profile, order).table
                == enumerate_table(profile, order).counts)

    @pytest.mark.parametrize("parts", [(1,), (3,)])
    def test_rank_one_is_partition_numbers(self, parts):
        # rank 1: every partition is cylindric, so the marginal reaches the
        # slot bound [q^N] 1/(q;q)_oo = p(N) exactly
        g = chain_series(Profile(parts), 60)
        p = partition_numbers(60)
        assert list(g.marginal().coeffs) == p
        assert g.slot_bits == p[60].bit_length()

    @pytest.mark.parametrize("parts,order", CHAIN_ORBITS)
    def test_chain_equals_borodin_at_benchmark_orders(self, parts, order):
        profile = Profile(parts)
        assert chain_series(profile, order).marginal() == borodin(profile, order)

    @pytest.mark.parametrize("parts", [parts for parts, _ in CHAIN_ORBITS])
    def test_distinct_equals_list_dp(self, parts):
        profile = Profile(parts)
        got = chain_series(profile, 20, distinct=True).marginal()
        assert list(got.coeffs) == distinct_chain_marginal(profile, 20)


class TestCatalog:
    def test_profile_1_1_equals_enumeration(self):
        lhs, rhs = catalog_sides("1.2", 4)
        marg = enumerate_table(Profile((1, 1)), 4).marginal()
        assert lhs == rhs == marg
        assert lhs.coeffs == (1, 2, 3, 6, 10)

    @pytest.mark.parametrize("tag", genfun.IDENTITY_TAGS)
    def test_identity_holds(self, tag):
        lhs, rhs = catalog_sides(tag, 40)
        assert first_mismatch(lhs, rhs) is None, tag

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_gasper(self, j):
        lhs, rhs = catalog_sides("gasper", 30, z_power=j)
        assert lhs == rhs
        if j == 1:
            # distinct parts generating function
            assert rhs == pochhammer(PochSpec(-1, 1, 1), 30)

    def test_rhs_of_14_is_borodin_product(self):
        lhs, rhs = catalog_sides("1.4", 20)
        assert rhs == borodin(Profile((2, 1)), 20)

    def test_profile_identities_match_lhs(self):
        for parts, tag in PROFILE_IDENTITIES.items():
            profile = Profile(parts)
            lhs, _ = catalog_sides(tag, 12)
            assert chain_series(profile, 12).marginal() == lhs, parts

    def test_duality_pairs(self):
        for a, b in DUALITY_PAIRS:
            assert borodin(Profile(a), 20) == borodin(Profile(b), 20)

    def test_unknown_tag(self):
        with pytest.raises(UnknownIdentityError):
            catalog_sides("9.9", 10)
        with pytest.raises(UnknownIdentityError):
            catalog_sides("gasper", 10)  # missing z_power

    def test_verify_identity_reports_mismatch(self, monkeypatch):
        a = Series.from_coeffs([1, 1])
        b = Series.from_coeffs([1, 2])
        monkeypatch.setattr(genfun, "catalog_sides",
                            lambda tag, order, z_power=None: (a, b))
        assert verify_identity("1.2", 1) == Mismatch(1, 1, 2)
        monkeypatch.setattr(genfun, "catalog_sides",
                            lambda tag, order, z_power=None: (a, a))
        assert verify_identity("1.2", 1) is None


class TestLemmaRouting:
    def test_parse_multi_block(self):
        assert lemmas_for_tag("L4.4(1,2,3)") == [NestedSumSpec("A", (1, 2, 3))]
        assert lemmas_for_tag("L5.5(2,1)") == [NestedSumSpec("C", (2, 1))]
        assert lemmas_for_tag("L5.2(2)") == [NestedSumSpec("B", (2,))]

    def test_parse_fixed_k(self):
        specs = lemmas_for_tag("L4.1(3)")
        assert all(s.fixed_k == 3 and s.family == "A" for s in specs)
        assert [s.blocks for s in specs] == [(1,), (2,), (3,)]
        assert lemmas_for_tag("L5.1(0,2)") == [
            NestedSumSpec("B", (2,), fixed_k=0)]

    def test_parse_rejections(self):
        for bad in ["L4.5(1)", "L4.2(1,2)", "L6.1(1)", "L4.2", "nonsense",
                    "L4.1(3,2,5)", "L5.1(3,2,99)"]:
            with pytest.raises(UnknownIdentityError):
                lemmas_for_tag(bad)

    def test_verify_identity_routes_lemmas(self):
        assert verify_identity("L4.3(2,1)", 30) is None
        assert verify_identity("1.3", 30) is None
