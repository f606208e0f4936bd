"""Tests for profiles, validation, and the enumeration oracle."""
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf.cylindric import (InequalityError, PartitionError, Profile,
                             ProfileError, RowError, enumerate_table,
                             iter_partitions, validate)
from cylgf.series import Series


def all_profiles(max_t):
    """Every profile with rank >= 1, level >= 1 and r + level <= max_t."""
    out = []

    def compositions(total, length):
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, length - 1):
                yield (head,) + rest

    for r in range(1, max_t):
        for level in range(1, max_t - r + 1):
            out.extend(Profile(c) for c in compositions(level, r))
    return out


def partitions_upto(n):
    """Every ordinary partition of size <= n, as a weakly decreasing tuple."""
    out = []

    def grow(prefix, room, cap):
        out.append(tuple(prefix))
        for v in range(min(room, cap), 0, -1):
            grow(prefix + [v], room - v, v)

    grow([], n, n)
    return out


def brute_partitions(profile, bound):
    """Every r-tuple of partitions of total size <= bound that validate
    accepts: the definition as a filter, with no pruning."""
    pool = partitions_upto(bound)
    found = set()
    for rows in itertools.product(pool, repeat=profile.rank):
        if sum(map(sum, rows)) <= bound:
            try:
                found.add(validate(profile, rows).rows)
            except PartitionError:
                pass
    return found


PROFILES = st.lists(st.integers(0, 2), min_size=1, max_size=4).filter(any)


class TestProfile:
    def test_basic_attributes(self):
        p = Profile((2, 1))
        assert (p.rank, p.level, p.t) == (2, 3, 5)

    def test_partial_sums(self):
        p = Profile((2, 1, 4))
        assert p.partial_sum(1, 3) == 7
        assert p.partial_sum(2, 2) == 1
        assert p.partial_sum(3, 2) == 0  # empty range

    def test_rejections(self):
        with pytest.raises(ProfileError):
            Profile(())
        with pytest.raises(ProfileError):
            Profile((1, -1))
        with pytest.raises(ProfileError):
            Profile((0, 0, 0))

    def test_cyclic_shift(self):
        # S(c) = (c_2, ..., c_r, c_1), as the rotation tests build it
        def shift(p):
            return Profile(p.parts[1:] + p.parts[:1])

        assert shift(Profile((2, 1))) == Profile((1, 2))
        assert shift(Profile((1, 1))) == Profile((1, 1))
        p = Profile((3, 0, 1, 2))
        q = p
        for _ in range(p.rank):
            q = shift(q)
        assert q == p


class TestValidate:
    def test_rank_three_example(self):
        cp = validate(Profile((1, 1, 1)), [(5, 4), (8, 2), (7, 5, 1)])
        assert (cp.size, cp.largest) == (32, 8)

    def test_two_row_example(self):
        cp = validate(Profile((2, 1)), [(2, 2, 1), (3,)])
        assert (cp.size, cp.largest) == (8, 3)

    def test_cyclic_inequality_violation(self):
        with pytest.raises(InequalityError) as err:
            validate(Profile((1, 1)), [(1, 1), ()])
        # last row over first: lambda^(2)_1 = 0 < lambda^(1)_2 = 1
        assert err.value.lhs == 0 and err.value.rhs == 1
        assert str(err.value) == ("lambda^(2)_1 = 0 < 1 "
                                  "(required >= by the profile shift)")

    def test_row_errors(self):
        with pytest.raises(RowError, match=r"^row 1 is not weakly decreasing"):
            validate(Profile((1, 1)), [(1, 2), ()])
        with pytest.raises(RowError, match=r"^row 1 contains a nonpositive"):
            validate(Profile((1, 1)), [(1, 0, -1), ()])
        # the nonpositive part is reported before the ascent it makes
        with pytest.raises(RowError, match=r"^row 2 contains a nonpositive"):
            validate(Profile((1, 1)), [(), (2, 0, 1)])

    def test_row_count_mismatch(self):
        with pytest.raises(PartitionError):
            validate(Profile((1, 1)), [(1,)])

    def test_trailing_zeros_stripped(self):
        cp = validate(Profile((1, 1)), [(2, 0, 0), (1,)])
        assert cp.rows == ((2,), (1,))

    def test_empty_partition(self):
        cp = validate(Profile((2, 0)), [(), ()])
        assert (cp.size, cp.largest) == (0, 0)


class TestEnumerate:
    def test_marginals_1_1(self):
        table = enumerate_table(Profile((1, 1)), 3)
        marginal = Series.from_coeffs(map(sum, zip(*table.counts)))
        assert marginal.coeffs == (1, 2, 3, 6)

    def test_order_zero(self):
        table = enumerate_table(Profile((2, 1)), 0)
        assert table.counts == ((1,),)

    def test_refined_entries_1_1(self):
        table = enumerate_table(Profile((1, 1)), 2)
        assert table.counts[1][2] == 1  # only ((1),(1))
        assert table.counts[2][2] == 2  # ((2),()) and ((),(2))

    def test_max_zero_column(self):
        table = enumerate_table(Profile((2, 1)), 6)
        assert table.counts[0][0] == 1
        assert all(table.counts[0][n] == 0 for n in range(1, 7))

    def test_max_bounded_by_size(self):
        table = enumerate_table(Profile((1, 1, 1)), 6)
        for m in range(7):
            for n in range(7):
                if m > n:
                    assert table.counts[m][n] == 0

    def test_no_duplicates(self):
        seen = set()
        for cp in iter_partitions(Profile((2, 1)), 7):
            assert cp not in seen
            seen.add(cp)

    def test_all_enumerated_are_valid(self):
        for cp in iter_partitions(Profile((1, 0, 1)), 6):
            validate(cp.profile, cp.rows)  # must not raise

    def test_csv(self):
        text = enumerate_table(Profile((1, 1)), 2).to_csv()
        assert text == "max,size,count\n0,0,1\n1,1,2\n1,2,1\n2,2,2\n"

    def test_cyclic_shift_invariance_of_refined_tables(self):
        # F_c(z, q) is invariant under rotating the profile
        for profile in all_profiles(6):
            a = enumerate_table(profile, 8)
            b = enumerate_table(Profile(profile.parts[1:] + profile.parts[:1]),
                                8)
            assert a.counts == b.counts, profile

    @settings(max_examples=100, deadline=None)
    @given(parts=PROFILES, bound=st.integers(0, 8))
    def test_walk_histogram_and_validity(self, parts, bound):
        # iter_partitions and enumerate_table come from the same walk
        profile = Profile(tuple(parts))
        found = iter_partitions(profile, bound)
        histogram = Counter((cp.largest, cp.size) for cp in found)
        counts = enumerate_table(profile, bound).counts
        assert histogram == Counter({(m, n): k for m, row in enumerate(counts)
                                     for n, k in enumerate(row) if k})
        for cp in found:
            assert validate(profile, cp.rows) == cp

    @settings(max_examples=60, deadline=None)
    @given(parts=PROFILES, bound=st.integers(0, 5))
    def test_walk_equals_definition_filter(self, parts, bound):
        # the pruned walk misses nothing the definition accepts
        profile = Profile(tuple(parts))
        rows = [cp.rows for cp in iter_partitions(profile, bound)]
        assert len(rows) == len(set(rows))
        assert set(rows) == brute_partitions(profile, bound)

    def test_rank_one_degenerate(self):
        # single row, parts no wider than c_1 apart: lambda_j >= lambda_{j+c_1}
        table = enumerate_table(Profile((1,)), 6)
        # with c=(1,) the inequality is plain weak decrease, so all ordinary
        # partitions qualify
        marginal = Series.from_coeffs(map(sum, zip(*table.counts)))
        assert marginal.coeffs == (1, 1, 2, 3, 5, 7, 11)
