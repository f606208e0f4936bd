"""Tests for profiles, validation, and the enumeration oracle."""
import itertools
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf.cli import main
from cylgf.cylindric import (PartitionError, Profile, ProfileError, _walk,
                             enumerate_table, iter_partitions, validate)
from cylgf.series import Series
from reference import recursive_walk, walk_table


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

# the profile orbits of the audit benchmark workload's count jobs
COUNT_ORBITS = [(2, 1), (3, 1), (4, 1), (3, 0), (2, 0, 0), (1, 2, 0),
                (2, 1, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0),
                (2, 1, 0, 0), (1, 1, 1, 0)]


def histogram(rows_set):
    """(largest part, size) -> number of the given partitions."""
    return Counter((max((row[0] for row in rows if row), default=0),
                    sum(map(sum, rows))) for rows in rows_set)


def table_histogram(counts):
    return Counter({(m, n): k for m, row in enumerate(counts)
                    for n, k in enumerate(row) if k})


class TestProfile:
    def test_basic_attributes(self):
        p = Profile((2, 1))
        assert (p.rank, p.level, p.t) == (2, 3, 5)

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
        with pytest.raises(PartitionError) as err:
            validate(Profile((1, 1)), [(1, 1), ()])
        # last row over first: lambda^(2)_1 = 0 < lambda^(1)_2 = 1
        assert str(err.value) == ("lambda^(2)_1 = 0 < 1 "
                                  "(required >= by the profile shift)")

    def test_row_errors(self):
        with pytest.raises(PartitionError,
                           match=r"^row 1 is not weakly decreasing"):
            validate(Profile((1, 1)), [(1, 2), ()])
        with pytest.raises(PartitionError,
                           match=r"^row 1 contains a nonpositive"):
            validate(Profile((1, 1)), [(1, 0, -1), ()])
        # the nonpositive part is reported before the ascent it makes
        with pytest.raises(PartitionError,
                           match=r"^row 2 contains a nonpositive"):
            validate(Profile((1, 1)), [(), (2, 0, 1)])

    def test_row_count_mismatch(self):
        with pytest.raises(PartitionError):
            validate(Profile((1, 1)), [(1,)])

    def test_trailing_zeros_stripped(self):
        cp = validate(Profile((1, 1)), [(2, 0, 0), (1,)])
        assert cp.rows == ((2,), (1,))

    def test_many_trailing_zeros_strip_in_linear_time(self):
        # stripping one zero at a time copies the row once per zero: about
        # 19 s of process time on a 2-vCPU VM under CPython 3.11
        start = time.process_time()
        cp = validate(Profile((1, 1)), [[1] + [0] * 100_000, [1]])
        assert time.process_time() - start < 2
        assert cp.rows == ((1,), (1,))

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

    def test_csv(self, capsys):
        assert main(["count", "--profile", "1,1", "--order", "2"]) == 0
        text = capsys.readouterr().out
        assert text == "max,size,count\n0,0,1\n1,1,2\n1,2,1\n2,2,2\n"

    def test_cyclic_shift_invariance_of_refined_tables(self):
        # F_c(z, q) is invariant under rotating the profile.  enumerate_table
        # walks one rotation of each orbit, so this compares the walks of
        # the profiles as given, by iter_partitions; all_profiles holds
        # every rotation of each of its profiles
        found = {profile: Counter((cp.largest, cp.size)
                                  for cp in iter_partitions(profile, 8))
                 for profile in all_profiles(6)}
        for profile, hist in found.items():
            shifted = Profile(profile.parts[1:] + profile.parts[:1])
            assert hist == found[shifted], profile

    def test_table_walks_a_rotation_ending_in_the_largest_part(self):
        for parts, walked in [((2, 1), (1, 2)), ((1, 1, 1), (1, 1, 1)),
                              ((1, 0, 0, 0), (0, 0, 0, 1)),
                              ((2, 0, 2, 1), (1, 2, 0, 2))]:
            table = enumerate_table(Profile(parts), 6)
            assert table.walked == Profile(walked)
            assert table.profile == Profile(parts)

    @pytest.mark.parametrize("parts, prefixes", zip(
        COUNT_ORBITS + [(1,), (3,)],
        [950, 1119, 1226, 710, 1104, 2332, 2438, 613, 1872, 2469, 5070, 5936,
         195, 195]), ids=str)
    def test_walk_enters_pinned_prefixes(self, parts, prefixes):
        # the walk's work, not only its answer: a lost cut leaves every
        # table right but enters more prefixes (without the last row's room
        # cut, (2, 1) enters 1,248 here)
        assert _walk(Profile(parts), 12, lambda *run: None) == prefixes

    @pytest.mark.parametrize("parts, ratio", [
        ((1, 0, 0, 0), 2.5), ((0, 1, 0, 0), 2.5), ((1, 0, 0, 0, 0, 0), 3.5)],
        ids=str)
    def test_every_row_bounded_by_the_first(self, parts, ratio):
        # each row is held below by the first row, not only the last, so
        # the walk of the profile as given enters few prefixes that end
        # nowhere: about 5-9 per partition at order 12 without that bound
        found = []
        prefixes = _walk(Profile(parts), 12,
                         lambda rows, largest, size, lo, hi:
                         found.append(hi - lo + 1))
        assert prefixes < ratio * sum(found)

    @settings(max_examples=100, deadline=None)
    @given(parts=PROFILES, bound=st.integers(0, 8))
    def test_walk_histogram_and_validity(self, parts, bound):
        # iter_partitions and enumerate_table come from the same walk
        profile = Profile(tuple(parts))
        found = iter_partitions(profile, bound)
        assert (Counter((cp.largest, cp.size) for cp in found)
                == table_histogram(enumerate_table(profile, bound).counts))
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

    @settings(max_examples=60, deadline=None)
    @given(parts=PROFILES, bound=st.integers(0, 5))
    def test_table_equals_definition_histogram(self, parts, bound):
        # the table adds whole runs, so it is checked against the definition
        # directly and not only against the partitions the walk lists
        profile = Profile(tuple(parts))
        assert (table_histogram(enumerate_table(profile, bound).counts)
                == histogram(brute_partitions(profile, bound)))

    def test_table_equals_recursive_walk(self):
        # every profile of rank 1-4 with parts <= 3, zero parts included,
        # at orders 0-8; a table at order n is the corner of one at order 8
        for rank in range(1, 5):
            for parts in itertools.product(range(4), repeat=rank):
                if not any(parts):
                    continue
                profile = Profile(parts)
                ref = walk_table(profile, 8)
                for n in range(9):
                    assert (enumerate_table(profile, n).counts
                            == tuple(row[:n + 1] for row in ref[:n + 1])), \
                        (parts, n)

    @pytest.mark.parametrize("orbit", COUNT_ORBITS, ids=str)
    def test_count_orbits_equal_recursive_walk(self, orbit):
        for turn in range(len(orbit)):
            profile = Profile(orbit[turn:] + orbit[:turn])
            assert (enumerate_table(profile, 10).counts
                    == walk_table(profile, 10)), profile.parts

    @pytest.mark.parametrize("parts", [
        (1, 0, 0, 0), (0, 2, 0, 0), (2, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
        (1, 1, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0, 0, 1),
        (0, 0, 2, 0, 0, 0, 0, 0)], ids=str)
    def test_walk_over_zero_runs_equals_recursive_walk(self, parts):
        # the walk jumps over the rows with c_i = 0 below an empty row and
        # leaves their lists stale; neither the partitions listed nor the
        # table may see it
        profile, order = Profile(parts), 9
        expected = Counter()

        def visit(rows, largest, size):
            expected[tuple(map(tuple, rows))] += 1

        recursive_walk(profile, order, visit)
        assert (Counter(cp.rows for cp in iter_partitions(profile, order))
                == expected)
        assert (enumerate_table(profile, order).counts
                == walk_table(profile, order))

    def test_rank_one_degenerate(self):
        # single row, parts no wider than c_1 apart: lambda_j >= lambda_{j+c_1}
        table = enumerate_table(Profile((1,)), 6)
        # with c=(1,) the inequality is plain weak decrease, so all ordinary
        # partitions qualify
        marginal = Series.from_coeffs(map(sum, zip(*table.counts)))
        assert marginal.coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_walk_skips_rows_that_stay_empty(self):
        # below an empty row, a row with c_i = 0 must stay empty, so the walk
        # jumps over it: at rank 1,600 with one part 10^8 it enters a few
        # prefixes per partition, not about one per row of each of them,
        # both on the rotation the table walks, (0, ..., 0, 10^8), and on
        # the profile as given
        parts = (10 ** 8,) + (0,) * 1599
        table = enumerate_table(Profile(parts), 10)
        partitions = sum(map(sum, table.counts))
        assert partitions == 1124
        assert table.walked == Profile(parts[1:] + parts[:1])
        assert table.prefixes < 4 * partitions
        assert _walk(Profile(parts), 10, lambda *run: None) < 4 * partitions

    def test_walk_jumps_to_the_last_row_at_rank_1500(self):
        # the table walks (0, ..., 0, 1): its first row must stay empty, so
        # the walk jumps from it straight to the last row; the profile as
        # given, (1, 0, ..., 0), jumps from the second row
        parts = (1,) + (0,) * 1499
        assert enumerate_table(Profile(parts), 1).prefixes == 2
        assert _walk(Profile(parts), 1, lambda *run: None) == 5
