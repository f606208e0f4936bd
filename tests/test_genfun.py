"""Tests for the product formula, the chain DP, and the identity catalog."""
import itertools
import json
from collections import Counter
from importlib.resources import files
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf import genfun, lemmas
from cylgf.cli import main
from cylgf.cylindric import Profile, enumerate_table
from cylgf.genfun import (PROFILE_IDENTITIES, UnknownIdentityError, borodin,
                          borodin_specs, catalog_sides, chain_series)
from cylgf.lemmas import LemmaSpecError, NestedSumSpec, parse_tag
from cylgf.series import (PochSpec, Series, first_mismatch, pochhammer,
                          product_expr)
from cylgf.slices import Slice, contains, iter_slices
from reference import chain_visits, dual, gapless_table, profiles_up_to

# the profile orbits and top orders of the chain-dp benchmark workload
CHAIN_ORBITS = [((1, 1), 50), ((2, 1), 40), ((1, 0, 1), 34), ((1, 1, 1), 28),
                ((2, 1, 1), 28), ((1, 0, 0, 1), 25)]


# profiles of levels 6-10 and ranks 3-6, where a shape has up to 5 corners
HIGH_LEVELS = [(4, 3, 2, 1), (3, 3, 3), (2, 2, 2, 2), (1, 1, 1, 1, 1, 1)]


@st.composite
def small_profiles(draw, top=6):
    """Profiles of rank and level at most top, zero parts included: a
    level cut into rank parts at sorted points."""
    rank, level = draw(st.integers(1, top)), draw(st.integers(1, top))
    cuts = sorted(draw(st.lists(st.integers(0, level), min_size=rank - 1,
                                max_size=rank - 1)))
    return Profile(tuple(b - a for a, b in zip([0] + cuts, cuts + [level])))


def slot_width(rank, order):
    """W(r, N), the folded layout's slot width: p_r(N) <= e^(pi sqrt(2rN/3))
    < 2^sqrt(13.7 rN), so p_r(N) has at most this many bits."""
    return isqrt(137 * rank * order // 10) + 1


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


def scan_chain_table(profile, order, distinct=False):
    """The chain DP as an O(V^2) containment scan, the reference for
    chain_series: every lighter slice of weight <= N is tested with
    `contains`, and a level of weight w repeated j <= N/w times is added one
    shift at a time.  Same packed (z, q) tables; returns the table and the
    number of slices."""
    n, side = order, order + 1
    bound = Series.monomial(0, n).times((), [PochSpec(1, 1, 1)] * profile.rank)
    bits = bound.coeffs[n].bit_length()
    mask = (1 << (side * side * bits)) - 1
    nodes = [Slice(profile, t) for t in iter_slices(profile, n)]
    g = []
    for s in nodes:
        w = s.weight
        inner = 1 + sum(g2 for s2, g2 in zip(nodes, g)
                        if s2.weight < w and contains(s2, s))
        cur = 0
        for _ in range(1 if distinct else n // w):
            inner = (inner << (w * side + 1) * bits) & mask
            cur += inner
        g.append(cur)
    total = 1 + sum(g)
    row_mask, slot_mask = (1 << side * bits) - 1, (1 << bits) - 1
    rows = [total >> k * side * bits & row_mask for k in range(side)]
    table = tuple(tuple(row >> m * bits & slot_mask for row in rows)
                  for m in range(side))
    return table, len(nodes)


def distinct_chain_marginal(profile, n):
    """Chains with pairwise distinct levels, one q-series per slice, as lists."""
    nodes = [Slice(profile, t) for t in iter_slices(profile, n)]
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
            counts = enumerate_table(profile, 8).counts
            marg = Series.from_coeffs(map(sum, zip(*counts)))
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


class ChainMarginals:
    """The marginal tests of the chain DP, run on the layout that `refined`
    names: the (N+1)^2 z-refined table, or the one row folded at z = 1."""

    refined = True

    def chain(self, profile, order, distinct=False):
        return chain_series(profile, order, distinct, refined=self.refined)

    def test_matches_enumeration(self):
        for parts in [(1, 1), (2, 0), (2, 1)]:
            profile = Profile(parts)
            counts = enumerate_table(profile, 9).counts
            marg = Series.from_coeffs(map(sum, zip(*counts)))
            assert self.chain(profile, 9).marginal() == marg, parts

    def test_order_zero(self):
        g = self.chain(Profile((2, 1)), 0)
        assert g.table == ((1,),)

    @pytest.mark.parametrize("parts", [(1,), (3,)])
    def test_rank_one_is_partition_numbers(self, parts):
        # rank 1: every partition is cylindric, so the marginal is p(0..N);
        # the z-table packs at the bit length of p(N), the folded row at
        # W(1, 60) = isqrt(822) + 1
        g = self.chain(Profile(parts), 60)
        p = partition_numbers(60)
        assert list(g.marginal().coeffs) == p
        assert g.slot_bits == (p[60].bit_length() if self.refined else 29)

    @pytest.mark.parametrize("parts,order", CHAIN_ORBITS)
    def test_chain_equals_borodin_at_benchmark_orders(self, parts, order):
        profile = Profile(parts)
        assert self.chain(profile, order).marginal() == borodin(profile, order)

    @pytest.mark.parametrize("parts", [parts for parts, _ in CHAIN_ORBITS])
    def test_distinct_equals_list_dp(self, parts):
        profile = Profile(parts)
        got = self.chain(profile, 20, distinct=True).marginal()
        assert list(got.coeffs) == distinct_chain_marginal(profile, 20)


class TestFoldedChainSeries(ChainMarginals):
    refined = False

    def test_table_is_one_row(self):
        g = self.chain(Profile((1, 1)), 4)
        assert g.table == ((1, 2, 3, 6, 10),)

    def test_equals_refined_marginal(self):
        # every profile of rank 1-4 and level 1-4, zero parts included: the
        # z = 1 layout gives the same marginal and the same work counters;
        # it packs at W(r, N), the z-table at the bit length of the largest
        # coefficient of the folded row
        cases = 0
        for rank in range(1, 5):
            for parts in itertools.product(range(5), repeat=rank):
                if not 1 <= sum(parts) <= 4:
                    continue
                for order in (0, 1, 2, 5, 13):
                    for distinct in (False, True):
                        cases += 1
                        key = (parts, order, distinct)
                        full = chain_series(Profile(parts), order, distinct)
                        folded = self.chain(Profile(parts), order, distinct)
                        assert folded.marginal() == full.marginal(), key
                        assert ([folded.nodes, folded.shapes,
                                 folded.shape_pairs]
                                == [full.nodes, full.shapes,
                                    full.shape_pairs]), key
                        assert (folded.slot_bits
                                == slot_width(len(parts), order)), key
                        assert (full.slot_bits
                                == max(folded.table[0]).bit_length()), key
        assert cases == 1210


class TestSlotWidth:
    """The packed slot widths of `chain_series` against the expansion of
    (q;q)_oo^(-r), whose coefficient p_r(N) bounds every slot."""

    def test_folded_width_bounds_rank_partitions(self):
        # W(r, N) >= the bit length of p_r(N) for ranks 1-8 and N <= 400,
        # and the folded layout packs at W(r, N)
        for rank in range(1, 9):
            bound = product_expr([], [PochSpec(1, 1, 1)] * rank, 400)
            for order, count in enumerate(bound.coeffs):
                assert slot_width(rank, order) >= count.bit_length(), \
                    (rank, order)
            profile = Profile((1,) + (0,) * (rank - 1))
            for order in (0, 7, 60):
                g = chain_series(profile, order, refined=False)
                assert g.slot_bits == slot_width(rank, order), (rank, order)

    @pytest.mark.parametrize("distinct, bits", [(False, 36), (True, 28)])
    def test_refined_width_is_folded_maximum(self, distinct, bits):
        # far below p_4(100), 59 bits, and W(4, 100) = 75 at a low level
        profile = Profile((1, 1, 0, 0))
        folded = chain_series(profile, 100, distinct, refined=False)
        full = chain_series(profile, 100, distinct)
        assert full.marginal() == folded.marginal()
        assert full.slot_bits == max(folded.table[0]).bit_length() == bits
        assert folded.slot_bits == slot_width(4, 100) == 75

    def test_refined_equals_borodin_at_order_100(self):
        # past every scan and enumeration test, where f_N is far below the
        # p_r(N) of the folded width
        for parts in PROFILE_IDENTITIES:
            profile = Profile(parts)
            assert (chain_series(profile, 100).marginal()
                    == borodin(profile, 100)), parts


class TestChainSeries(ChainMarginals):
    def test_refined_equals_enumeration(self):
        for parts in [(1, 1), (2, 1)]:
            profile = Profile(parts)
            g = chain_series(profile, 8)
            t = enumerate_table(profile, 8)
            assert g.table == t.counts, parts

    def test_distinct_equals_gapless_enumeration(self):
        # chain-distinct counts, by largest part and size, the partitions
        # whose part values are exactly 1..largest: every profile of rank
        # 1-4 and level 1-3, zero parts included, against the definition
        for rank in range(1, 5):
            for parts in itertools.product(range(4), repeat=rank):
                if 1 <= sum(parts) <= 3:
                    profile = Profile(parts)
                    assert (chain_series(profile, 10, distinct=True).table
                            == gapless_table(profile, 10)), parts

    def test_z_degree_bounded_by_q_degree(self):
        g = chain_series(Profile((1, 1)), 8)
        for m in range(9):
            for n in range(9):
                if m > n:
                    assert g.table[m][n] == 0

    def test_distinct_profile_1_1(self):
        n = 20
        acc = Series.monomial(0, n)
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

    def test_equals_scan_on_small_profiles(self):
        from test_cylindric import all_profiles
        for profile in all_profiles(7):
            for order in range(13):
                for distinct in (False, True):
                    table, nodes = scan_chain_table(profile, order, distinct)
                    g = chain_series(profile, order, distinct)
                    assert g.table == table, (profile, order, distinct)
                    assert g.nodes == nodes, (profile, order, distinct)

    @pytest.mark.parametrize("parts", HIGH_LEVELS)
    def test_high_levels_equal_borodin_and_scan(self, parts):
        # the folded marginal against the product to q^60, and the refined
        # tables of both methods against the containment scan
        profile = Profile(parts)
        assert (chain_series(profile, 60, refined=False).marginal()
                == borodin(profile, 60))
        for distinct in (False, True):
            table, nodes = scan_chain_table(profile, 9, distinct)
            g = chain_series(profile, 9, distinct)
            assert (g.table, g.nodes) == (table, nodes), distinct

    @settings(max_examples=100, deadline=None)
    @given(profile=small_profiles(), order=st.integers(0, 8),
           distinct=st.booleans())
    def test_equals_scan_to_rank_and_level_six(self, profile, order,
                                               distinct):
        table, nodes = scan_chain_table(profile, order, distinct)
        g = chain_series(profile, order, distinct)
        assert (g.table, g.nodes) == (table, nodes)
        folded = chain_series(profile, order, distinct, refined=False)
        assert folded.marginal() == g.marginal()

    def test_lattice_reads_at_level_six(self):
        # each visited (shape, L) reads at most 2^min(r - 1, level) lattice
        # sums, far fewer than one per pair of a slice and a letter
        profile = Profile((1, 1, 1, 1, 1, 1))
        g = chain_series(profile, 30, refined=False)
        visits = chain_visits(profile, 30)
        assert (g.nodes, g.shapes, visits) == (2016, 462, 462 * 8)
        assert g.nodes < g.shape_pairs <= visits * 2 ** 5
        assert 20 * g.shape_pairs < g.nodes * g.shapes

    @pytest.mark.parametrize("parts,order", CHAIN_ORBITS)
    @pytest.mark.parametrize("distinct", [False, True])
    def test_equals_scan_past_benchmark_orders(self, parts, order, distinct):
        for k in range(len(parts)):
            profile = Profile(parts[k:] + parts[:k])
            table, _ = scan_chain_table(profile, order + 1, distinct)
            assert chain_series(profile, order + 1, distinct).table == table, \
                profile

    def test_duality_pairs_have_equal_refined_tables(self):
        # c and D(c) share F_c(z, q), not only F_c(1, q), on all 456
        # profiles of rank and level <= 5; one table per rotation class,
        # as rotation keeps the table (test_rotation_preserves_refined_tables)
        profiles = profiles_up_to(5, 5)
        tables = {}

        def table(parts):
            key = min(parts[k:] + parts[:k] for k in range(len(parts)))
            if key not in tables:
                tables[key] = chain_series(Profile(key), 16).table
            return tables[key]

        for parts in profiles:
            assert table(parts) == table(dual(parts)), parts
        assert (len(profiles), len(tables)) == (456, 119)

    def test_dual_of_dual_is_a_rotation(self):
        # D swaps rank and level; done twice it turns the profile
        profiles = profiles_up_to(6, 6)
        for parts in profiles:
            back = dual(dual(parts))
            assert (len(dual(parts)), sum(dual(parts))) == (sum(parts),
                                                            len(parts))
            assert back in {parts[k:] + parts[:k]
                            for k in range(len(parts))}, parts
        assert len(profiles) == 1709

    def test_rotation_preserves_refined_tables(self):
        # F_c(z, q) is invariant under rotating the profile, for all 44
        # profiles of these (rank, level)
        seen = 0
        for rank, level in [(2, 3), (3, 3), (4, 2), (2, 4), (3, 4)]:
            for parts in itertools.product(range(level + 1), repeat=rank):
                if sum(parts) != level:
                    continue
                seen += 1
                turned = Profile(parts[1:] + parts[:1])
                assert (chain_series(Profile(parts), 30).table
                        == chain_series(turned, 30).table), parts
        assert seen == 44


def order_cases(key, degrees, top):
    """(key, order) cases: order top under the id key, then orders 0, 1 and
    each order at or one below one of the degrees (those of the first sum
    terms, where a term step off by one shift or one factor shows first)."""
    orders = {0, 1}.union(*({d - 1, d} for d in degrees)) - {-1, top}
    return [pytest.param(key, top, id=str(key))] + [
        pytest.param(key, n, id=f"{key}-{n}") for n in sorted(orders)]


class TestCatalog:
    def test_profile_1_1_equals_enumeration(self):
        lhs, rhs = catalog_sides("1.2", 4)
        counts = enumerate_table(Profile((1, 1)), 4).counts
        marg = Series.from_coeffs(map(sum, zip(*counts)))
        assert lhs == rhs == marg
        assert lhs.coeffs == (1, 2, 3, 6, 10)

    @pytest.mark.parametrize("tag, order", [
        case for tag, degrees in {
            "1.2": (), "1.3": (), "1.4": (0, 1, 4), "1.5": (0, 3, 8),
            "1.6": (0, 2, 6), "1.7": (2, 6, 12), "1.8": (0, 1, 4),
            "A1": (0, 1, 4), "A2": (0, 3, 8),
        }.items() for case in order_cases(tag, degrees, 40)])
    def test_identity_holds(self, tag, order):
        lhs, rhs = catalog_sides(tag, order)
        assert first_mismatch(lhs, rhs) is None, (tag, order)

    @pytest.mark.parametrize("j, order", [
        case for j in (1, 2, 3)
        for case in order_cases(j, (0, j, 2 * j + 1), 30)])
    def test_gasper(self, j, order):
        lhs, rhs = catalog_sides("gasper", order, z_power=j)
        assert lhs == rhs
        if j == 1:
            # distinct parts generating function
            assert rhs == pochhammer(PochSpec(-1, 1, 1), order)

    def test_sum_sides_apply_few_factor_passes(self, monkeypatch):
        # a sum side starts from its outer product (q;q)_oo (-q^a;q^2)_oo,
        # expanded once by product_expr; one `times` pass per factor of it
        # would be about 1.5*N passes, 466-497 per sum tag at q^300
        times = Series.times
        applied = []

        def counted(self, numerator=(), denominator=(), shift=0, scale=1):
            applied[-1] += sum(len(spec.exponents(self.order))
                               for spec in (*numerator, *denominator))
            return times(self, numerator, denominator, shift, scale)

        monkeypatch.setattr(Series, "times", counted)
        for tag, j in ([(tag, None) for tag in genfun.IDENTITY_TAGS]
                       + [("gasper", j) for j in (1, 2, 5)]):
            applied.append(0)
            catalog_sides(tag, 300, j)
            assert applied[-1] < 60, (tag, j, applied[-1])

    def test_rhs_of_14_is_borodin_product(self):
        lhs, rhs = catalog_sides("1.4", 20)
        assert rhs == borodin(Profile((2, 1)), 20)

    def test_profile_identities_match_lhs(self):
        # the folded DP at z = 1 against the LHS of each of 1.2-1.8
        for parts, tag in PROFILE_IDENTITIES.items():
            profile = Profile(parts)
            lhs, _ = catalog_sides(tag, 150)
            got = chain_series(profile, 150, refined=False).marginal()
            assert got == lhs, parts

    def test_duality_pairs(self):
        for parts in profiles_up_to(5, 5):
            assert (borodin(Profile(parts), 20)
                    == borodin(Profile(dual(parts)), 20)), parts

    def test_unknown_tag(self):
        with pytest.raises(UnknownIdentityError):
            catalog_sides("9.9", 10)
        with pytest.raises(UnknownIdentityError):
            catalog_sides("gasper", 10)  # missing z_power

    def test_verify_identity_reports_mismatch(self, capsys, monkeypatch):
        # verify reads the two sides through genfun.catalog_sides, so a
        # wrapper of that name sees every catalog check
        a = Series.from_coeffs([1, 1])
        b = Series.from_coeffs([1, 2])
        assert first_mismatch(a, b) == (1, 1, 2)
        monkeypatch.setattr(genfun, "catalog_sides",
                            lambda tag, order, z_power=None: (a, b))
        assert main(["verify", "--id", "1.2", "--order", "1"]) == 1
        assert capsys.readouterr().out == "1.2,order=1,FAIL@q^1 lhs=1 rhs=2\n"
        monkeypatch.setattr(genfun, "catalog_sides",
                            lambda tag, order, z_power=None: (a, a))
        assert main(["verify", "--id", "1.2", "--order", "1"]) == 0
        assert capsys.readouterr().out == "1.2,order=1,PASS\n"


class TestIntContract:
    """Every series on a job path has plain int coefficients."""

    GRID = json.loads(files("cylgf.data").joinpath("verify_all.json")
                      .read_text())

    @staticmethod
    def ints(series):
        return all(type(c) is int for c in series.coeffs)

    @pytest.mark.parametrize("entry", GRID["identities"],
                             ids=lambda e: f"{e['id']}-{e.get('z_power')}")
    def test_catalog_sides(self, entry):
        sides = catalog_sides(entry["id"], entry["order"], entry.get("z_power"))
        assert all(map(self.ints, sides))

    def test_lemma_grid(self):
        lem = self.GRID["lemmas"]
        for spec in lemmas.grid(lem["n_max"], lem["m_max"], lem["k_max"]):
            assert self.ints(lemmas.nested_sum(spec, lem["order"])), spec
            assert self.ints(lemmas.closed_form(spec, lem["order"])), spec

    def test_profile_series(self):
        orders = {e["id"]: e["order"] for e in self.GRID["identities"]}
        for parts, tag in PROFILE_IDENTITIES.items():
            profile, order = Profile(parts), orders[tag]
            assert profile.rank <= 4
            assert self.ints(borodin(profile, order)), parts
            assert self.ints(chain_series(profile, order).marginal()), parts


class TestLemmaRouting:
    """`verify --id` sends a lemma tag to `lemmas.parse_tag` and any other
    tag to the catalog."""

    def test_parse_multi_block(self):
        assert parse_tag("L4.4(1,2,3)") == [NestedSumSpec("A", (1, 2, 3))]
        assert parse_tag("L5.5(2,1)") == [NestedSumSpec("C", (2, 1))]
        assert parse_tag("L5.2(2)") == [NestedSumSpec("B", (2,))]

    def test_parse_fixed_k(self):
        specs = parse_tag("L4.1(3)")
        assert all(s.fixed_k == 3 and s.family == "A" for s in specs)
        assert [s.blocks for s in specs] == [(1,), (2,), (3,)]
        assert parse_tag("L5.1(0,2)") == [
            NestedSumSpec("B", (2,), fixed_k=0)]

    def test_parse_rejections(self):
        for bad in ["L4.5(1)", "L4.2(1,2)", "L6.1(1)", "L4.2", "nonsense",
                    "L4.1(3,2,5)", "L5.1(3,2,99)"]:
            with pytest.raises(LemmaSpecError):
                parse_tag(bad)

    def test_verify_identity_routes_lemmas(self, capsys):
        for tag, work in [("L4.3(2,1)", {"identities": 0, "lemma_specs": 1}),
                          ("1.3", {"identities": 1, "lemma_specs": 0})]:
            argv = ["verify", "--id", tag, "--order", "30", "--verbose"]
            assert main(argv) == 0
            out = capsys.readouterr()
            assert out.out == f"{tag},order=30,PASS\n"
            counters = json.loads(out.err)
            assert counters.pop("seconds") >= 0
            assert counters == work, tag
