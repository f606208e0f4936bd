"""Tests for the slice calculus, flow graphs, and decomposition."""
import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf import slices
from cylgf.cylindric import Profile, iter_partitions, validate
from cylgf.cli import main
from cylgf.slices import (Slice, SliceError, baseline, contains,
                          decompose, flow_graph, iter_slices, min_slices,
                          shape, shape_floors, shape_name)
from reference import (comb_shape_name, recompose, shape_difference,
                       valid_whites, zero_one_valid)
from test_cylindric import all_profiles


class TestBaseline:
    def test_displayed_boards(self):
        assert baseline(Profile((1, 1, 1))) == (3, 2, 1)
        assert baseline(Profile((2, 1))) == (3, 2)
        assert baseline(Profile((2, 0, 0, 0))) == (2, 2, 2, 2)

    def test_shape_properties(self):
        for profile in all_profiles(7):
            b = baseline(profile)
            assert b[-1] == profile.parts[0]
            for i in range(profile.rank - 1):
                assert b[i] - b[i + 1] == profile.parts[i + 1]


class TestSliceBasics:
    def test_validity(self):
        p = Profile((2, 1))
        assert Slice(p, (0, 1)).white == (0, 1)
        assert Slice(p, (3, 1)).white == (3, 1)
        with pytest.raises(SliceError):
            Slice(p, (0, 2))  # t_2 > t_1 + c_2
        with pytest.raises(SliceError):
            Slice(p, (5, 1))  # t_1 > t_2 + c_1

    def test_empty_slice_always_valid(self):
        for profile in all_profiles(7):
            assert Slice(profile, (0,) * profile.rank).weight == 0

    def test_validity_matches_definition(self):
        # the constructor's adjacent-rows criterion must agree with running
        # the 0/1 partition with rows 1^{t_i} through the definition-level
        # validator.  Both are invariant under adding 1 to every t_i, and
        # counts up to level + 1 reach both sides of every boundary
        # t_{i+1} = t_i + c_{i+1}
        for profile in all_profiles(7):
            r = profile.rank
            stack = [()]
            for _ in range(r):
                stack = [t + (v,) for t in stack
                         for v in range(profile.level + 2)]
            for t in stack:
                try:
                    built = Slice(profile, t).white == t
                except SliceError:
                    built = False
                assert built == zero_one_valid(profile, t), (profile, t)

    def test_bad_construction(self):
        with pytest.raises(SliceError):
            Slice(Profile((1, 1)), (1,))
        with pytest.raises(SliceError):
            Slice(Profile((1, 1)), (-1, 0))


class TestShape:
    def test_single_entry(self):
        assert shape(baseline(Profile((2, 1))), (0, 1)) == (0,)

    def test_invariant_under_uniform_addition(self):
        for profile in all_profiles(6):
            gray = baseline(profile)
            for t in iter_slices(profile, 6):
                grown = Slice(profile, tuple(x + 1 for x in t)).white
                assert shape(gray, grown) == shape(gray, t)

    def test_rank_three_shape_sequence(self):
        p = Profile((1, 1, 1))
        cp = validate(p, [(5, 4), (8, 2), (7, 5, 1)])
        gray = baseline(p)
        top_down = [shape(gray, s.white) for s in reversed(decompose(cp))]
        assert top_down == [(2, 2), (1, 1), (1, 1), (1, 0),
                            (2, 0), (2, 0), (2, 1), (1, 0)]
        # the empty slice shares the gray staircase's shape
        assert shape(gray, (0, 0, 0)) == (2, 1)


class TestContains:
    def test_examples(self):
        p = Profile((2, 1))
        a = Slice(p, (0, 1))
        assert not contains(a, Slice(p, (2, 0)))
        assert contains(a, a)
        assert contains(a, Slice(p, (3, 1)))

    def test_profile_mismatch(self):
        with pytest.raises(SliceError):
            contains(Slice(Profile((1, 1)), (0, 0)), Slice(Profile((2, 0)), (0, 0)))


class TestDecomposeRecompose:
    def test_two_row_example(self):
        cp = validate(Profile((2, 1)), [(2, 2, 1), (3,)])
        levels = decompose(cp)
        assert [s.white for s in levels] == [(3, 1), (2, 1), (0, 1)]
        assert [s.weight for s in levels] == [4, 3, 1]
        assert recompose(cp.profile, levels) == cp

    def test_empty(self):
        p = Profile((1, 1))
        cp = validate(p, [(), ()])
        assert decompose(cp) == []
        assert recompose(p, []) == cp

    def test_weights_sum_to_size(self):
        cp = validate(Profile((1, 1, 1)), [(5, 4), (8, 2), (7, 5, 1)])
        assert sum(s.weight for s in decompose(cp)) == 32

    def test_levels_nest(self):
        cp = validate(Profile((1, 1, 1)), [(5, 4), (8, 2), (7, 5, 1)])
        levels = decompose(cp)
        for k in range(len(levels) - 1):
            assert contains(levels[k + 1], levels[k])

    def test_cost_is_linear_in_parts_plus_levels(self):
        # counting the parts >= k for every level k afresh takes
        # O(largest x parts): about 39 s of process time on a 2-vCPU VM
        # under CPython 3.11
        n = 20_000
        cp = validate(Profile((1, 1)), [[n] * n, [n] * n])
        start = time.process_time()
        levels = decompose(cp)
        assert time.process_time() - start < 2
        assert len(levels) == n and levels[-1].white == (n, n)

    def test_round_trip_exhaustive(self):
        for parts in [(1, 1), (2, 0), (2, 1), (1, 1, 1)]:
            profile = Profile(parts)
            for cp in iter_partitions(profile, 8):
                assert recompose(profile, decompose(cp)) == cp

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.integers(0, 2), min_size=1, max_size=4).filter(any),
           bound=st.integers(1, 8), pick=st.integers(0, 10 ** 6))
    def test_round_trip_property(self, parts, bound, pick):
        profile = Profile(tuple(parts))
        nonempty = [cp for cp in iter_partitions(profile, bound) if cp.size]
        cp = nonempty[pick % len(nonempty)]
        assert recompose(profile, decompose(cp)) == cp

    def test_containment_violation(self):
        p = Profile((1, 1))
        with pytest.raises(SliceError):
            recompose(p, [Slice(p, (1, 0)), Slice(p, (1, 1))])

    def test_profile_mismatch(self):
        with pytest.raises(SliceError):
            recompose(Profile((1, 1)), [Slice(Profile((1, 1)), (1, 0)),
                                        Slice(Profile((2, 0)), (1, 0))])


class TestMinSlices:
    def test_profile_2_1(self):
        ms = min_slices(Profile((2, 1)))
        weights = {sh: s.weight for sh, s in ms.items()}
        assert weights == {(0,): 1, (2,): 1, (1,): 2, (3,): 2}

    def test_profile_1_1(self):
        ms = min_slices(Profile((1, 1)))
        weights = {sh: s.weight for sh, s in ms.items()}
        assert weights == {(0,): 1, (2,): 1, (1,): 2}

    def test_profile_2_0_0(self):
        ms = min_slices(Profile((2, 0, 0)))
        assert sorted(s.weight for s in ms.values()) == [1, 2, 2, 3, 3, 4]

    def test_all_gray_shape_minimum_is_rank(self):
        for profile in all_profiles(6):
            gray = shape(baseline(profile), (0,) * profile.rank)
            ms = min_slices(profile)
            assert ms[gray].white == (1,) * profile.rank

    def test_count(self):
        for profile in all_profiles(7):
            ms = min_slices(profile)
            assert len(ms) == comb(profile.level + profile.rank - 1,
                                   profile.rank - 1)

    def test_stops_at_last_shape(self):
        # the scan bound is rank*level + rank = 64 here; enumerating every
        # tuple up to it would take about 10^10 candidates
        profile = Profile((2, 1, 0, 3, 0, 0, 1, 0))
        ms = min_slices(profile)
        assert len(ms) == comb(profile.level + 7, 7) == 3432
        assert ms[shape(baseline(profile), (0,) * 8)].white == (1,) * 8

    @staticmethod
    def scan_min_slices(profile):
        """Least-weight slice of each shape by a scan over iter_slices in
        weight order, up to rank*level + rank, stopping at the last shape."""
        out = {}
        r = profile.rank
        gray = baseline(profile)
        for t in iter_slices(profile, r * profile.level + r):
            out.setdefault(shape(gray, t), Slice(profile, t))
            if len(out) == comb(profile.level + r - 1, r - 1):
                break
        return out

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(any))
    def test_floors_match_scan(self, parts):
        profile = Profile(tuple(parts))
        scan = self.scan_min_slices(profile)
        floors = shape_floors(profile)
        assert len(floors) == comb(profile.level + profile.rank - 1,
                                   profile.rank - 1)
        last = baseline(profile)[-1]
        assert floors == {sh: last + s.white[-1] for sh, s in scan.items()}
        assert min_slices(profile) == scan


class TestIterSlices:
    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(any),
           max_weight=st.integers(0, 8))
    def test_matches_brute_force(self, parts, max_weight):
        profile = Profile(tuple(parts))
        assert (list(iter_slices(profile, max_weight))
                == valid_whites(profile, max_weight))

    def test_matches_brute_force_on_small_profiles(self):
        # every profile of rank 1-4 with parts <= 2, at every max weight
        # <= 7: growing square by square reaches every valid slice, once
        for rank in range(1, 5):
            for parts in itertools.product(range(3), repeat=rank):
                if not any(parts):
                    continue
                profile = Profile(parts)
                for max_weight in range(8):
                    assert (list(iter_slices(profile, max_weight))
                            == valid_whites(profile, max_weight)), \
                        (parts, max_weight)

    def test_lazy(self):
        # the first slice arrives without enumerating up to the bound
        first = next(iter_slices(Profile((1,) * 12), 10 ** 6))
        assert first == (0,) * 11 + (1,)

    def test_cost_follows_the_output(self):
        # rank 6, level 1: one slice per weight.  Visiting every tuple of
        # each weight, of which there are C(w + 5, 5), takes about 17 s of
        # process time on a 2-vCPU VM under CPython 3.11; growing the 120
        # slices takes under 1 ms
        start = time.process_time()
        found = list(iter_slices(Profile((1,) + (0,) * 5), 120))
        assert time.process_time() - start < 0.5
        assert len(found) == 120


class TestCensus:
    def test_shape_count_and_weight_residues(self):
        for profile in all_profiles(8):
            r = profile.rank
            bound = r * profile.level + r
            gray = baseline(profile)
            by_shape = {}
            for t in iter_slices(profile, bound):
                by_shape.setdefault(shape(gray, t), []).append(sum(t))
            assert len(by_shape) == comb(profile.level + r - 1, r - 1), profile
            for sh, weights in by_shape.items():
                weights.sort()
                assert len({w % r for w in weights}) == 1, (profile, sh)
                assert all(b - a == r for a, b in zip(weights, weights[1:])), \
                    (profile, sh)


def white_graph(profile, max_weight):
    """`flow_graph`'s nodes as white tuples, each (weight, shape) node read
    back as the brute-force slice of that weight and `shape`, and its edges
    as pairs of them."""
    gray = baseline(profile)
    white = {(sum(t), shape(gray, t)): t
             for t in valid_whites(profile, max_weight)}
    nodes, edges = flow_graph(profile, max_weight)
    nodes = [white[node] for node in nodes]
    return nodes, [(nodes[i], nodes[j]) for i, j in edges]


class TestFlowGraph:
    def test_profile_2_1_weight_4(self):
        _, edges = white_graph(Profile((2, 1)), 4)
        assert set(edges) == {
            ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (2, 0)),
            ((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2, 0), (2, 1)),
            ((1, 2), (2, 2)), ((2, 1), (2, 2)), ((2, 1), (3, 1)),
        }

    def test_profile_1_1_weight_4(self):
        _, edges = white_graph(Profile((1, 1)), 4)
        assert set(edges) == {
            ((0, 1), (1, 1)), ((1, 0), (1, 1)),
            ((1, 1), (1, 2)), ((1, 1), (2, 1)),
            ((1, 2), (2, 2)), ((2, 1), (2, 2)),
        }

    def test_weight_one_is_edgeless(self):
        nodes, edges = flow_graph(Profile((2, 1)), 1)
        assert edges == ()
        assert nodes and all(weight == 1 for weight, _ in nodes)

    def test_edges_increase_weight_by_one(self):
        _, edges = white_graph(Profile((1, 0, 1)), 6)
        for u, v in edges:
            assert sum(v) == sum(u) + 1
            assert sum(abs(a - b) for a, b in zip(u, v)) == 1

    @staticmethod
    def check_against_brute_force(profile, max_weight):
        """The nodes are the brute-force slices as (weight, shape) pairs, in
        that order, and the edges are the index pairs of the (u, v) slices
        with v one square heavier and u <= v row by row, found by a brute
        force over all pairs of adjacent weights, in order."""
        gray = baseline(profile)
        whites = valid_whites(profile, max_weight)
        key = {t: (sum(t), shape(gray, t)) for t in whites}
        nodes, edges = flow_graph(profile, max_weight)
        assert nodes == tuple(sorted(key.values())), profile
        index = {node: k for k, node in enumerate(nodes)}
        by_weight = {}
        for t in whites:
            by_weight.setdefault(sum(t), []).append(t)
        pairs = {(index[key[u]], index[key[v]])
                 for w, low in by_weight.items()
                 for u in low for v in by_weight.get(w + 1, ())
                 if all(a <= b for a, b in zip(u, v))}
        assert edges == tuple(sorted(pairs)), profile

    def test_edges_are_all_one_square_pairs(self):
        # flow_graph tests one inequality per shape entry; a brute force over
        # all tuples and all node pairs, for every profile of rank 1-5 and
        # level <= 3 (zero parts included), finds the same graph
        for rank in range(1, 6):
            for parts in itertools.product(range(4), repeat=rank):
                if 1 <= sum(parts) <= 3:
                    self.check_against_brute_force(Profile(parts), 6)

    def test_census_profiles_at_max_weight_8(self):
        # the slice-census benchmark's domain, rank 4-7 and rank + level
        # <= 8 at its largest max weight
        profiles = [p for p in all_profiles(8) if p.rank >= 4]
        assert len(profiles) == 158
        for profile in profiles:
            self.check_against_brute_force(profile, 8)

    @pytest.mark.parametrize("parts, max_weight", [
        ((1, 1), 1), ((2, 1), 6), ((1, 0, 1), 7), ((1, 1, 1, 1), 8),
        ((2, 0, 0, 0, 1), 8), ((1, 0, 0, 0, 0, 0, 0), 5)])
    def test_each_slice_is_grown_once(self, monkeypatch, parts, max_weight):
        # the edges come from the growths that build the next weight: the
        # empty slice's gray shape and each node below max_weight are grown
        # once each
        grown, growths = [], slices._growths
        monkeypatch.setattr(slices, "_growths",
                            lambda level, sh: grown.append(sh)
                            or growths(level, sh))
        profile = Profile(parts)
        nodes, _ = flow_graph(profile, max_weight)
        below = [sh for weight, sh in nodes if weight < max_weight]
        gray = shape(baseline(profile), (0,) * len(parts))
        assert len(grown) == 1 + len(below)
        assert sorted(grown) == sorted([gray] + below)

    def test_containment_matches_reachability(self):
        # strict containment between slices of different weight coincides
        # with reachability along single-square additions
        for parts in [(1, 1), (2, 1), (1, 1, 1), (2, 0)]:
            profile = Profile(parts)
            nodes, edges = white_graph(profile, 12)
            nodes = [Slice(profile, t) for t in nodes]
            edges = [(Slice(profile, u), Slice(profile, v)) for u, v in edges]
            succ = {}
            for u, v in edges:
                succ.setdefault(u, set()).add(v)
            reach = {}
            for u in sorted(nodes, key=lambda s: -s.weight):
                acc = set()
                for v in succ.get(u, ()):
                    acc.add(v)
                    acc |= reach[v]
                reach[u] = acc
            for u in nodes:
                for v in nodes:
                    if v.weight > u.weight:
                        assert contains(u, v) == (v in reach[u]), (u, v)

    def test_dot_output(self, capsys):
        assert main(["flow", "--profile", "1,1", "--max-weight", "2"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph sliceflow {")
        assert text.endswith("}\n")
        # shape (1,) gets letter b under the alphabetical-by-tuple convention
        assert 'label="bq^2"' in text
        assert text.count("->") == 2

    def test_bound_below_one_gives_empty_graph(self):
        assert flow_graph(Profile((1, 1)), 0) == ((), ())


class TestDisplay:
    def test_letters_alphabetical_by_shape(self):
        letters = {sh: shape_name(sh) for sh in shape_floors(Profile((2, 1)))}
        assert letters == {(0,): "a", (1,): "b", (2,): "c", (3,): "d"}

    def test_names_follow_sorted_shapes(self):
        # the name is the shape's index in the sorted list of all shapes,
        # for every profile of rank <= 5 and level <= 6
        for rank in range(1, 6):
            for parts in itertools.product(range(7), repeat=rank):
                if not 1 <= sum(parts) <= 6:
                    continue
                shapes = sorted(shape_floors(Profile(parts)))
                for k, sh in enumerate(shapes):
                    name = chr(ord("a") + k) if k < 26 else f"s{k}"
                    assert shape_name(sh) == name, (parts, sh)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=12))
    def test_names_match_comb_sum_on_random_shapes(self, entries):
        sh = tuple(sorted(entries, reverse=True))
        assert shape_name(sh) == comb_shape_name(sh)

    def test_names_match_comb_sum_on_census_shapes(self):
        # every shape of every profile with rank + level <= 8
        for profile in all_profiles(8):
            for sh in shape_floors(profile):
                assert shape_name(sh) == comb_shape_name(sh), (profile, sh)

    #: rank 2: d(sigma', sigma) by shape letter, row sigma' (the inner
    #: slice), column sigma (the outer), as printed in the README
    DIFFERENCES = {
        2: ("abc", [[0, 0, 0],
                    [1, 0, 0],
                    [2, 1, 0]]),
        3: ("abcd", [[0, 0, 0, 0],
                     [1, 0, 0, 0],
                     [2, 1, 0, 0],
                     [3, 2, 1, 0]]),
        4: ("abcde", [[0, 0, 0, 0, 0],
                      [1, 0, 0, 0, 0],
                      [2, 1, 0, 0, 0],
                      [3, 2, 1, 0, 0],
                      [4, 3, 2, 1, 0]]),
    }

    @pytest.mark.parametrize("level", DIFFERENCES)
    def test_rank_two_difference_matrices(self, level):
        letters, matrix = self.DIFFERENCES[level]
        for first in range(level + 1):
            shapes = sorted(shape_floors(Profile((first, level - first))),
                            key=shape_name)
            assert "".join(map(shape_name, shapes)) == letters
            assert [[shape_difference(inner, outer) for outer in shapes]
                    for inner in shapes] == matrix

    def test_huge_level(self):
        # a level-(10^14 + 1) rank-2 profile has more shapes than memory
        # holds; naming one lists none of them
        assert shape_name((10 ** 14,)) == f"s{10 ** 14}"
        assert shape_name((2, 0, 0)) == "e"
        # a jump of 10^14 after a term is one binomial, not 10^14 steps
        assert shape_name((10 ** 14, 1)) == f"s{comb(10 ** 14 + 1, 2) + 1}"

    def test_board(self, capsys):
        # the one level slice of this partition is t = (0, 1); its board has
        # gray rows (3, 2)
        argv = ["decompose", "--json", '{"profile":[2,1],"rows":[[],[1]]}',
                "--boards"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["...", "..#"]
