"""Tests for the slice calculus, flow graphs, and decomposition."""
import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgf.cylindric import PartitionError, Profile, iter_partitions, validate
from cylgf.slices import (Slice, SliceError, baseline, board, contains,
                          decompose, flow_graph, iter_slices, min_slices,
                          shape, shape_difference, shape_floors, shape_name)
from reference import recompose
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
        assert Slice(p, (0, 1)).is_valid()
        assert Slice(p, (3, 1)).is_valid()
        assert not Slice(p, (0, 2)).is_valid()  # t_2 > t_1 + c_2
        assert not Slice(p, (5, 1)).is_valid()  # t_1 > t_2 + c_1

    def test_empty_slice_always_valid(self):
        for profile in all_profiles(7):
            assert Slice(profile, (0,) * profile.rank).is_valid()

    def test_validity_matches_definition(self):
        # the adjacent-rows criterion must agree with running the 0/1
        # partition with rows 1^{t_i} through the definition-level validator.
        # Both are invariant under adding 1 to every t_i, and counts up to
        # level + 1 reach both sides of every boundary t_{i+1} = t_i + c_{i+1}
        for profile in all_profiles(7):
            r = profile.rank
            stack = [()]
            for _ in range(r):
                stack = [t + (v,) for t in stack
                         for v in range(profile.level + 2)]
            for t in stack:
                try:
                    validate(profile, [(1,) * v for v in t])
                    valid = True
                except PartitionError:
                    valid = False
                assert Slice(profile, t).is_valid() == valid, (profile, t)

    def test_bad_construction(self):
        with pytest.raises(SliceError):
            Slice(Profile((1, 1)), (1,))
        with pytest.raises(SliceError):
            Slice(Profile((1, 1)), (-1, 0))


class TestShape:
    def test_single_entry(self):
        assert shape(Slice(Profile((2, 1)), (0, 1))) == (0,)

    def test_invariant_under_uniform_addition(self):
        for profile in all_profiles(6):
            for s in iter_slices(profile, 6):
                grown = Slice(profile, tuple(t + 1 for t in s.white))
                assert shape(grown) == shape(s)

    def test_rank_three_shape_sequence(self):
        p = Profile((1, 1, 1))
        cp = validate(p, [(5, 4), (8, 2), (7, 5, 1)])
        top_down = [shape(s) for s in reversed(decompose(cp))]
        assert top_down == [(2, 2), (1, 1), (1, 1), (1, 0),
                            (2, 0), (2, 0), (2, 1), (1, 0)]
        # the empty slice shares the gray staircase's shape
        assert shape(Slice(p, (0, 0, 0))) == (2, 1)

    def test_invalid_slice_rejected(self):
        with pytest.raises(SliceError):
            shape(Slice(Profile((2, 1)), (0, 2)))


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
            gray = shape(Slice(profile, (0,) * profile.rank))
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
        assert ms[shape(Slice(profile, (0,) * 8))].white == (1,) * 8

    @staticmethod
    def scan_min_slices(profile):
        """Least-weight slice of each shape by a scan over iter_slices in
        weight order, up to rank*level + rank, stopping at the last shape."""
        out = {}
        r = profile.rank
        for s in iter_slices(profile, r * profile.level + r):
            out.setdefault(shape(s), s)
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
    @staticmethod
    def brute_force(profile, max_weight):
        """Filter every tuple by Slice.is_valid, then sort."""
        found = [Slice(profile, t)
                 for t in itertools.product(range(max_weight + 1),
                                            repeat=profile.rank)
                 if 0 < sum(t) <= max_weight]
        found = [s for s in found if s.is_valid()]
        found.sort(key=lambda s: (s.weight, s.white))
        return found

    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(any),
           max_weight=st.integers(0, 8))
    def test_matches_brute_force(self, parts, max_weight):
        profile = Profile(tuple(parts))
        assert (list(iter_slices(profile, max_weight))
                == self.brute_force(profile, max_weight))

    def test_lazy(self):
        # the first slice arrives without enumerating up to the bound
        first = next(iter_slices(Profile((1,) * 12), 10 ** 6))
        assert first.white == (0,) * 11 + (1,)


class TestCensus:
    def test_shape_count_and_weight_residues(self):
        for profile in all_profiles(8):
            r = profile.rank
            bound = r * profile.level + r
            by_shape = {}
            for s in iter_slices(profile, bound):
                by_shape.setdefault(shape(s), []).append(s.weight)
            assert len(by_shape) == comb(profile.level + r - 1, r - 1), profile
            for sh, weights in by_shape.items():
                weights.sort()
                assert len({w % r for w in weights}) == 1, (profile, sh)
                assert all(b - a == r for a, b in zip(weights, weights[1:])), \
                    (profile, sh)


class TestFlowGraph:
    def test_profile_2_1_weight_4(self):
        g = flow_graph(Profile((2, 1)), 4)
        edges = {(u.white, v.white) for u, v in g.edges}
        assert edges == {
            ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (2, 0)),
            ((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2, 0), (2, 1)),
            ((1, 2), (2, 2)), ((2, 1), (2, 2)), ((2, 1), (3, 1)),
        }

    def test_profile_1_1_weight_4(self):
        g = flow_graph(Profile((1, 1)), 4)
        edges = {(u.white, v.white) for u, v in g.edges}
        assert edges == {
            ((0, 1), (1, 1)), ((1, 0), (1, 1)),
            ((1, 1), (1, 2)), ((1, 1), (2, 1)),
            ((1, 2), (2, 2)), ((2, 1), (2, 2)),
        }

    def test_weight_one_is_edgeless(self):
        g = flow_graph(Profile((2, 1)), 1)
        assert g.edges == ()
        assert all(s.weight == 1 for s in g.nodes)

    def test_edges_increase_weight_by_one(self):
        g = flow_graph(Profile((1, 0, 1)), 6)
        for u, v in g.edges:
            assert v.weight == u.weight + 1
            assert sum(abs(a - b) for a, b in zip(u.white, v.white)) == 1

    def test_edges_are_all_one_square_pairs(self):
        # flow_graph tests one inequality per row; a brute force over all
        # node pairs, for every profile of rank 1-5 and level <= 3 (zero
        # parts included), finds the same edges
        for rank in range(1, 6):
            for parts in itertools.product(range(4), repeat=rank):
                if not 1 <= sum(parts) <= 3:
                    continue
                g = flow_graph(Profile(parts), 6)
                by_weight = {}
                for s in g.nodes:
                    by_weight.setdefault(s.weight, []).append(s.white)
                pairs = {(u, v) for w, low in by_weight.items()
                         for u in low for v in by_weight.get(w + 1, ())
                         if all(a <= b for a, b in zip(u, v))}
                edges = [(u.white, v.white) for u, v in g.edges]
                assert len(edges) == len(pairs), parts
                assert set(edges) == pairs, parts

    def test_containment_matches_reachability(self):
        # strict containment between slices of different weight coincides
        # with reachability along single-square additions
        for parts in [(1, 1), (2, 1), (1, 1, 1), (2, 0)]:
            profile = Profile(parts)
            g = flow_graph(profile, 12)
            succ = {}
            for u, v in g.edges:
                succ.setdefault(u, set()).add(v)
            reach = {}
            for u in sorted(g.nodes, key=lambda s: -s.weight):
                acc = set()
                for v in succ.get(u, ()):
                    acc.add(v)
                    acc |= reach[v]
                reach[u] = acc
            for u in g.nodes:
                for v in g.nodes:
                    if v.weight > u.weight:
                        assert contains(u, v) == (v in reach[u]), (u, v)

    def test_dot_output(self):
        text = flow_graph(Profile((1, 1)), 2).to_dot()
        assert text.startswith("digraph sliceflow {")
        assert text.endswith("}\n")
        # shape (1,) gets letter b under the alphabetical-by-tuple convention
        assert 'label="bq^2"' in text
        assert text.count("->") == 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(SliceError):
            flow_graph(Profile((1, 1)), 0)


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

    def test_board(self):
        assert board(Slice(Profile((2, 1)), (0, 1))) == "...\n..#\n"
