"""Tests for the nested-sum identities and their closed forms."""
import itertools
import json
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cylgf import lemmas
from cylgf.cli import main
from cylgf.lemmas import (LemmaSpecError, NestedSumSpec, _term, closed_form,
                          grid, nested_sum, nested_sums, verify_lemmas)
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
        assert verify_lemmas([NestedSumSpec("C", (1,), fixed_k=1)],
                             20) == [None]

    def test_offsets(self):
        assert NestedSumSpec("A", (1,)).offset == 0
        assert NestedSumSpec("B", (1,)).offset == 1
        assert NestedSumSpec("C", (1,)).offset == -1


class TestFixedK:
    def test_family_a_k0_has_half_coefficients(self):
        # q / ((1+q^0)(1+q^2)) = (1/2) q / (1+q^2); the spec's h = 1, and
        # both sides are 2^h times their series: q / (1+q^2), on int
        n = 12
        spec = NestedSumSpec("A", (1,), fixed_k=0)
        assert spec.halves == 1
        lhs = nested_sum(spec, n)
        expected = one_plus_q(2, n).invert() * Series.monomial(1, n)
        assert lhs == expected
        assert all(type(c) is int for c in lhs.coeffs)
        assert all(type(c) is int for c in closed_form(spec, n).coeffs)
        assert verify_lemmas([spec], n) == [None]
        # _term takes a (1+q^0) off the 2^h itself; the series kernels take
        # e >= 1.  2 / ((1 + q^0)(1 + q^2)) = 1 - q^2 + q^4 - ...
        r = _term(Series.monomial(0, 4), 0, 0, 2, 1)
        assert r.coeffs == (1, 0, -1, 0, 1)
        assert all(type(c) is int for c in r.coeffs)

    def test_family_a_single_term(self):
        # q^{2k+1} / ((1+q^{2k})(1+q^{2k+2})) at k=2
        n = 20
        spec = NestedSumSpec("A", (1,), fixed_k=2)
        lhs = nested_sum(spec, n)
        den = one_plus_q(4, n) * one_plus_q(6, n)
        assert lhs == den.invert() * Series.monomial(5, n)
        assert verify_lemmas([spec], n) == [None]

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fixed_terms_sum_to_chain_pass(self, family, m):
        # the one-block sum over k >= 1 is the sum of its fixed-k terms, so
        # both sides build the same block term
        for n in (0, 5, 17, 40):
            total = Series.zero(n)
            for k in range(1, n + 2):
                total = total + nested_sum(
                    NestedSumSpec(family, (m,), fixed_k=k), n)
            assert total == nested_sum(NestedSumSpec(family, (m,)), n), n

    @pytest.mark.parametrize("family", ["A", "B"])
    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_partial_fraction_split(self, family, k, m):
        assert verify_lemmas([NestedSumSpec(family, (m,), fixed_k=k)],
                             40) == [None]


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
        # the ranges of K stop at the order: the sum at order 60, cut to 30,
        # has every term that reaches q^30
        for spec in [NestedSumSpec("A", (1, 2)), NestedSumSpec("B", (2,)),
                     NestedSumSpec("C", (1, 1, 1))]:
            cut = Series.from_coeffs(nested_sum(spec, 60).coeffs[:31])
            assert cut == nested_sum(spec, 30)



#: the 39 block vectors of each family in the pinned grid(3, 3, 6)
GRID_VECTORS = [spec.blocks for spec in grid(3, 3, 6)
                if spec.family == "A" and spec.fixed_k is None]


def count_terms(monkeypatch):
    """A list whose length counts the `_term` calls of lemmas and of the
    reference from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return _term(*args, **kwargs)

    monkeypatch.setattr(lemmas, "_term", counted)
    monkeypatch.setattr(reference, "_term", counted)
    return calls


class TestTrie:
    """`nested_sums` against the per-spec block passes of the reference."""

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    @pytest.mark.parametrize("order", [0, 1, 7, 12, 40, 64, 100])
    def test_grid_equals_reference(self, family, order):
        # in grid order each prefix comes before its extensions; reversed,
        # a node is first reached from its longest vector, which needs the
        # fewest K there
        assert len(GRID_VECTORS) == 39
        expected = {blocks: reference.block_nested_sum(
            NestedSumSpec(family, blocks), order) for blocks in GRID_VECTORS}
        for vectors in (GRID_VECTORS, GRID_VECTORS[::-1]):
            sums = nested_sums(family, vectors, order)
            assert list(sums) == vectors
            for blocks in vectors:
                assert sums[blocks] == expected[blocks], blocks

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from("ABC"), order=st.integers(0, 60),
           vectors=st.lists(
               st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
               min_size=1, max_size=6, unique=True),
           huge=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 3)))
    def test_any_vectors_equal_reference_alone_or_together(
            self, family, order, vectors, huge):
        if huge is not None:
            # one entry of 10^8: that vector's least term lies past the order
            at, i = huge
            at %= len(vectors)
            blocks = list(vectors[at])
            blocks[i % len(blocks)] = 10 ** 8
            vectors[at] = tuple(blocks)
        together = nested_sums(family, vectors, order)
        assert list(together) == list(dict.fromkeys(vectors))
        for blocks in vectors:
            expected = reference.block_nested_sum(
                NestedSumSpec(family, blocks), order)
            assert together[blocks] == expected, blocks
            assert nested_sums(family, [blocks], order) == {blocks: expected}

    @pytest.mark.parametrize("order", [12, 40, 64])
    def test_lone_vector_forms_the_reference_terms(self, monkeypatch, order):
        calls = count_terms(monkeypatch)
        for family in "ABC":
            for blocks in GRID_VECTORS:
                spec = NestedSumSpec(family, blocks)
                del calls[:]
                nested_sum(spec, order)
                alone = len(calls)
                del calls[:]
                reference.block_nested_sum(spec, order)
                assert alone == len(calls), (family, blocks)

    def test_grid_shares_block_passes(self, monkeypatch):
        # block terms of the 117 non-fixed grid sums, trie against one
        # vector at a time; the saving grows with the order
        calls = count_terms(monkeypatch)
        counts = {}
        for order in (12, 40, 64, 100):
            del calls[:]
            for family in "ABC":
                nested_sums(family, GRID_VECTORS, order)
            trie = len(calls)
            del calls[:]
            for family in "ABC":
                for blocks in GRID_VECTORS:
                    reference.block_nested_sum(NestedSumSpec(family, blocks),
                                               order)
            counts[order] = trie, len(calls)
        assert counts == {12: (28, 32), 40: (325, 468), 64: (893, 1371),
                          100: (2070, 3274)}

    def test_huge_vectors_build_no_node(self, monkeypatch):
        # the least degree comes before any prefix is sliced: 20,000 blocks
        # and a block of 10^8 cost no term
        calls = count_terms(monkeypatch)
        many, huge = (1,) * 20000, (99999999,)
        sums = nested_sums("A", [many, huge], 10)
        assert sums == {many: Series.zero(10), huge: Series.zero(10)}
        assert calls == []


class TestMismatchReport:
    """A closed form off by q^order in one spec: the batch and the one-spec
    path name the same degree and values."""

    @pytest.mark.parametrize("target, tag", [
        (NestedSumSpec("A", (1,), fixed_k=0), "L4.1(0,1)"),
        (NestedSumSpec("B", (2,), fixed_k=3), "L5.1(3,2)"),
        (NestedSumSpec("C", (2, 1, 3)), "L5.5(2,1,3)"),
        (NestedSumSpec("A", (1,)), "L4.2(1)"),
    ], ids=["L4.1(0,1)", "L5.1(3,2)", "L5.5(2,1,3)", "L4.2(1)"])
    def test_batch_and_single_agree(self, monkeypatch, capsys, target, tag):
        order = 40
        true_closed_form = closed_form

        def bumped(spec, n):
            series = true_closed_form(spec, n)
            if spec == target:
                series = series + Series.monomial(n, n)
            return series

        monkeypatch.setattr(lemmas, "closed_form", bumped)
        lhs = reference.block_nested_sum(target, order).coeffs[order]
        scale = 2 ** target.halves
        expected = (order, Fraction(lhs, scale), Fraction(lhs + 1, scale))
        specs = grid(3, 3, 6)
        assert target in specs
        results = verify_lemmas(specs, order)
        assert [spec for spec, bad in zip(specs, results)
                if bad is not None] == [target]
        bad = results[specs.index(target)]
        assert bad == expected
        assert verify_lemmas([target], order) == [bad]
        assert all(type(value) is (Fraction if scale > 1 else int)
                   for value in bad[1:])
        # the --id line names the values, the --all line the degree
        assert main(["verify", "--id", tag, "--order", str(order)]) == 1
        assert capsys.readouterr().out == (
            f"{tag},order={order},FAIL@q^{order} lhs={bad[1]} rhs={bad[2]}\n")
        assert main(["verify", "--all", "--order", str(order)]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if "FAIL" in line]
        k = "-" if target.fixed_k is None else target.fixed_k
        assert fails == [f"{target.family},{len(target.blocks)},"
                         f"{'+'.join(map(str, target.blocks))},{k},{order},"
                         f"FAIL@q^{order}"]


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
            assert verify_lemmas([NestedSumSpec(family, blocks)], 40) \
                == [None], (family, blocks)

    def test_grid_contents(self):
        specs = grid(2, 2, 1)
        fams = {s.family for s in specs}
        assert fams == {"A", "B", "C"}
        assert sum(1 for s in specs if s.fixed_k is not None) == 2 * 2 * 2
        assert sum(1 for s in specs if s.fixed_k is None) == 3 * (2 + 4)

    def test_report_line(self, capsys):
        # the --all grid lines are formatted by the cli: family, blocks,
        # block lengths, fixed k or "-", order, status
        assert main(["verify", "--all", "--order", "20", "--verbose"]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert "A,2,1+2,-,20,PASS" in lines
        assert "B,1,2,3,20,PASS" in lines
        counters = json.loads(out.err)
        assert counters.pop("seconds") >= 0
        pinned = json.loads(files("cylgf.data").joinpath("verify_all.json")
                            .read_text())
        lem = pinned["lemmas"]
        assert counters == {
            "identities": len(pinned["identities"]),
            "lemma_specs": len(grid(lem["n_max"], lem["m_max"], lem["k_max"]))}
