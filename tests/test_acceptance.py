"""Acceptance suite: one test and one printed PASS/FAIL line per criterion."""
import time
from math import comb

from cylgf import genfun, lemmas
from cylgf.cli import main as cli_main
from cylgf.cylindric import Profile, enumerate_table, iter_partitions
from cylgf.series import PochSpec, Series, first_mismatch, pochhammer
from cylgf.slices import baseline, decompose, iter_slices, shape
from reference import dual, recompose, profiles_up_to
from test_cylindric import all_profiles
from test_slices import white_graph

TWELVE_PROFILES = [(1, 1), (2, 0), (2, 1), (3, 0), (2, 0, 0), (1, 1, 0),
                   (4, 0), (2, 2), (3, 1), (2, 0, 0, 0), (1, 0, 1, 0),
                   (1, 1, 0, 0)]


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_partition_function(capsys):
    best = min(
        _timed(lambda: pochhammer(PochSpec(1, 1, 1), 8).invert())[1]
        for _ in range(10))
    series = pochhammer(PochSpec(1, 1, 1), 8).invert()
    ok = series.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22) and best < 0.001
    announce(capsys, 1, ok,
             f"P(q) coefficients 0..8 exact, {best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_02_three_way_agreement(capsys):
    t0 = time.perf_counter()
    ok = True
    for parts in TWELVE_PROFILES:
        order = 10 if len(parts) == 4 else 12
        profile = Profile(parts)
        counts = enumerate_table(profile, order).counts
        a = Series.from_coeffs(map(sum, zip(*counts)))
        b = genfun.chain_series(profile, order).marginal()
        c = genfun.borodin(profile, order)
        ok &= a == b == c
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    announce(capsys, 2, ok,
             f"enumerate = chain = product for 12 profiles, {elapsed:.1f} s")


def test_03_refined_agreement(capsys):
    ok = True
    for parts in [(1, 1), (2, 1), (1, 1, 1)]:
        profile = Profile(parts)
        ok &= (genfun.chain_series(profile, 10).table
               == enumerate_table(profile, 10).counts)
    announce(capsys, 3, ok, "refined (max, size) tables agree to order 10")


def test_04_main_identities(capsys):
    t0 = time.perf_counter()
    ok = all(
        first_mismatch(*genfun.catalog_sides(tag, 60)) is None
        for tag in ("1.2", "1.3", "1.4", "1.5", "1.6", "1.7", "1.8"))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5
    announce(capsys, 4, ok, f"seven identities hold to q^60, {elapsed:.2f} s")


def test_05_catalog_to_chain_closure(capsys):
    ok = True
    cache = {}
    for parts, tag in genfun.PROFILE_IDENTITIES.items():
        if tag not in cache:
            cache[tag] = genfun.catalog_sides(tag, 25)[0]
        ok &= genfun.chain_series(Profile(parts), 25).marginal() == cache[tag]
    announce(capsys, 5, ok, "chain series equal catalog sums to q^25")


def test_06_auxiliary_identities(capsys):
    ok = first_mismatch(*genfun.catalog_sides("A1", 60)) is None
    ok &= first_mismatch(*genfun.catalog_sides("A2", 60)) is None
    for j in (1, 2, 3):
        ok &= first_mismatch(*genfun.catalog_sides("gasper", 40, j)) is None
    announce(capsys, 6, ok, "auxiliary sums to q^60, z-specializations to q^40")


def test_07_duality_pairs(capsys):
    profiles = profiles_up_to(5, 5)
    ok = len(profiles) == 456 and all(
        genfun.borodin(Profile(parts), 30)
        == genfun.borodin(Profile(dual(parts)), 30) for parts in profiles)
    announce(capsys, 7, ok,
             "456 profiles c of rank and level <= 5 agree with D(c) to q^30")


def test_08_cyclic_shift_invariance(capsys):
    profiles = all_profiles(7)
    ok = all(
        genfun.borodin(p, 20)
        == genfun.borodin(Profile(p.parts[1:] + p.parts[:1]), 20)
        for p in profiles)
    announce(capsys, 8, ok,
             f"rotation invariance for {len(profiles)} profiles to q^20")


def test_09_shape_census(capsys):
    ok = True
    for profile in all_profiles(8):
        r = profile.rank
        gray = baseline(profile)
        by_shape = {}
        for t in iter_slices(profile, r * profile.level + r):
            by_shape.setdefault(shape(gray, t), []).append(sum(t))
        ok &= len(by_shape) == comb(profile.level + r - 1, r - 1)
        for weights in by_shape.values():
            weights.sort()
            ok &= len({w % r for w in weights}) == 1
            ok &= all(b - a == r for a, b in zip(weights, weights[1:]))
    announce(capsys, 9, ok, "shape counts and weight residue classes")


def test_10_round_trip(capsys):
    ok = True
    total = 0
    for parts in [(1, 1), (2, 0), (2, 1), (1, 1, 1)]:
        profile = Profile(parts)
        for cp in iter_partitions(profile, 10):
            ok &= recompose(profile, decompose(cp)) == cp
            total += 1
    announce(capsys, 10, ok, f"decompose/recompose on {total} partitions")


def test_11_flow_fidelity(capsys):
    _, edges = white_graph(Profile((2, 1)), 4)
    edges21 = set(edges)
    ok = edges21 == {
        ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (2, 0)),
        ((1, 1), (1, 2)), ((1, 1), (2, 1)), ((2, 0), (2, 1)),
        ((1, 2), (2, 2)), ((2, 1), (2, 2)), ((2, 1), (3, 1))}
    _, edges = white_graph(Profile((1, 1)), 4)
    edges11 = set(edges)
    ok &= edges11 == {
        ((0, 1), (1, 1)), ((1, 0), (1, 1)),
        ((1, 1), (1, 2)), ((1, 1), (2, 1)),
        ((1, 2), (2, 2)), ((2, 1), (2, 2))}
    announce(capsys, 11, ok, "flow graphs match the pinned edge sets")


def test_12_lemma_suite(capsys):
    t0 = time.perf_counter()
    specs = lemmas.grid(3, 3, 6)
    ok = all(bad is None for bad in lemmas.verify_lemmas(specs, 40))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    announce(capsys, 12, ok,
             f"{len(specs)} lemma instances at order 40, {elapsed:.1f} s")


def test_13_distinct_slice_product(capsys):
    n = 30
    acc = Series.monomial(0, n)
    for k in range(n):
        if 2 * k + 1 <= n:
            f = [0] * (n + 1)
            f[0], f[2 * k + 1] = 1, 2
            acc = acc * Series.from_coeffs(f)
        if 2 * k + 2 <= n:
            f = [0] * (n + 1)
            f[0], f[2 * k + 2] = 1, 1
            acc = acc * Series.from_coeffs(f)
    got = genfun.chain_series(Profile((1, 1)), n, distinct=True).marginal()
    announce(capsys, 13, got == acc, "distinct-slice chain equals the product")


def test_14_verify_all(capsys):
    t0 = time.perf_counter()
    code = cli_main(["verify", "--all"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 300
    announce(capsys, 14, ok, f"verify --all exit {code}, {elapsed:.1f} s")
