"""Configuration enumeration against an independent brute-force oracle."""

import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from collections import Counter
from math import comb, factorial, prod
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from bhlab import configurations as conf
from bhlab import entropy as ent
from bhlab import random_coding, rates
from bhlab.entropy import from_probs, make_distribution, uniform_bits
from bhlab.errors import CapExceeded, InvalidDistribution, InvalidParams
from helpers import automorphism_reference, canonical_reference, coinciding_weight_reference

PARTITION_NUMBERS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}


# ---------------------------------------------------------------------------
# independent oracle: enumerate k x l matrices cell by cell

def _set_partitions(n):
    """All set partitions of range(n) as assignment vectors (restricted growth)."""
    def rec(i, assign, used):
        if i == n:
            yield tuple(assign)
            return
        for v in range(used + 1):
            assign.append(v)
            yield from rec(i + 1, assign, max(used, v + 1))
            assign.pop()

    yield from rec(0, [], 0)


def brute_classes(k, l):
    """Canonical forms of valid classes, via explicit matrix enumeration."""
    classes, seen = set(), set()
    for assign in _set_partitions(k * l):
        cols = [tuple(assign[j * k + i] for i in range(k)) for j in range(l)]
        nvars = max(assign) + 1
        col_sets = [set(c) for c in cols]
        if any(all(v in cs for cs in col_sets) for v in range(nvars)):
            continue  # a variable occupies every column
        col_multisets = [tuple(sorted(c)) for c in cols]
        if len(set(col_multisets)) != l:
            continue  # two equal columns
        per_col_counts = [[c.count(v) for c in cols] for v in range(nvars)]
        separable = all(sum(1 for x in row if x) == 1 for row in per_col_counts)
        flat = all(max(row) <= 1 for row in per_col_counts)
        if not (separable or flat):
            continue  # repetition mixed with sharing
        rows = tuple(sorted(map(tuple, per_col_counts)))
        if rows in seen:
            continue  # a relabelling of a count matrix already canonicalized
        seen.add(rows)
        # label-free invariant: least sorted count-row multiset over column perms
        best = None
        for sigma in permutations(range(l)):
            cand = tuple(sorted(tuple(row[j] for j in sigma) for row in per_col_counts))
            if best is None or cand < best:
                best = cand
        classes.add(best)
    return classes


# every shape with k*l <= 10 except (1, 9) and (1, 10), whose single class costs
# the oracle one 9! or 10! canonicalization (6 s and 56 s); l = 1 has no class
BRUTE_SHAPES = ([(k, 1) for k in (1, 2, 5)] + [(1, l) for l in range(2, 9)]
                + [(2, l) for l in range(2, 6)] + [(3, 2), (3, 3), (4, 2), (5, 2)])


@pytest.mark.parametrize("k,l", BRUTE_SHAPES)
def test_enumeration_matches_brute_force(k, l):
    classes = brute_classes(k, l)
    assert {c.vectors for c in conf.enumerate_conf(k, l)} == classes
    # every vector limit: `enumerate_conf_sharp` reads them, and the generators prune by them
    for m in range(1, k * l + 1):
        ours = [c.vectors for c in conf.enumerate_conf(k, l, max_vectors=m)]
        assert len(ours) == len(set(ours))
        assert set(ours) == {c for c in classes if len(c) <= m}


# (k, l): (class count, sha256 of repr(enumerate_conf(k, l))), recorded from the
# labelled-multiset search that the two generators replaced (commit 6557a63),
# for every shape with k*l <= 16 and l >= 2 that it finished within 200 s;
# (1, 10) and (2, 7) did not.  Every l = 1 shape it returned [].
PINNED_CONF = {
    (1, 2): (1, "6b5718b9c2235a62cba8ceda0c7bd3a8b20cae605c16354fecae3b188a329c44"),
    (1, 3): (1, "a9b33e6fb5893ff298b7fb79aa6afb4bbf311ee9fba96860304cc91fc54fda1c"),
    (1, 4): (1, "b92f8c999151fce519cb8029d2df6e7e7c6248ed026f01f17c0171f1f84f51c6"),
    (1, 5): (1, "0005d3e34e35e7c8c5bccf8ce0709625779ab6c40a1b79583167c60546de4463"),
    (1, 6): (1, "5d115872961e7ab5c892c1600625b29519a2b960822750b14dbf7f25b79ec02b"),
    (1, 7): (1, "dad1e4da30d4fd23b517920cd27a16354d0f202d1ad7723e2040cb07e603d207"),
    (1, 8): (1, "4b7d49a155f6632f193b3031899fe13f6e6179700e145a7503dcc56baefa7969"),
    (1, 9): (1, "f95ecd6033012a11479c090691efd260416438df590fd171a682ab49567b8e36"),
    (2, 2): (3, "430a50760dfbbb7d21f85fddee3d855c2c49b307c20be6c9675801551d5a0b00"),
    (2, 3): (7, "f823259adb80fb106b3ceeadb7e26db6ef2df0b1bffed8e11603d34f4f770d10"),
    (2, 4): (14, "548bf682d79bf0e6bd8d941ca41a0f5357d35929db91b9ebb2ddc9cc7d46e71c"),
    (2, 5): (30, "d4f80a814ce1e53fa6bcf977bc2257ffce58699ebea65d65d1f61f1406012e00"),
    (2, 6): (73, "44cee192d28c0d5aee0125ad8fcbc7dabcf00b499cf9875a8c59c9a377e7fcac"),
    (3, 2): (6, "d774f2ef25cfe417fd62552af3842f9f101ec2ce62f7080700502e54ce2a24a9"),
    (3, 3): (16, "84e6c26659b78da9e5b56da6d686c5d5b49a8b351e1e64adbb3629d18e70655c"),
    (3, 4): (69, "4891e967ac0b4289890ec7959c6b50077a039898f37af443bcfef935054233a9"),
    (3, 5): (439, "72d17713c0c4c9ed89b27ba5d9a570b61429ce06a2ef893b0bf196ab0bda507d"),
    (4, 2): (15, "b868eeadfd38558377f3384359cf600d4689b64b6eeaec3df1195f0676140d9e"),
    (4, 3): (47, "ec82928788a3b71baa952a95ed2f280f7b6e8e9742e500d814a3fe393cd3e780"),
    (4, 4): (281, "f5a9bdeeedfb45546f9a83559fd640a9fa5dadefb9368a3553a79619f6d27613"),
    (5, 2): (28, "ef3f7d49e5da23784ea8afc531831fddbd416ab656dded7703703ee75cb22941"),
    (5, 3): (102, "1b1b75a079a8b10d92bd0944f752f0386895fcece388c64b5f9643944f54d078"),
    (6, 2): (66, "d65af11ad92f9c1a724ce5417de2a39d1ffd44b91497630f34c5ade5fd3cbe8e"),
    (7, 2): (120, "b6c7df3f25cd20f11227e326e48c784b0ffa3c10e294579c7946e4478aed6e42"),
    (8, 2): (253, "b011bf1cd5464257b33e623a405748617141e8b4001484dbc68e2c352666953d"),
}

# (h, d): (class count, sha256 of repr(enumerate_conf_sharp(h, d))), same source;
# it took 316 s for (3, 3) and 1889 s for (3, 4)
PINNED_SHARP = {
    (2, 1): (1, "50725c21375598262da2c8e7cb9466d4c988660b43308e67641641e6df3d62a5"),
    (2, 2): (4, "e11d7b7d8b12ff7eb942bc66329bb7e1239b1349fae43fee3d55f84bd2f55545"),
    (2, 3): (4, "2d06875541ab9bc27ce6234c72174cfb7b79444695022a72c388fa7b28b515f4"),
    (2, 4): (6, "2307fb8eb99759c493be042b52232723dd05296a20b9280d249758e848c13c17"),
    (3, 1): (1, "eb1625a8ab7b9eb6d5f3d0a0357cbd57ace97b07d3f5becc940089dfa26604bd"),
    (3, 2): (4, "647b43eb46bf7fd9eb2144d8beff81a89eb9ce98ef8751f30e54ff3247d9d490"),
    (3, 3): (10, "1b7f5d8ebd6fd86550d34c10b35c0f5a8dcc06504da02f095c9f97a5f92f2a34"),
    (3, 4): (11, "a9b9ac89c4216d4fd76a2d705b7a376dcc4403ea8bb44eb1f1c9f54539a19950"),
}


PAIRS = [((0, 0), Fraction(1, 8)), ((0, 1), Fraction(1, 8)),
         ((1, 0), Fraction(3, 8)), ((1, 1), Fraction(3, 8))]
THREE_POINTS = [(0, Fraction(1, 5)), (1, Fraction(1, 2)), (3, Fraction(3, 10))]

# sha256 of repr([(repr(c), s.d, s.p) for c in Conf(<= h, l)]) under each law,
# recorded from the two dict-of-tuples p(C) DPs that the fold at 0 replaced
# (commit 28ad7d7); None is `conf_stats`, a list `conf_stats_general`
PINNED_STATS = [
    (4, 4, None, "e595efed9937d01201c72eb1fa5949ab2106ff15db2f9da4d664df3c91b6a703"),
    (3, 4, None, "fcc2045bf9402c7d216bf756c3feefbbaf0def2603779dcac3cf5001ce51493e"),
    (3, 3, PAIRS, "c51b55482bcc3c4cad09f08fd05a4896f1ad7c249e7a0903b2f47f2b6669d26f"),
    (3, 3, THREE_POINTS, "417fc89c131a5d1bc894cac069bc32816e544725f159ecfc58a30eba271dd793"),
]

# sha256 of json.dumps(report.to_json(), sort_keys=True), same source
PINNED_REPORTS = [
    (rates.rate_bhg, (4, 3), "327189bf7503242070860f86d6a326bd26ef75a18b0d9562296df63d933adf05"),
    (rates.rate_bh_sharp, (2, 3),
     "f8beb80e9d849686d77dee853595d0f692bee0dd26fd2a20d2494ce27983c58d"),
]


def _digest(classes):
    return len(classes), hashlib.sha256(repr(classes).encode()).hexdigest()


@pytest.mark.parametrize("k,l", sorted(PINNED_CONF))
def test_enumeration_matches_pinned_class_lists(k, l):
    assert _digest(conf.enumerate_conf(k, l)) == PINNED_CONF[k, l]


@pytest.mark.parametrize("h,l,law,digest", PINNED_STATS)
def test_statistics_match_pinned_digests(h, l, law, digest):
    rows = []
    for c in conf.enumerate_conf_upto(h, l):
        s = conf.conf_stats(c) if law is None else conf.conf_stats_general(c, law)
        rows.append((repr(c), s.d, s.p))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("rate,args,digest", PINNED_REPORTS)
def test_rate_reports_match_pinned_digests(rate, args, digest):
    text = json.dumps(rate(*args).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_one_column_shapes_have_no_class():
    assert all(conf.enumerate_conf(k, 1) == [] for k in range(1, 17))


@pytest.mark.parametrize("h,d", sorted(PINNED_SHARP))
def test_sharp_family_matches_pinned_class_lists(h, d):
    assert _digest(conf.enumerate_conf_sharp(h, d)) == PINNED_SHARP[h, d]


def test_max_vectors_keeps_exactly_the_small_classes():
    for k, l in [(1, 5), (2, 4), (3, 3), (4, 3), (3, 4)]:
        full = conf.enumerate_conf(k, l)
        for m in range(1, k * l + 1):
            assert conf.enumerate_conf(k, l, max_vectors=m) == [c for c in full if c.d <= m]

def test_counts_for_two_columns_follow_partition_numbers():
    for k, pk in PARTITION_NUMBERS.items():
        assert len(conf.enumerate_conf(k, 2)) == comb(pk + 1, 2)


def test_shape_2_3_table_is_exact():
    classes = conf.enumerate_conf(2, 3)
    assert len(classes) == 7
    stats = sorted((s.d, s.p) for s in map(conf.conf_stats, classes))
    assert stats == sorted([
        (3, Fraction(1, 4)), (4, Fraction(1, 8)), (5, Fraction(1, 16)),
        (6, Fraction(5, 32)), (3, Fraction(1, 4)), (4, Fraction(1, 4)),
        (5, Fraction(3, 16))])


def test_rejected_matrix_shapes_are_absent():
    for c in conf.enumerate_conf(2, 3):
        for vec in c.vectors:
            assert min(vec) == 0  # no variable occupies every column
        cols = c.columns()
        assert len(set(cols)) == len(cols)  # no two equal columns


def test_upto_and_separable_families():
    assert len(conf.enumerate_conf_upto(2, 3)) == 8
    assert len(conf.enumerate_conf_upto(2, 2)) == 4
    sconf22 = conf.enumerate_sconf(2, 2)
    assert sconf22 == conf.enumerate_conf_upto(2, 2)  # l=2 is always separable
    sconf23 = [c for c in conf.enumerate_conf(2, 3) if c.is_separable()]
    assert len(sconf23) == 4
    assert len(conf.enumerate_sconf(1, 5)) == 1


def test_sconf_equals_the_separable_part_of_every_family_up_to_12_cells():
    for h in range(1, 13):
        for l in range(1, 12 // h + 1):
            assert conf.enumerate_sconf(h, l) == \
                [c for c in conf.enumerate_conf_upto(h, l) if c.is_separable()]
    with pytest.raises(CapExceeded, match="k\\*l = 30"):
        conf.enumerate_sconf(10, 3)
    assert conf.enumerate_sconf(0, 5) == [] and conf.enumerate_sconf(3, 1) == []


def test_an_empty_shape_has_no_classes_whatever_its_cell_count():
    # two negative arguments multiply past DEFAULT_CELL_CAP; the shape is still empty
    for k, l in ((-3, -7), (0, 5), (-1, 30), (4, 1), (-20, -1)):
        assert conf.enumerate_conf(k, l) == []
    with pytest.raises(CapExceeded, match="k\\*l = 21"):
        conf.enumerate_conf(3, 7)


def conf_stats_exhaustive(c):
    """Reference p(C): direct sum over all 2^d variable assignments."""
    l, d = c.l, c.d
    good = 0
    for bits in range(2**d):
        sums = [0] * l
        for var, vec in enumerate(c.vectors):
            if (bits >> var) & 1:
                for j in range(l):
                    sums[j] += vec[j]
        if len(set(sums)) == 1:
            good += 1
    return conf.ConfStats(d=d, p=Fraction(good, 2**d))


def test_dp_statistics_match_exhaustive_reference():
    for k, l in [(1, 2), (2, 2), (3, 2), (2, 3), (2, 4), (4, 2)]:
        for c in conf.enumerate_conf(k, l):
            assert conf.conf_stats(c) == conf_stats_exhaustive(c)


def test_statistics_for_two_column_shapes():
    by_stats = sorted((s.d, s.p) for s in map(conf.conf_stats, conf.enumerate_conf(2, 2)))
    assert by_stats == [(2, Fraction(1, 2)), (3, Fraction(1, 4)), (4, Fraction(3, 8))]


def test_general_distribution_statistics_reduce_to_uniform():
    half = Fraction(1, 2)
    for c in conf.enumerate_conf_upto(2, 3):
        general = conf.conf_stats_general(c, [(0, half), (1, half)])
        assert general == conf.conf_stats(c)


def test_general_distribution_statistics_biased_hand_value():
    # single shared variable per column pair on (ab|ab): p = sum q_a^2 over points
    c = conf.enumerate_conf(1, 2)[0]
    dist = [(0, Fraction(3, 4)), (1, Fraction(1, 4))]
    stats = conf.conf_stats_general(c, dist)
    assert stats.p == Fraction(9, 16) + Fraction(1, 16)


def conf_stats_general_exhaustive(c, dist):
    """Reference p(C) under a law: every assignment of support points to the
    d variables, with each probability read exactly as a Fraction."""
    points = [a if isinstance(a, tuple) else (a,) for a, _ in dist]
    p = Fraction(0)
    for pick in product(range(len(dist)), repeat=c.d):
        sums = {tuple(sum(vec[j] * points[i][t] for vec, i in zip(c.vectors, pick))
                      for t in range(len(points[0]))) for j in range(c.l)}
        if len(sums) == 1:
            weight = Fraction(1)
            for i in pick:
                weight *= Fraction(dist[i][1])
            p += weight
    return conf.ConfStats(d=c.d, p=p)


def test_general_distribution_statistics_match_exhaustive_reference():
    for dist in (PAIRS, THREE_POINTS):
        for c in conf.enumerate_conf_upto(2, 3):
            assert conf.conf_stats_general(c, dist) == conf_stats_general_exhaustive(c, dist)


def test_general_statistics_on_awkward_laws():
    no_zero_point = [(1, Fraction(1, 3)), (3, Fraction(2, 3))]
    zero_mass_pair = [(0, Fraction(1, 2)), (10**18, Fraction(0)), (5, Fraction(1, 2))]
    float_law = [(0, 0.1), (1, 0.3), (3, 0.6)]
    float_pairs = [((0, 0), 0.2), ((0, 1), 0.0), ((1, 0), 0.35), ((1, 1), 0.45)]
    # four variables against one: on {1, 3} the column sums can never meet
    unequal_columns = conf.Configuration(((0, 1),) + ((1, 0),) * 4)
    for c in conf.enumerate_conf_upto(2, 3) + [unequal_columns]:
        for dist in (no_zero_point, zero_mass_pair):
            assert conf.conf_stats_general(c, dist) == conf_stats_general_exhaustive(c, dist)
        for dist in (float_law, float_pairs):
            p = conf.conf_stats_general(c, dist).p
            exact = conf_stats_general_exhaustive(c, dist).p
            assert isinstance(p, float)
            assert abs(p - exact) <= 1e-12 * exact


def test_general_statistics_cap_is_checked_before_any_state_array(monkeypatch):
    c = conf.cmax(2, 2)  # d = 4; with n0 = 2, d*n0 = 8
    # no dense array could hold the column differences this support reaches
    # (its coordinates have gcd 1, so dividing them by it does not bring them
    # close), and a fold over them raised ValueError or MemoryError; the
    # halves of the join hold 9 sums each, on Python-int keys
    far = [((0, 0), Fraction(1, 2)), ((1, 1), Fraction(1, 4)),
           ((10**18, 10**18), Fraction(1, 4))]
    _cold()
    with monkeypatch.context() as m:
        m.setattr(ent, "DEFAULT_SUPPORT_CAP", 2)
        # refused at the empty sum, before a half draws its first vector
        with pytest.raises(CapExceeded, match="half of 1 sums times 3 points exceeds cap 2"):
            conf.conf_stats_general(c, far)
    assert _dp_runs() == 0
    assert conf.conf_stats_general(c, far) == conf_stats_general_exhaustive(c, far)


@pytest.mark.parametrize("dist", [
    [(0, Fraction(-1, 2)), (1, Fraction(3, 2))],  # returned p = 59/8
    [(0, Fraction(1, 3)), (1, Fraction(1, 3))],  # returned p = 2/27
    [(0, 0.25), (1, 0.25)],
    [],  # IndexError
    [((0, 0), Fraction(1, 2)), ((1,), Fraction(1, 2))],  # IndexError
], ids=["negative", "short", "short-float", "empty", "ragged"])
def test_general_statistics_refuse_what_is_not_a_law(dist):
    with pytest.raises(InvalidDistribution):
        conf.conf_stats_general(conf.cmax(2, 2), dist)


def test_general_statistics_read_float_totals_within_the_tolerance():
    # 0.1 and 0.9 read as binary fractions sum to 1 + 2^-55, which an exact test refuses
    exact = [(0, Fraction(0.1)), (1, Fraction(0.9))]
    assert sum(p for _, p in exact) == Fraction(36028797018963969, 36028797018963968)
    c = conf.cmax(2, 2)
    as_float = conf.conf_stats_general(c, [(0, 0.1), (1, 0.9)]).p
    as_fraction = conf.conf_stats_general(c, exact).p
    assert type(as_float) is float and as_float == float(as_fraction) > 0
    [stats] = conf.precompute_stats([c], [(0, 0.1), (1, 0.9)])  # exact, as the rate tables read it
    assert stats == conf.ConfStats(c.d, as_fraction) and float(stats.p) == as_float
    report = rates.rate_bhg_distribution(2, 1, from_probs([0.1, 0.9]))
    assert report.rate > 0 and type(report.table[0].p) is Fraction


def test_cmax_and_closed_form_probability():
    _cold()
    started = time.monotonic()
    # d = 26 and d = 60 too: both readers have one limit, the join's half cap
    for h, g in [(1, 1), (2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (13, 1), (30, 1)]:
        c = conf.cmax(h, g + 1)
        assert c.d == h * (g + 1)
        assert conf.conf_stats(c).p == conf.conf_stats_general(c, uniform_bits(1).items).p \
            == conf.cmax_p_closed(h, g)
    assert time.monotonic() - started < 1
    assert conf.cmax_p_closed(2, 1) == Fraction(3, 8)
    assert conf.cmax_p_closed(1, 5) == Fraction(1, 32)
    assert conf.cmax_p_closed(2, 2) == Fraction(5, 32)


def test_general_law_at_its_largest_middle_box():
    # uniform 3-bit blocks are three independent bits, so p is p(cmax(4, 4))^3; a
    # half draws 8^8 sums, above DEFAULT_SUPPORT_CAP, of which 15,625 are distinct
    stats = conf.conf_stats_general(conf.cmax(4, 4), uniform_bits(3).items)
    assert stats.p == conf.cmax_p_closed(4, 3) ** 3


def test_general_law_boxes_follow_the_lattice_not_the_spacing():
    # the fold's boxes grew with K (0.14 s at K = 1000); each coordinate is now
    # divided by its gcd over the support, and a zero coordinate stays zero
    started = time.monotonic()
    for K in (1, 1000, 10**4, 10**12):
        law = [((0, 0), Fraction(1, 2)), ((K, K), Fraction(1, 2))]
        assert conf.conf_stats_general(conf.cmax(2, 2), law).p == Fraction(3, 8)
    assert time.monotonic() - started < 0.5
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for law, divided in [([((0, -6), half), ((0, 4), half)], [((0, -3), half), ((0, 2), half)]),
                         ([(-3, quarter), (9, 3 * quarter)], [(-1, quarter), (3, 3 * quarter)])]:
        for c in conf.enumerate_conf(2, 3):
            assert conf.conf_stats_general(c, law).p == conf.conf_stats_general(c, divided).p


def test_weights_stay_exact_past_int64():
    # a one-point support of weight W puts all W^d of a class at the zero
    # state, which int64 cells would wrap from W^d = 2^63 on
    d3, d2 = conf.cmax(1, 3).vectors, ((0, 1, 1), (1, 0, 0))
    for w in (2**21 - 1, 2**21, 2**40):
        assert conf._coinciding_weights([d3, d2], (((0,), w),)) == [w**3, w**2]
    # a law whose total weight to the power d reaches 2^63, so its weights are
    # Python ints; and uniform bits shifted past 2^62, whose sums pass int64 (so
    # its keys are Python ints) while their zeros stay those of uniform bits,
    # since every column of a class has the same sum
    family = conf.enumerate_conf_upto(1, 3) + conf.enumerate_conf(2, 3)
    heavy = [(0, Fraction(2**21 - 1, 2**21)), (1, Fraction(1, 2**21))]
    shifted = [(2**62 + 1, Fraction(1, 2)), (2**62 + 2, Fraction(1, 2))]
    for law in (heavy, shifted):
        support, denom = conf._integer_law(law)
        _cold()
        stats = conf.precompute_stats(family, law)
        assert iter(stats) is stats and list(stats) == [
            conf.ConfStats(c.d, Fraction(coinciding_weight_reference(c.vectors, support), denom**c.d))
            for c in family]
        for c in family:
            assert conf.conf_stats_general(c, law).p == \
                Fraction(coinciding_weight_reference(c.vectors, support), denom**c.d)
    assert [conf.conf_stats_general(c, shifted).p for c in family] == \
        [conf.conf_stats(c).p for c in family]
    # a class whose vectors move nothing has int64 keys beside one whose moves pass int64
    support = (((2**64 + 1,), 1), ((2**64 + 2,), 1))
    assert conf._coinciding_weights([((1, 1, 1),), ((0, 1, 1), (1, 0, 0))], support) == [2, 2]


def test_spread_laws_join_in_milliseconds():
    # a dense fold over the column differences allocated a (1, 1000001, 2000001)
    # array for the first law (MemoryError), and took 1.43 s and 435 MB for the second
    cases = [(conf.cmax(2, 3), [((0,), 1 / 3), ((1,), 1 / 3), ((10**6,), 1 / 3)]),
             (conf.cmax(3, 2), [((0,), 1 / 3), ((1,), 1 / 3), ((10**7,), 1 / 3)])]
    expected = [float(conf_stats_general_exhaustive(c, law).p) for c, law in cases]
    _cold()
    started = time.monotonic()
    assert [conf.conf_stats_general(c, law).p for c, law in cases] == expected
    assert time.monotonic() - started < 0.1


def test_a_half_past_the_support_cap_raises_before_it_is_built(monkeypatch):
    spread = [((0,), Fraction(1, 3)), ((1,), Fraction(1, 3)), ((10**6,), Fraction(1, 3))]
    _cold()
    with monkeypatch.context() as m:
        m.setattr(ent, "DEFAULT_SUPPORT_CAP", 8)
        # a half of cmax(2, 3) holds 3 distinct sums, 9 after its next draw; one
        # of cmax(4, 4) under uniform bits 5, and 10 after its next draw
        with pytest.raises(CapExceeded, match="cap 8"):
            conf.conf_stats_general(conf.cmax(2, 3), spread)
        with pytest.raises(CapExceeded, match="cap 8"):
            conf.conf_stats(conf.cmax(4, 4))
        with pytest.raises(CapExceeded, match="cap 8"):
            conf.precompute_stats(conf.enumerate_conf_upto(3, 3))
    assert _dp_runs() == 0  # nothing half-joined was kept
    assert conf.conf_stats_general(conf.cmax(2, 3), spread) == \
        conf_stats_general_exhaustive(conf.cmax(2, 3), spread)
    # under the default cap: parts 1, 2, ..., 2^41 in column 0 and 2^42 - 1 in
    # column 1 give a first half of 2^21 distinct sums, refused at 2^20 by every reader
    c = conf.Configuration(tuple(sorted([(1 << i, 0) for i in range(42)] + [(0, (1 << 42) - 1)])))
    for read in (conf.conf_stats, lambda c: conf.conf_stats_general(c, uniform_bits(1).items),
                 lambda c: conf.precompute_stats([c])):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="half of 1048576 sums times 2 points exceeds cap 1048576"):
                read(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20  # measured 64 MiB; the refused step would about double it


def test_joined_weights_on_the_edges_of_a_split(monkeypatch):
    # classes of one vector (a first half that draws nothing), of odd d, and of
    # every d from 3 to 9 at one l, joined in one call: under the default cap,
    # and under one that only lets a few classes' halves in together, so that
    # the classes of one d are joined in parts
    family = [((0, 1, 1),), ((1, 1, 1),)] + [c.vectors for c in conf.enumerate_conf_upto(3, 3)]
    assert {len(c) for c in family} == {1, *range(3, 10)}
    calls = []

    def spy(ids, *args):
        calls.append(len(ids))
        return join(ids, *args)

    join = conf._join
    monkeypatch.setattr(conf, "_join", spy)
    for support, cap in [(conf._UNIFORM_BITS, 24), ((((-2,), 1), ((1,), 1), ((3,), 2)), 128),
                         ((((0, 0), 1), ((0, 1), 1), ((1, 0), 3), ((1, 1), 3)), 512)]:
        reference = [coinciding_weight_reference(c, support) for c in family]
        for bound in (ent.DEFAULT_SUPPORT_CAP, cap):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(ent, "DEFAULT_SUPPORT_CAP", bound)
                _cold()
                assert conf._coinciding_weights(family, support) == reference
            assert len(calls) > 8 if bound == cap else len(calls) == 8  # one join per d


def test_reprs_and_columns_past_26_variables():
    c = conf.cmax(3, 9)  # 27 variables
    assert repr(c) == "Conf(yzv26|vwx|stu|pqr|mno|jkl|ghi|def|abc)"
    assert c.columns()[:2] == ((24, 25, 26), (21, 22, 23))


SHAPELESS = [  # (module, helper, args) with h < 1, g < 1 or l < 2
    (rates, "cmax_exponent", (0, 1)), (rates, "cmax_exponent", (2, 0)),
    (rates, "cmax_exponent", (1, 0)), (rates, "special_config_configuration", (2, 0)),
    (rates, "special_config_configuration", (0, 1)), (conf, "cmax", (2, 1)),
    (conf, "cmax", (0, 2)), (conf, "cmax_p_closed", (-1, 1)), (conf, "cmax_p_closed", (2, 0)),
    (random_coding, "max_verifiable_t", (0,)),
]


@pytest.mark.parametrize("module,helper,args", SHAPELESS,
                         ids=[f"{helper}{args}" for _, helper, args in SHAPELESS])
def test_class_helpers_refuse_shapes_that_do_not_exist(module, helper, args):
    # these returned 1.0, Conf(bc), Conf(ab) or 10000, or raised ZeroDivisionError,
    # IndexError (in repr) or TypeError
    with pytest.raises(InvalidParams):
        getattr(module, helper)(*args)


def test_cmax_and_one_symbol_columns_need_no_search():
    for h in range(1, 4):
        for l in range(2, 8):
            units = tuple(tuple(int(i == j) for i in range(l)) for j in range(l))
            assert conf.cmax(h, l) == conf.canonical(units * h)  # all l! column orders
    for l in range(2, 8):  # the generators that k = 1 now skips
        general = sorted(set(conf._separable(1, l, l)) | set(conf._multiplicity_free(1, l, l)))
        assert conf.enumerate_conf(1, l) == general == [conf.cmax(1, l)]
    started = time.monotonic()
    assert conf.enumerate_conf(1, 12) == [conf.cmax(1, 12)]
    assert time.monotonic() - started < 1.0
    with pytest.raises(CapExceeded):
        conf.enumerate_conf(1, 19)


def test_all_distinct_class_maximizes_root_of_p_for_two_columns():
    for h in range(1, 6):
        top = conf.cmax(h, 2)
        p_top = conf.conf_stats(top).p
        for c in conf.enumerate_conf_upto(h, 2):
            s = conf.conf_stats(c)
            # p^(1/d) <= p_top^(1/(2h))  <=>  p^(2h) <= p_top^d
            assert s.p ** (2 * h) <= p_top ** s.d


def test_all_distinct_class_maximizes_over_separable_families_even_h():
    for h in (2, 4):
        for g in (1, 2):
            top_p = conf.cmax_p_closed(h, g)
            top_d = h * (g + 1)
            for c in conf.enumerate_sconf(h, g + 1):
                s = conf.conf_stats(c)
                assert s.p ** top_d <= top_p ** s.d


def test_two_column_cmax_root_is_monotone_in_d():
    prev_p, prev_d = None, None
    for d in range(1, 65):
        p = conf.cmax_p_closed(d, 1)
        if prev_p is not None:
            # prev_p^(1/(2 prev_d)) <= p^(1/(2d))
            assert prev_p**d <= p**prev_d
        prev_p, prev_d = p, d


def test_engine_steps_and_order_blocks_do_not_change_the_classes(monkeypatch):
    # a step of 7 codes splits every batch and, from l = 4, the l! orders; a
    # 3-column table makes orders from prefixes of the first l - 3 columns
    rng = random.Random(5)
    batches = [[tuple(tuple(rng.randint(0, 3) for _ in range(l)) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 9))] for l in (1, 2, 3, 4, 5, 6) for _ in range(4)]
    monkeypatch.setattr(conf, "_STEP_CODES", 7)
    monkeypatch.setattr(conf, "_TABLE_COLUMNS", 3)
    for batch in batches:
        assert conf._canonical_all(batch) == [canonical_reference(c) for c in batch]
        for c in batch[:2]:
            assert conf.automorphism_count(conf.Configuration(c)) == automorphism_reference(c)
    for shape in [(2, 4), (3, 3)]:
        conf._shape_classes.cache_clear()  # each shape is built under the patched engine
        assert _digest(conf.enumerate_conf(*shape)) == PINNED_CONF[shape]
        assert conf._shape_classes.cache_info().misses == 1
    # engine blocks of 1 and 3 children, and levels cut into parts of about 5
    # candidate picks, put block and part boundaries inside every level
    monkeypatch.undo()
    for block, picks in [(1, conf._PICKS), (3, conf._PICKS), (3, 5)]:
        monkeypatch.setattr(conf, "_BLOCK", block)
        monkeypatch.setattr(conf, "_PICKS", picks)
        for shape in [(3, 4), (2, 5), (4, 3)]:
            conf._shape_classes.cache_clear()
            assert _digest(conf.enumerate_conf(*shape)) == PINNED_CONF[shape]
            assert conf._shape_classes.cache_info().misses == 1


def test_codes_that_would_pass_63_bits_raise():
    fits = ((2**21 - 2, 0, 1), (0, 2**21 - 2, 5))  # base 2^21 - 1: (2^21 - 1)^3 < 2^63
    assert conf.canonical(fits).vectors == canonical_reference(fits)
    assert conf.canonical(((2**62,), (7,))).vectors == ((7,), (2**62,))
    for wide in (((2**21 - 1, 0, 1),), ((3,) * 40, (0,) * 40), ((2**62, 0),)):
        with pytest.raises(CapExceeded, match="63 bits"):
            conf.canonical(wide)
        with pytest.raises(CapExceeded, match="63 bits"):
            conf.automorphism_count(conf.Configuration(wide))
    with pytest.raises(InvalidParams):
        conf.canonical(((1, -1), (0, 2)))


def _engine_fixing(c):
    """The column orders fixing c, counted by the code-block engine over all l! orders."""
    digits, places = conf._encoded([c.vectors])
    identity = np.sort(digits @ places, axis=1)
    return sum(int((codes == identity[:, None]).all(axis=2).sum())
               for _, codes in conf._sorted_codes(digits, places))


def test_unit_vector_classes_count_their_automorphisms_as_the_engine_does():
    # a class of unit vectors has k of them per column: it is cmax(k, l), and
    # the cell cap holds 31 of these, l <= 9
    units = [conf.cmax(k, l) for l in range(2, 10) for k in range(1, conf.DEFAULT_CELL_CAP // l + 1)]
    assert len(units) == 31
    for c in units:
        multiplicities = prod(factorial(m) for m in Counter(c.vectors).values())
        assert conf.automorphism_count(c) == _engine_fixing(c) * multiplicities


def test_cmax_of_seventeen_columns_counts_no_column_order(monkeypatch):
    # the engine would walk 17! = 3.6e14 column orders; E(t) of B_1[17] reads
    # Conf(<= 1, 18) = {cmax(1, 18)}, and `bhlab simulate --h 1 --g 17` hung on it
    walked = []
    monkeypatch.setattr(conf, "_sorted_codes", lambda *args: walked.append(args) or iter(()))
    assert conf.automorphism_count(conf.cmax(1, 17)) == factorial(17)
    assert random_coding.choose_t(1, 30, 17) > 1
    assert walked == []


def test_eight_columns_canonicalise_within_the_step_bound():
    # cmax(8, 8) under all 8! orders is 2,580,480 codes (20 MiB); a step holds
    # 2^18 codes, and its sorted block plus the running least fit in 8 MiB
    c = conf.cmax(8, 8)
    shuffled = tuple(v[3:] + v[:3] for v in reversed(c.vectors))
    tracemalloc.start()
    try:
        assert conf.canonical(shuffled) == c
        assert conf.automorphism_count(c) == factorial(8) * factorial(8) ** 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * conf._STEP_CODES


def test_canonicalization_is_idempotent_and_injective():
    for k, l in [(2, 2), (2, 3), (3, 2)]:
        seen = set()
        for c in conf.enumerate_conf(k, l):
            assert conf.canonical(c.vectors) == c
            assert c.vectors not in seen
            seen.add(c.vectors)


def test_automorphism_count_matches_violation_census():
    # FF(t, d) / |Aut| must equal the number of distinct violation instances
    # on t indices; count those directly for small t.
    t = 5
    for c in conf.enumerate_conf_upto(2, 2) + conf.enumerate_conf(2, 3):
        d = c.d
        instances = set()
        for assign in permutations(range(t), d):
            cols = []
            for j in range(c.l):
                col = []
                for var, vec in enumerate(c.vectors):
                    col.extend([assign[var]] * vec[j])
                cols.append(tuple(sorted(col)))
            instances.add(tuple(sorted(cols)))
        ff = 1
        for i in range(d):
            ff *= t - i
        assert ff % conf.automorphism_count(c) == 0
        assert ff // conf.automorphism_count(c) == len(instances)


def _in_sharp_family(c, h, d):
    """The B_h^#[d] definition: k <= h, d(C) >= d + 1 - h + k, and every column
    deletion leaves at most d - h + k distinct variables."""
    L = d - h + c.k
    return (c.k <= h and c.d >= L + 1
            and all(c.delete_column_distinct(j) <= L for j in range(c.l)))


def sharp_reference(h, d):
    """B_h^#[d] filtered by its definition from the loose shape scan k <= h,
    2 <= l <= d + k, k*l <= DEFAULT_CELL_CAP.  Deleting one column leaves at most
    d - h + k <= d variables and that column holds at most k, so a member has
    d(C) <= d + k, which bounds the vector count of the scan."""
    out = []
    for k in range(1, h + 1):
        for l in range(2, d + k + 1):
            if k * l > conf.DEFAULT_CELL_CAP:
                break
            out.extend(c for c in conf.enumerate_conf(k, l, max_vectors=d + k)
                       if _in_sharp_family(c, h, d))
    return sorted(out, key=lambda c: (c.k, c.l, c.vectors))


@pytest.mark.parametrize("h,d", [(h, d) for h in range(1, 4) for d in range(1, 5)] + [(2, 5)])
def test_sharp_family_matches_its_definition_over_a_loose_shape_scan(h, d):
    assert conf.enumerate_conf_sharp(h, d) == sharp_reference(h, d)


def test_sharp_family_beyond_the_cell_cap_raises():
    # (2, 20) holds cmax(1, 20) and (4, 4) the separable class 4e_1..4e_5
    # (p = 1/16); both shapes have k*l = 20 > 18
    assert _in_sharp_family(conf.cmax(1, 20), 2, 20)
    separable = conf.canonical(tuple(tuple(4 * (i == j) for i in range(5)) for j in range(5)))
    assert _in_sharp_family(separable, 4, 4) and conf.conf_stats(separable).p == Fraction(1, 16)
    for h, d in [(2, 20), (4, 4)]:
        with pytest.raises(CapExceeded, match=r"\(k, l\) = \(\d+, \d+\).*cap 18"):
            conf.enumerate_conf_sharp(h, d)


def test_sharp_family_always_holds_cmax_1_d_minus_h_plus_2():
    for h in range(1, 8):
        for d in range(h, h + 15):
            assert _in_sharp_family(conf.cmax(1, d - h + 2), h, d)
    for h, d in [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (3, 4)]:
        assert conf.cmax(1, d - h + 2) in conf.enumerate_conf_sharp(h, d)


@pytest.mark.parametrize("h,d", [(0, 0), (0, 3), (2, 0), (-1, 2)])
def test_sharp_family_rejects_degenerate_parameters(h, d):
    with pytest.raises(InvalidParams):
        conf.enumerate_conf_sharp(h, d)


def test_sharp_family_satisfies_its_defining_bounds():
    h, d = 2, 2
    family = conf.enumerate_conf_sharp(h, d)
    assert family
    for c in family:
        k = c.k
        assert 1 <= k <= h and c.l >= 2
        assert c.d >= d + 1 - h + k
        for j in range(c.l):
            assert c.delete_column_distinct(j) <= d - h + k


def test_enumeration_cap_is_enforced(monkeypatch):
    with pytest.raises(CapExceeded):
        conf.enumerate_conf(5, 5)
    # p(C)'s one limit is the join's half cap, not d: after 8 draws a half of
    # this d = 60 class merges to 9 distinct sums, which 2 points take past 16
    big = conf.canonical(tuple((1, 0) for _ in range(30)) + tuple((0, 1) for _ in range(30)))
    _cold()
    with monkeypatch.context() as m:
        m.setattr(ent, "DEFAULT_SUPPORT_CAP", 16)
        with pytest.raises(CapExceeded, match="half of 9 sums times 2 points exceeds cap 16"):
            conf.conf_stats(big)
    assert conf.conf_stats(big).p == conf.cmax_p_closed(30, 1)


def test_json_export_shape():
    c = conf.enumerate_conf(2, 2)[0]
    rec = conf.conf_to_json(c, conf.conf_stats(c))
    assert set(rec) == {"k", "l", "columns", "d", "p"}
    assert rec["k"] == 2 and rec["l"] == 2
    assert "/" in rec["p"]


# ---------------------------------------------------------------------------
# per-process memos: p(C) weights under uniform bits and each shape's classes

_JOINED = []  # the classes of each completed `_joined_weights` call since `_cold()`


@pytest.fixture(autouse=True)
def _count_joins(monkeypatch):
    join = conf._joined_weights

    def counted(classes, support):
        weights = join(classes, support)
        _JOINED.extend(classes)
        return weights

    monkeypatch.setattr(conf, "_joined_weights", counted)
    _JOINED.clear()


def _cold():
    conf._WEIGHTS.clear()
    conf._shape_classes.cache_clear()
    _JOINED.clear()


def _dp_runs():
    return len(_JOINED)


def test_each_class_runs_the_dp_once_per_process():
    _cold()
    report = rates.rate_bhg(4, 3)
    assert len(report.table) == 365
    assert _dp_runs() == 365  # optimize and table share one DP per class
    rates.rate_bhg(3, 3)  # Conf(<= 3, 4) lies inside Conf(<= 4, 4)
    assert _dp_runs() == 365


def test_a_family_is_joined_once_and_kept_beside_the_next():
    # the 24 classes of Conf(<= 3, 3) are joined together once, and the
    # optimiser's and the table's reads of each class are lookups
    _cold()
    default = rates.rate_bhg(3, 2)
    assert _dp_runs() == len(default.table) == len(conf._WEIGHTS) == 24
    conf.conf_stats(default.table[0].configuration)
    assert _dp_runs() == 24
    smaller = conf.enumerate_conf_upto(2, 4)
    assert len(rates.rate_bhg(2, 3).table) == len(smaller) == 15
    assert _dp_runs() == len(conf._WEIGHTS) == 39  # the first family is still kept
    assert rates.rate_bhg(3, 2) == default and _dp_runs() == 39


def test_uniform_weights_are_never_evicted():
    # a family past any bound a memo could have set, then another: the first
    # is read again joining nothing (an LRU memo of 16,384 entries joined
    # 3640 of its classes again)
    first = [conf.Configuration(((0, i), (i, 0))) for i in range(1, 20001)]
    _cold()
    assert {s.p for s in conf.precompute_stats(first)} == {Fraction(1, 2)}
    family = conf.enumerate_conf_upto(3, 3)
    conf.precompute_stats(family)
    assert _dp_runs() == len(first) + len(family)
    assert {s.p for s in conf.precompute_stats(first)} == {Fraction(1, 2)}
    assert _dp_runs() == len(first) + len(family)


def test_only_uniform_weights_are_kept():
    # a law other than uniform bits is joined on each read and never kept;
    # uniform bits, as rationals or floats, share the weights `conf_stats` keeps
    c = conf.cmax(1, 2)
    laws = [[(0, Fraction(w, w + 1)), (1, Fraction(1, w + 1))] for w in range(2, 52)]
    _cold()
    first = [conf.conf_stats_general(c, law).p for law in laws]
    assert [conf.conf_stats_general(c, law).p for law in laws] == first
    assert _dp_runs() == 2 * len(laws) and conf._WEIGHTS == {}
    for law in (uniform_bits(1).items, [(0, 0.5), (1, 0.5)]):
        assert conf.conf_stats_general(c, law).p == conf.conf_stats(c).p == Fraction(1, 2)
    assert _dp_runs() == 2 * len(laws) + 1 and list(conf._WEIGHTS) == [c.vectors]


def test_pins_hold_on_a_cold_and_a_warm_cache():
    _cold()
    for _ in ("cold", "warm"):
        for (k, l), pin in PINNED_CONF.items():
            assert _digest(conf.enumerate_conf(k, l)) == pin
        for (h, d), pin in PINNED_SHARP.items():
            assert _digest(conf.enumerate_conf_sharp(h, d)) == pin
        for h, l, law, digest in PINNED_STATS:
            rows = []
            for c in conf.enumerate_conf_upto(h, l):
                s = conf.conf_stats(c) if law is None else conf.conf_stats_general(c, law)
                rows.append((repr(c), s.d, s.p))
            assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_float_and_rational_laws_keep_their_types():
    points = (0, 1, 3)
    floats = list(zip(points, (0.25, 0.25, 0.5)))
    exact = list(zip(points, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))))
    c = conf.enumerate_conf(2, 3)[3]
    _cold()
    as_float = conf.conf_stats_general(c, floats)
    as_fraction = conf.conf_stats_general(c, exact)
    assert type(as_float.p) is float and type(as_fraction.p) is Fraction
    assert as_float.p == float(as_fraction.p) and as_fraction.p > 0
    # a float point is rejected whether or not the equal integer law was read
    with pytest.raises(InvalidParams):
        conf.conf_stats_general(c, [(float(a), p) for a, p in exact])


def test_caps_hold_on_a_warm_cache(monkeypatch):
    _cold()
    for _ in ("cold", "warm"):
        classes = conf.enumerate_conf(2, 3)
        conf.enumerate_conf_sharp(2, 3)
        c, unread = classes[-1], classes[0]
        read = conf.conf_stats(c).p
        conf.conf_stats_general(c, PAIRS)
        with monkeypatch.context() as m:
            m.setattr(conf, "DEFAULT_CELL_CAP", 5)
            with pytest.raises(CapExceeded):
                conf.enumerate_conf(2, 3)
            with pytest.raises(CapExceeded):
                conf.enumerate_conf_sharp(2, 3)
            # the half cap bounds every join, cold or warm: a class the memo
            # lacks is refused on both passes, one it holds is read joining nothing
            m.setattr(ent, "DEFAULT_SUPPORT_CAP", 1)
            with pytest.raises(CapExceeded, match="p\\(C\\) half"):
                conf.conf_stats(unread)
            with pytest.raises(CapExceeded, match="p\\(C\\) half"):
                conf.conf_stats_general(unread, PAIRS)
            assert conf.conf_stats(c).p == read


def test_each_call_returns_a_list_of_its_own():
    for enumerate_family, args in [(conf.enumerate_conf, (3, 3)), (conf.enumerate_conf_upto, (3, 3)),
                                   (conf.enumerate_conf_sharp, (2, 3))]:
        first = enumerate_family(*args)
        expected = list(first)
        first.reverse()
        first.append(None)
        assert enumerate_family(*args) == expected


def test_the_default_and_the_full_vector_limit_share_one_entry():
    _cold()
    classes = conf.enumerate_conf(2, 4)
    assert conf.enumerate_conf(2, 4, 8) == conf.enumerate_conf(2, 4, 100) == classes
    assert conf._shape_classes.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert len(conf.enumerate_conf(2, 4, 5)) < len(classes)  # a lower limit is its own entry
    assert conf._shape_classes.cache_info().misses == 2


def test_a_family_inside_a_built_one_grows_no_class(monkeypatch):
    _cold()
    rates.rate_bhg(4, 3)
    grown, grow = [], conf._multiplicity_free
    monkeypatch.setattr(conf, "_multiplicity_free", lambda *args: grown.append(args) or grow(*args))
    warm = rates.rate_bhg(3, 3)  # Conf(<= 3, 4) lies inside Conf(<= 4, 4)
    assert grown == []
    _cold()
    assert rates.rate_bhg(3, 3) == warm
    assert grown == [(2, 4, 8), (3, 4, 12)]


def test_a_law_is_read_once_per_family(monkeypatch):
    reads, read = [], conf._integer_law
    monkeypatch.setattr(conf, "_integer_law", lambda dist: reads.append(dist) or read(dist))
    law = from_probs([Fraction(1, 3), Fraction(2, 3)])
    report = rates.rate_bhg_distribution(3, 2, law)
    assert len(reads) == 1 and len(report.table) > 1
    reads.clear()
    assert random_coding.choose_t(2, 12, dist=law) > 1
    assert len(reads) == 1


def test_a_float_point_is_refused_once_its_integer_law_is_warm():
    exact = [(0, Fraction(1, 4)), (1, Fraction(3, 4))]
    floats = [(float(a), p) for a, p in exact]
    family = conf.enumerate_conf_upto(2, 2)
    rates.rate_bhg_distribution(2, 1, make_distribution(exact))
    for c in family:
        conf.conf_stats_general(c, exact)
    with pytest.raises(InvalidParams):  # as a Distribution would not hold it
        rates.rate_bhg_distribution(2, 1, SimpleNamespace(items=tuple(floats)))
    for c in family:
        with pytest.raises(InvalidParams):
            conf.conf_stats_general(c, floats)


def test_float_masses_keep_a_float_p_once_the_equal_rational_law_is_warm():
    exact = [(0, Fraction(1, 4)), (1, Fraction(3, 4))]
    floats = [(0, 0.25), (1, 0.75)]
    family = conf.enumerate_conf_upto(2, 3)
    rates.rate_bhg_distribution(2, 2, make_distribution(exact))
    for c in family:
        as_fraction, as_float = conf.conf_stats_general(c, exact), conf.conf_stats_general(c, floats)
        assert type(as_fraction.p) is Fraction and type(as_float.p) is float
        assert as_float.p == float(as_fraction.p)
