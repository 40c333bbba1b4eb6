"""Property oracles against an independent dictionary-based reference."""

import operator
import random
import sys
import threading
import tracemalloc
from itertools import combinations, combinations_with_replacement, count
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlab import oracle
from bhlab.constructions import (bose_chowla, field_vectors_to_binary, make_binary_code,
                                 power_map, residues_to_binary)
from bhlab.entropy import uniform_bits
from bhlab.errors import CapExceeded, InvalidParams
from bhlab.random_coding import SamplingPlan, _sample_bits, prune
from helpers import encode_binary_words


# ---------------------------------------------------------------------------
# independent reference: group every multiset by its sum in one dictionary

def ref_groups(elements, k, add):
    groups = {}
    for combo in combinations_with_replacement(range(len(elements)), k):
        acc = elements[combo[0]]
        for i in combo[1:]:
            acc = add(acc, elements[i])
        groups.setdefault(acc, []).append(combo)
    return groups


def ref_is_bhg(elements, h, g, add):
    return all(len(cols) <= g for cols in ref_groups(elements, h, add).values())


def ref_is_bh_sharp(elements, h, d, add):
    for cols in ref_groups(elements, h, add).values():
        support = set()
        for c in cols:
            support.update(c)
        if len(support) > d:
            return False
    return True


def ref_minimal_violations(elements, h, add):
    out = []
    for k in range(1, h + 1):
        for s, cols in ref_groups(elements, k, add).items():
            for a, b in combinations(cols, 2):
                if set(a).isdisjoint(b):
                    out.append((k, a, b))
    return sorted(out)


def int_add(a, b):
    return a + b


def random_words(rng, count, n):
    return [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(count)]


# ---------------------------------------------------------------------------

def test_encode_binary_words_is_carry_free():
    rng = random.Random(5)
    for h in (2, 3):
        words = list({w for w in random_words(rng, 12, 6)})
        enc, fits = encode_binary_words(words, h)
        assert fits
        # multiset word-sums collide exactly when encoded integer sums collide
        for combo1 in combinations_with_replacement(range(len(words)), h):
            for combo2 in combinations_with_replacement(range(len(words)), h):
                s1 = tuple(sum(words[i][j] for i in combo1) for j in range(6))
                s2 = tuple(sum(words[i][j] for i in combo2) for j in range(6))
                e1 = sum(enc[i] for i in combo1)
                e2 = sum(enc[i] for i in combo2)
                assert (s1 == s2) == (e1 == e2)


def test_encode_binary_words_uint64_flag():
    ones = [tuple([1] * 40)]
    assert encode_binary_words(ones, 2)[1]  # 2*(3^40-1)/2 < 2^64
    ones = [tuple([1] * 41)]
    assert not encode_binary_words(ones, 2)[1]


def test_known_failure_is_the_textbook_violation():
    words = [(0, 0), (0, 1), (1, 0), (1, 1)]
    enc, _ = encode_binary_words(words, 2)
    v = oracle.verify_bh(enc, 2)
    assert v is not None and v.k == 2
    assert v.columns == ((0, 3), (1, 2))  # 00+11 = 01+10
    mv = oracle.find_minimal_violations(enc, 2)
    assert [(x.k, x.columns) for x in mv] == [(2, ((0, 3), (1, 2)))]


def test_bose_chowla_sets_pass_and_perturbed_sets_fail():
    for q, h in [(5, 2), (7, 2), (3, 3)]:
        s = bose_chowla(q, h)
        add = oracle.residue_add(s.modulus)
        assert oracle.verify_bh(list(s.elements), h, add=add) is None
        code = residues_to_binary(s)
        assert oracle.verify_code_bh(code, h) is None
    # duplicate sums appear once an arithmetic progression sneaks in
    bad = [0, 1, 2, 3]
    v = oracle.verify_bh(bad, 2)
    assert v is not None and v.render(bad) == ((0, 2), (1, 1))  # 0+2 = 1+1


@pytest.mark.parametrize("h", [2, 3])
def test_verdicts_match_reference_on_random_codes(h):
    rng = random.Random(100 + h)
    for trial in range(30):
        m = rng.randint(2, 9)
        words = sorted({tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(m)})
        enc, _ = encode_binary_words(words, h)
        for g in (1, 2, 3):
            got = oracle.verify_bhg(enc, h, g)
            assert (got is None) == ref_is_bhg(enc, h, g, int_add)
        for d in range(h, 2 * h + 3):
            got = oracle.verify_bh_sharp(enc, h, d)
            assert (got is None) == ref_is_bh_sharp(enc, h, d, int_add)


def test_verify_bhg_with_g1_agrees_with_verify_bh():
    rng = random.Random(77)
    for trial in range(20):
        elems = sorted({rng.randint(0, 40) for _ in range(rng.randint(2, 10))})
        a = oracle.verify_bh(elems, 2)
        b = oracle.verify_bhg(elems, 2, 1)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b


def test_pass_is_monotone_in_g_and_d():
    rng = random.Random(13)
    for trial in range(20):
        elems = sorted({rng.randint(0, 30) for _ in range(rng.randint(3, 9))})
        for g in (1, 2, 3):
            if oracle.verify_bhg(elems, 2, g) is None:
                assert oracle.verify_bhg(elems, 2, g + 1) is None
        for d in (2, 3, 4, 5):
            if oracle.verify_bh_sharp(elems, 2, d) is None:
                assert oracle.verify_bh_sharp(elems, 2, d + 1) is None


def test_minimal_violations_match_reference():
    rng = random.Random(9)
    for h in (2, 3):
        for trial in range(12):
            m = rng.randint(2, 8)
            elems = [rng.randint(0, 12) for _ in range(m)]  # duplicates allowed
            got = sorted((v.k, v.columns[0], v.columns[1])
                         for v in oracle.find_minimal_violations(elems, h))
            assert got == ref_minimal_violations(elems, h, int_add)


def test_minimal_bhg_violations_have_no_common_index():
    elems = [0, 1, 2, 3, 4]
    for v in oracle.find_minimal_violations_bhg(elems, 2, 2):
        common = set(v.columns[0])
        for col in v.columns[1:]:
            common &= set(col)
        assert not common
        assert len(v.columns) == 3
    # 0+4 = 1+3 = 2+2 is the first k=2 triple
    triples = [v for v in oracle.find_minimal_violations_bhg(elems, 2, 2) if v.k == 2]
    assert ((0, 4), (1, 3), (2, 2)) in [v.columns for v in triples]


# exact reference verdicts, read from `ref_groups` (lists in lex order)

def ref_verify_bhg(elements, h, g, add):
    hit = [(cols[:g + 1], s) for s, cols in ref_groups(elements, h, add).items()
           if len(cols) > g]
    if not hit:
        return None
    cols, s = min(hit)
    return oracle.Violation(k=h, columns=tuple(cols), sum_value=s)


def ref_verify_bh_sharp(elements, h, d, add):
    groups = ref_groups(elements, h, add)
    for s in sorted((s for s in groups if len(groups[s]) > 1), key=lambda s: groups[s][:2]):
        if len({i for col in groups[s] for i in col}) > d:
            return oracle.Violation(k=h, columns=tuple(groups[s]), sum_value=s)
    return None


def ref_minimal_bhg(elements, h, g, add):
    out = []
    for k in range(1, h + 1):
        for s, cols in ref_groups(elements, k, add).items():
            out.extend(oracle.Violation(k=k, columns=combo, sum_value=s)
                       for combo in combinations(cols, g + 1)
                       if not set.intersection(*map(set, combo)))
    return sorted(out, key=lambda v: (v.k, v.columns))


def _ints(rng, m, h):
    return [rng.randint(-6, 9) for _ in range(m)]


def _bit_words(rng, m, h):
    words = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(m)]
    return encode_binary_words(words, h)[0]


def _long_bit_words(rng, m, h):  # 48 bits: (h+1)^47 > 2^64 for every h >= 2, two columns
    words = [(rng.randint(0, 1),) * 2 + (1,) * 44 + (rng.randint(0, 1), rng.randint(0, 1))
             for _ in range(m)]
    return np.array(words, np.uint8)


def reference_input(elems, add, h):
    """(elements, add) for the reference: a bit matrix as the words' base-(h+1)
    integers, whose sums are the ones the oracle reports for it."""
    if add is oracle._BIT_WORDS:
        return encode_binary_words(elems.tolist(), h)[0], operator.add
    return elems, add


def pick(elems, indices):
    """Some elements, of a list or of the rows of a bit matrix."""
    return elems[indices] if isinstance(elems, np.ndarray) else [elems[i] for i in indices]


AMBIENTS = {  # name -> (element sampler, add)
    "ints": (_ints, operator.add),
    "bit-words": (_bit_words, operator.add),
    "long-bit-words": (_long_bit_words, oracle._BIT_WORDS),
    "residues": (lambda rng, m, h: [rng.randrange(7) for _ in range(m)], oracle.residue_add(7)),
    "residues-12": (lambda rng, m, h: [rng.randrange(12) for _ in range(m)],
                    oracle.residue_add(12)),  # composite: classes mod 2, 3, 4 or 6
    "z3^2": (lambda rng, m, h: [(rng.randrange(3), rng.randrange(3)) for _ in range(m)],
             oracle.vector_mod_add(3)),
    "z5^30": (lambda rng, m, h: [(rng.randrange(5), rng.randrange(2), 1) * 10 for _ in range(m)],
              oracle.vector_mod_add(5)),  # 30 lanes of 5 bits: a key mixes three words
    # 11 lanes of 6 bits: two words, whose lanes 0 hold coordinates 0 and 1, and a tail
    # that wraps mod 12 in most lanes; classes mod 2, 3, 4 or 6
    "z12^11": (lambda rng, m, h: [(rng.randrange(3), rng.randrange(3)) + tuple(range(11, 2, -1))
                                  for _ in range(m)], oracle.vector_mod_add(12)),
}


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_engine_matches_brute_force_reference(ambient):
    """Collision-rich inputs, every verdict and violation list compared exactly
    (columns and sum value) with the itertools reference."""
    sample, add = AMBIENTS[ambient]
    rng = random.Random(ambient)
    for h in (1, 2, 3, 4):
        for trial in range(4):
            elems = sample(rng, rng.randint(1, 8 if h < 4 else 6), h)
            ref, ref_add = reference_input(elems, add, h)
            for g in (1, 2, 3, 4):
                assert (oracle.verify_bhg(elems, h, g, add=add)
                        == ref_verify_bhg(ref, h, g, ref_add))
                assert (oracle.find_minimal_violations_bhg(elems, h, g, add=add)
                        == ref_minimal_bhg(ref, h, g, ref_add))
            assert oracle.verify_bh(elems, h, add=add) == ref_verify_bhg(ref, h, 1, ref_add)
            assert (oracle.find_minimal_violations(elems, h, add=add)
                    == ref_minimal_bhg(ref, h, 1, ref_add))
            for d in range(h, 2 * h + 2):
                assert (oracle.verify_bh_sharp(elems, h, d, add=add)
                        == ref_verify_bh_sharp(ref, h, d, ref_add))


LARGER = pytest.mark.parametrize("h, m, sample, add", [
    (2, 120, lambda rng: rng.randint(0, 60), operator.add),  # every sum hit ~60 times
    (2, 400, lambda rng: rng.randint(0, 80_000), operator.add),
    (3, 80, lambda rng: rng.randint(-30_000, 30_000), operator.add),
    (3, 80, lambda rng: (rng.randrange(300), rng.randrange(300)), oracle.vector_mod_add(300)),
], ids=["dense-ints-h2", "ints-h2", "ints-h3", "z300^2-h3"])


@LARGER
def test_engine_matches_reference_on_larger_inputs(h, m, sample, add):
    """A dense case, and levels of 80,000+ multisets generated in several blocks."""
    rng = random.Random(m)
    elems = [sample(rng) for _ in range(m)]
    for g in (1, 2):
        assert oracle.verify_bhg(elems, h, g, add=add) == ref_verify_bhg(elems, h, g, add)
    assert oracle.find_minimal_violations(elems, h, add=add) == ref_minimal_bhg(elems, h, 1, add)


@pytest.fixture
def small_buckets(monkeypatch):
    """Buckets and blocks of a few rows, so that levels split into B > 1 classes."""
    monkeypatch.setattr(oracle, "_BUCKET_KEYS", 1)
    monkeypatch.setattr(oracle, "_CHUNK", 4)


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_bucketed_engine_matches_brute_force_reference(ambient, small_buckets):
    test_engine_matches_brute_force_reference(ambient)
    sample, add = AMBIENTS[ambient]
    elems = sample(random.Random(1), 8, 2)
    assert oracle._Sums(elems, add, 2).B > 1
    for elems in (pick(elems, []), pick(elems, [0]), pick(elems, [0, 0])):
        for h in (1, 2, 3):
            ref, ref_add = reference_input(elems, add, h)
            assert oracle.verify_bh(elems, h, add=add) == ref_verify_bhg(ref, h, 1, ref_add)
            assert (oracle.find_minimal_violations(elems, h, add=add)
                    == ref_minimal_bhg(ref, h, 1, ref_add))


@LARGER
def test_bucketed_engine_matches_reference_on_larger_inputs(h, m, sample, add, monkeypatch):
    monkeypatch.setattr(oracle, "_BUCKET_KEYS", 2**8)
    rng = random.Random(m)
    assert oracle._Sums([sample(rng) for _ in range(m)], add, h).B > 1
    test_engine_matches_reference_on_larger_inputs(h, m, sample, add)


def test_buckets_smaller_than_the_threshold_are_skipped():
    """Default sizes, B = 8: buckets of fewer than g + 1 sums once raised a
    shape-mismatch ValueError in the duplicate scan."""
    elems = [4 * i for i in range(2046)] + [1, 5]  # top buckets 2, 6 hold 1+1, 5+5 and 1+5
    assert oracle._Sums(elems, operator.add, 2).B == 8
    assert oracle.verify_bhg(elems, 2, 4) == oracle.Violation(
        k=2, columns=((0, 8), (1, 7), (2, 6), (3, 5), (4, 4)), sum_value=32)
    p = 2053  # 4 * (2 p i + (i^2 mod p)) is a Sidon set; top bucket 2 holds 1+1, 1+9, 5+5, 9+9
    elems = [4 * (2 * p * i + i * i % p) for i in range(2045)] + [1, 5, 9]
    assert oracle.verify_bhg(elems, 2, 4) is None
    assert oracle.find_minimal_violations_bhg(elems, 2, 4) == []


def test_sums_classes_follow_the_ambient(monkeypatch):
    monkeypatch.setattr(oracle, "_BUCKET_KEYS", 1)
    assert oracle._Sums(list(range(20)), operator.add, 2).B == 16  # a power of two <= m
    assert oracle._Sums(list(range(12)), oracle.residue_add(12), 2).B == 6  # divisor of 12 <= 8
    assert oracle._Sums(list(range(20)), oracle.residue_add(7), 2).B == 7
    assert oracle._Sums(list(range(20)), oracle.residue_add(17), 2).B == 1  # prime above 16
    monkeypatch.setattr(oracle, "_BUCKET_KEYS", 2**19)
    assert oracle._Sums(list(range(1000)), operator.add, 2).B == 1  # 500,500 pair sums


def plan_reference(sums):
    """`_Sums._plan` as a loop over class pairs, parts and pieces: bucket by
    bucket, the blocks (rows, parts) of the level above the held one."""
    B, start, (_, goff, order) = sums.B, sums.start.tolist(), sums.grouping
    goff = list(goff)

    def count(c, numbers):
        if order is None:
            return np.clip(numbers - goff[c], 0, goff[c + 1] - goff[c])
        return np.searchsorted(order[goff[c]:goff[c + 1]], numbers)
    last = sums.ends[sums.k]
    bounds = np.append(0, last)[sums.start]
    below = [count(c, bounds).tolist() for c in range(B)]
    classes = [a for a in range(B) if start[a] < start[a + 1]]
    plan = []
    for r in range(B):
        parts = []
        for a in classes:
            c, s, e = (r - a) % B, start[a], start[a + 1]
            g0, p, p1 = goff[c], below[c][a], below[c][a + 1]
            if p:
                step = max(1, oracle._CHUNK // p)
                parts.extend((i, min(i + step, e), g0, g0 + p) for i in range(s, e, step))
            if p1 > p:
                ends = count(c, last[s:e]).tolist()
                parts.extend((j, j + 1, g0 + p, g0 + q)
                             for j, q in zip(range(s, e), ends) if q > p)
        blocks = []
        for e0, e1, g0, g1 in parts:
            for lo in range(g0, g1, oracle._CHUNK):
                hi = min(lo + oracle._CHUNK, g1)
                if not blocks or blocks[-1][0] >= oracle._CHUNK:
                    blocks.append([0, []])
                blocks[-1][0] += (e1 - e0) * (hi - lo)
                blocks[-1][1].append((e0, e1, lo, hi))
        plan.append([(size, np.array(parts)) for size, parts in blocks])
    return plan


def planned_rows(sums, plan):
    """Per bucket, the sorted colex row numbers that a plan's blocks decode to."""
    return [np.sort(np.concatenate([sums._numbers(parts, np.arange(size))
                                    for size, parts in blocks] or [np.zeros(0, int)]))
            for blocks in plan]


def check_plan(elems, add, h):
    """The array plan of the top level decodes, bucket by bucket, to the rows
    of the loop plan, lists every top-level row once, and keeps blocks below
    2 * _CHUNK rows."""
    sums = oracle._Sums(elems, add, h)
    while sums.k < h - 1:
        sums._advance()
    sums._group()
    sums._plan()
    got, expected = planned_rows(sums, sums.plan), planned_rows(sums, plan_reference(sums))
    assert len(got) == len(expected) == sums.B
    for rows, reference in zip(got, expected):
        assert np.array_equal(rows, reference)
    top = oracle.multiset_count(len(elems), h)
    assert np.array_equal(np.sort(np.concatenate(got)), np.arange(top))  # each row once
    for blocks in sums.plan:
        for size, parts in blocks:
            assert size == sum((e1 - e0) * (g1 - g0) for e0, e1, g0, g1 in parts.tolist())
            assert 0 < size < 2 * oracle._CHUNK
    return sums


@pytest.mark.parametrize("ambient", sorted(AMBIENTS))
def test_array_plan_matches_the_loop_plan(ambient, small_buckets):
    sample, add = AMBIENTS[ambient]
    rng = random.Random(ambient)
    for h in (2, 3, 4):
        for trial in range(4):
            check_plan(sample(rng, rng.randint(1, 8 if h < 4 else 6), h), add, h)


@pytest.mark.parametrize("B, m, h, chunk", [  # the plan is built _CHUNK // B buckets at a time
    (1, 120, 2, 2**6), (1, 60, 3, 2**6), (8, 8, 2, 2**6), (8, 12, 3, 2**4),
    (128, 128, 2, 2**10), (128, 128, 3, 2**6), (1024, 1024, 2, 2**6)])
def test_array_plan_matches_the_loop_plan_at_scale(B, m, h, chunk, monkeypatch):
    monkeypatch.setattr(oracle, "_BUCKET_KEYS", 1 if B > 1 else 2**19)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rng = random.Random(B)
    assert check_plan([rng.randrange(4 * m * m) for _ in range(m)], operator.add, h).B == B


POOL_AMBIENTS = {  # collision-rich, so that duplicated sums fall in several top buckets
    "integers": (lambda rng: [rng.randrange(40) for _ in range(24)], operator.add),
    "residues": (lambda rng: [rng.randrange(32) for _ in range(24)], oracle.residue_add(32)),
    "vectors": (lambda rng: [(rng.randrange(4), rng.randrange(4)) for _ in range(24)],
                oracle.vector_mod_add(4)),
    "bit-words": (lambda rng: np.array([[rng.randrange(2) for _ in range(6)] for _ in range(24)],
                                       np.uint8), oracle._BIT_WORDS),
    "long-bit-words": (lambda rng: np.array(  # 48 bits: two uint64 columns at h = 2 and 3
        [[rng.randrange(2) for _ in range(2)] + [1, 0] * 20 + [rng.randrange(2) for _ in range(6)]
         for _ in range(24)], np.uint8), oracle._BIT_WORDS),
}


@pytest.mark.parametrize("ambient", sorted(POOL_AMBIENTS))
def test_pass_one_threads_do_not_change_the_output(ambient, small_buckets, monkeypatch):
    """Violations and groups, in order, are the same on 1, 2 and 3 threads."""
    sample, add = POOL_AMBIENTS[ambient]
    elems = sample(random.Random(ambient))
    duplicated, scan = [], oracle._Sums._duplicated

    def recording(self, k, r, *args):
        dup = scan(self, k, r, *args)
        if k == self.h and len(dup):
            duplicated.append(r)
        return dup
    monkeypatch.setattr(oracle._Sums, "_duplicated", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often: two sharing a key buffer would show
    try:
        for h, g in ((2, 1), (2, 2), (3, 1)):
            results = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(oracle, "_WORKERS", workers)
                duplicated.clear()
                violations, groups = oracle._minimal_violations(elems, h, g, add=add)
                results.append((violations, list(groups.items())))
                assert len(set(duplicated)) > 1  # pass two runs on several top buckets
            assert results[0][0] and results[1] == results[0] and results[2] == results[0]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing_call", [0, 3, 20])
def test_pass_one_errors_reach_the_caller(failing_call, small_buckets, monkeypatch):
    """An error in a pass-one thread is raised to the caller, and the pool's
    threads are gone when it is."""
    monkeypatch.setattr(oracle, "_WORKERS", 2)
    calls, rows, raised_on = count(), oracle._Sums._rows, []

    def failing(self, *args):
        if next(calls) == failing_call:
            raised_on.append(threading.current_thread())
            raise MemoryError("row generation failed")
        return rows(self, *args)
    monkeypatch.setattr(oracle._Sums, "_rows", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="row generation failed"):
        oracle.verify_bh(list(range(0, 120, 3)), 2)
    assert raised_on[0] is not threading.main_thread()
    assert threading.active_count() == before


Q32 = 2**38 + 5  # > 2^32 and divisible by 3: residues fall in 3 classes, so 3 top buckets
HIGH_AMBIENTS = {  # name -> (s -> an element with s * 2^32 in it, add)
    "integers": (lambda s: s << 32, operator.add),
    "z_q": (lambda s: (Q32 - (s << 32),), oracle.vector_mod_add(Q32)),
    "z_q^2": (lambda s: (Q32 - (s << 32), 0), oracle.vector_mod_add(Q32)),  # a mixed key
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ambient", sorted(HIGH_AMBIENTS))
def test_32_bit_key_collisions_never_reach_an_answer(ambient, workers, small_buckets,
                                                     monkeypatch):
    """At g >= 2 pass one keeps the low 32 bits of each key.  Here every pair
    sum shares them: s * 2^32 for the integers, and -s * 2^32 mod q, whose
    sums all wrap, for the residues (low 32 bits q mod 2^32 once reduced, 2q
    mod 2^32 if they were not).  Every bucket is flagged and answers stay exact."""
    monkeypatch.setattr(oracle, "_WORKERS", workers)
    element, add = HIGH_AMBIENTS[ambient]
    flagged, scan = [], oracle._Sums._duplicated

    def recording(self, k, r, t, *args):
        dup = scan(self, k, r, t, *args)
        if k == self.h and t >= 2:
            flagged.append(len(dup) > 0)
        return dup
    monkeypatch.setattr(oracle._Sums, "_duplicated", recording)
    # Sidon set {0, 1, 3, 7, 12, 20} plus 4, shifted by 1: sums 9, 10 and 26 are
    # hit twice, none three times
    elems = [element(s) for s in (1, 2, 4, 5, 8, 13, 21)]
    assert oracle.verify_bhg(elems, 2, 2, add=add) is None
    assert flagged and all(flagged)
    assert oracle.find_minimal_violations_bhg(elems, 2, 2, add=add) == []
    assert ref_verify_bhg(elems, 2, 1, add) is not None
    assert oracle.verify_bh(elems, 2, add=add) == ref_verify_bhg(elems, 2, 1, add)
    for g in (1, 2):
        assert (oracle.find_minimal_violations_bhg(elems, 2, g, add=add)
                == ref_minimal_bhg(elems, 2, g, add))
    elems.append(element(7))  # 1 + 8 = 2 + 7 = 4 + 5
    violation = oracle.verify_bhg(elems, 2, 2, add=add)
    assert violation == ref_verify_bhg(elems, 2, 2, add)
    assert violation.columns == ((0, 4), (1, 7), (2, 3))
    assert violation.sum_value == add(element(1), element(8))
    assert (oracle.find_minimal_violations_bhg(elems, 2, 2, add=add)
            == ref_minimal_bhg(elems, 2, 2, add) == [violation])
    if ambient != "integers":  # all offsets are 0 mod 2^32: one class, no pool
        assert oracle._Sums(elems, add, 2).B == 3


def test_64_bit_key_collisions_never_reach_an_answer(monkeypatch):
    """Distinct rows may share their whole uint64 key: (2 * _MIX, 0), (0, 2)
    and (-3 * _MIX, 5), mod 2^64, all have key 2 * _MIX.  Pass one flags it
    at level 1, at full width (g = 1) and truncated (g = 2), and pass two,
    which groups the rows themselves, finds no equal sums there."""
    q, mix = 2**62 - 1, oracle._MIX
    add = oracle.vector_mod_add(q)
    elems = [(2 * mix % 2**64, 0), (0, 2), (-3 * mix % 2**64, 5)]
    assert all(0 <= x < q for e in elems for x in e)  # reduced: the rows are these vectors
    sums = oracle._Sums(elems, add, 1)
    assert len(set(oracle._key(sums.first).tolist())) == 1
    flagged, scan = [], oracle._Sums._duplicated

    def recording(self, k, r, t, *args):
        dup = scan(self, k, r, t, *args)
        if k == 1:
            flagged.append(len(dup) > 0)
        return dup
    monkeypatch.setattr(oracle._Sums, "_duplicated", recording)
    # the first pair, then all three: at g = 2 a flag needs three rows
    for population, gs in ((elems[:2], (1,)), (elems, (1, 2))):
        flagged.clear()
        assert oracle.verify_bh(population, 1, add=add) is None
        assert ref_verify_bhg(population, 1, 1, add) is None
        assert flagged == [True]
        for g in gs:
            flagged.clear()
            assert (oracle.find_minimal_violations_bhg(population, 2, g, add=add)
                    == ref_minimal_bhg(population, 2, g, add))
            assert flagged == [True]


def _column_digit_words(rng, m, h):
    """48-bit words whose random bits include digit 0 of column 0 (bit 47) and
    of column 1 at h = 2 and 3 (bits 7 and 15), so that with _MIX = 1 distinct
    words share keys."""
    words = np.ones((m, 48), np.uint8)
    words[:, [0, 7, 15, 46, 47]] = [[rng.randrange(2) for _ in range(5)] for _ in range(m)]
    return words


@pytest.mark.parametrize("ambient", ["long-bit-words", "z12^11", "z5^30"])
def test_rows_that_share_a_key_keep_their_own_sums(ambient, monkeypatch):
    """With _MIX = 1 a key is the sum of a row's words, so distinct rows of
    several words share keys at every level; pass two groups the exact sums
    it rebuilds from the multisets, and verdicts and violation lists stay the
    reference's."""
    monkeypatch.setattr(oracle, "_MIX", 1)
    sample, add = AMBIENTS[ambient]
    if ambient == "long-bit-words":
        sample = _column_digit_words
    rng, shared = random.Random(ambient), 0
    for h in (1, 2, 3):
        for trial in range(4):
            elems = sample(rng, rng.randint(2, 8), h)
            ref, ref_add = reference_input(elems, add, h)
            first = oracle._Sums(elems, add, h).first
            rows, keys = set(map(tuple, first.T.tolist())), set(oracle._key(first).tolist())
            shared += len(rows) > len(keys)
            for g in (1, 2):
                assert (oracle.verify_bhg(elems, h, g, add=add)
                        == ref_verify_bhg(ref, h, g, ref_add))
                assert (oracle.find_minimal_violations_bhg(elems, h, g, add=add)
                        == ref_minimal_bhg(ref, h, g, ref_add))
    assert shared  # some distinct elements share a key


def _multiples(q, width, scalars):
    """A sampler of vectors s * v over Z_q (v[0] = 1, its other coordinates
    drawn once per sample) for scalars s drawn from `scalars`: two multisets
    of one size have equal sums iff their scalars' sums agree mod q, so sums
    coincide often and every lane wraps; width None draws residues s."""
    def sample(rng, m):
        v = [1] + [rng.randrange(q) for _ in range((width or 1) - 1)]
        vectors = [tuple(s * x % q for x in v) for s in (rng.choice(scalars) for _ in range(m))]
        return vectors if width else [x for x, in vectors]
    return sample


Q62 = 2**62 - 1  # the largest modulus: 2q - 2 < 2^63, one 64-bit lane
LANE_EDGES = {  # name -> (q, coordinates or None for residues, scalars, words per row)
    "residues-1": (1, None, (0, 1, 2), 1),
    "z1^3": (1, 3, (0, 1), 1),
    "residues-2": (2, None, (0, 1), 1),
    "z2^21": (2, 21, (0, 1), 1),  # 21 lanes of 3 bits: 63 bits
    "z2^22": (2, 22, (0, 1), 2),
    "residues-q62": (Q62, None, (0, 1, 2, 3, Q62 - 1, Q62 - 2), 1),
    "z_q62^2": (Q62, 2, (0, 1, 2, 3, Q62 - 1, Q62 - 2), 2),
    "z13^10": (13, 10, (0, 1, 2, 11, 12), 1),  # 10 lanes of 6 bits: 60 bits
    "z13^11": (13, 11, (0, 1, 2, 11, 12), 2),  # 66 bits
}


@pytest.mark.parametrize("mix", [oracle._MIX, 1], ids=["mix", "mix-1"])
@pytest.mark.parametrize("ambient", sorted(LANE_EDGES))
def test_lane_edges_match_the_reference(ambient, mix, monkeypatch):
    """Moduli 1 and 2, a residue that fills a 64-bit lane, and vectors that
    just fill one word or need a second: rows take the expected number of
    words, and verdicts and violation lists are the reference's, with keys
    mixed by _MIX and by 1."""
    q, width, scalars, words = LANE_EDGES[ambient]
    monkeypatch.setattr(oracle, "_MIX", mix)
    add = oracle.vector_mod_add(q) if width else oracle.residue_add(q)
    sample, rng = _multiples(q, width, scalars), random.Random(ambient)
    for h in (1, 2, 3):
        for trial in range(3):
            elems = sample(rng, rng.randint(2, 6))  # q = 1: C(8, 3) equal sums
            assert len(oracle._Sums(elems, add, h).first) == words
            for g in (1, 2):
                assert oracle.verify_bhg(elems, h, g, add=add) == ref_verify_bhg(elems, h, g, add)
                assert (oracle.find_minimal_violations_bhg(elems, h, g, add=add)
                        == ref_minimal_bhg(elems, h, g, add))
            assert oracle.verify_bh(elems, h, add=add) == ref_verify_bhg(elems, h, 1, add)
            assert (oracle.find_minimal_violations(elems, h, add=add)
                    == ref_minimal_bhg(elems, h, 1, add))
            for d in (h, h + 1, 2 * h):
                assert (oracle.verify_bh_sharp(elems, h, d, add=add)
                        == ref_verify_bh_sharp(elems, h, d, add))


def test_power_map_levels_hold_one_word_per_row():
    """Verifying the power map (13, 10) as 40-bit words (three digit words,
    levels held as keys) and in Z_13^10 (one word of lanes) peaks below 9 MiB
    of traced allocations; levels held as three digit words per row, or as
    ten uint8 columns, peaked at 14.0 and 10.1 MiB."""
    s = power_map(13, 10)
    code, vectors = field_vectors_to_binary(s), [tuple(c.to_int() for c in v) for v in s.elements]
    for verify in (lambda: oracle.verify_code_bh(code, 10),
                   lambda: oracle.verify_bh(vectors, 10, add=oracle.vector_mod_add(13))):
        assert verify() is None  # a first call: whatever numpy sets up once is not counted
        tracemalloc.start()
        try:
            assert verify() is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(AMBIENTS)), st.integers(2, 4), st.integers(3, 8),
       st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
def test_keys_generated_from_keys_are_the_rows_keys(ambient, h, m, t, small, rng):
    """Pass one's sorted top-level keys, uint64 at t = 1 and their low 32 bits
    at t >= 2, are `_key` of the rows the level holds.  Without a modulus they
    are generated from the keys of the elements and of the held level, which
    a modular ambient never does."""
    sample, add = AMBIENTS[ambient]
    elems = sample(rng, m, h)
    scan, from_keys = oracle._Sums._duplicated, []

    def recording(self, k, r, t, keys, direct):
        dup = scan(self, k, r, t, keys, direct)
        if k > self.k:
            rows = np.concatenate([block for block, _ in self._bucket(k, r)], axis=1)
            expected = np.sort(oracle._key(rows).astype(keys.dtype))
            assert np.array_equal(keys[:len(expected)], expected)
            from_keys.append(direct is not None and direct[0] is not self.first)
        return dup
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle._Sums, "_duplicated", recording)
        if small:
            mp.setattr(oracle, "_BUCKET_KEYS", 1)
            mp.setattr(oracle, "_CHUNK", 4)
        oracle._Sums(elems, add, h).groups(h, t + 1)
    assert from_keys or small  # one bucket of at least 6 rows: it is scanned
    modular = isinstance(add, oracle.ModularAdd)
    assert from_keys == [not modular] * len(from_keys)


# ---------------------------------------------------------------------------
# bit-words as radix-(h+1) digit rows

KEY_WORD_DIGITS = {1: 64, 2: 40, 3: 32, 4: 27}  # digits in one uint64 column


@st.composite
def bit_populations(draw):
    """(h, g, words): collision-rich bit-words, repeats included, of a length
    that is small or on either side of one uint64 column."""
    h = draw(st.integers(1, 4), label="h")
    g = draw(st.integers(1, 3), label="g")
    edge = KEY_WORD_DIGITS[h]
    n = draw(st.one_of(st.integers(1, 6), st.integers(edge - 2, edge + 5)), label="n")
    template = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    free = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    words = []
    for _ in range(draw(st.integers(0, 8 if h < 4 else 6), label="m")):
        word = list(template)
        for i in free:
            word[i] = draw(st.integers(0, 1))
        words.append(tuple(word))
    return h, g, words


@settings(max_examples=150, deadline=None)
@given(bit_populations(), st.booleans())
def test_digit_rows_match_the_base_h_plus_1_integers(population, small_buckets):
    """Violation lists (order and sum values), the k = h groups and the
    verdicts are the brute-force reference's over the words' base-(h+1)
    integers; a sum past the per-sum cap (g > 1) raises CapExceeded."""
    h, g, words = population
    bits = np.array(words, np.uint8).reshape(len(words), -1 if words else 0)
    encoded = encode_binary_words(words, h)[0]
    levels = [ref_groups(encoded, k, int_add) for k in range(1, h + 1)]
    capped = g > 1 and any(comb(len(cols), g + 1) > oracle.DEFAULT_PER_SUM_CAP
                           for level in levels for cols in level.values())
    with pytest.MonkeyPatch.context() as mp:
        if small_buckets:
            mp.setattr(oracle, "_BUCKET_KEYS", 1)
            mp.setattr(oracle, "_CHUNK", 4)
        if capped:
            with pytest.raises(CapExceeded, match="share one sum"):
                oracle._minimal_violations(bits, h, g, add=oracle._BIT_WORDS)
        else:
            violations, groups = oracle._minimal_violations(bits, h, g, add=oracle._BIT_WORDS)
            assert violations == ref_minimal_bhg(encoded, h, g, int_add)
            assert list(groups.items()) == [(s, cols) for s, cols in levels[-1].items()
                                            if len(cols) > g]
        assert (oracle.verify_bhg(bits, h, g, add=oracle._BIT_WORDS)
                == ref_verify_bhg(encoded, h, g, int_add))
        for d in (h, h + 1, 2 * h):
            assert (oracle.verify_bh_sharp(bits, h, d, add=oracle._BIT_WORDS)
                    == ref_verify_bh_sharp(encoded, h, d, int_add))


def h3_top_buckets(n):
    """(the engine, its top-level bucket sizes) for 737 random n-bit words at h = 3."""
    bits = _sample_bits(SamplingPlan(n=n, dist=uniform_bits(1), t=737, seed=(1, 0)))
    sums = oracle._Sums(bits, oracle._BIT_WORDS, 3)
    sums._advance()
    sums._group()
    sums._plan()
    return sums, [sum(size for size, _ in blocks) for blocks in sums.plan]


def test_h3_bit_word_buckets_are_even():
    """With B = 64 the class map used to see three base-4 digits, so the words
    fell in 8 of 64 classes and top-level buckets held up to 3.8x the median."""
    sums, sizes = h3_top_buckets(30)
    assert sums.B == 128 and min(np.diff(sums.start)) > 0  # every class holds words
    assert max(sizes) <= 1.5 * np.median(sizes)


def test_h3_keys_of_several_words_fill_the_classes():
    """40-bit words at h = 3 are two words of radix-4 digits, and levels hold
    their keys.  Classed by key mod B = 128 instead of by their digits, the
    words fell in 68 of the 128 classes and top-level buckets held up to
    1.53x the median."""
    sums, sizes = h3_top_buckets(40)
    assert len(sums.first) == 2 and len(sums.base) == 1 and sums.B == 128
    assert max(sizes) <= 1.2 * np.median(sizes)


@pytest.mark.parametrize("h", [2, 3])
def test_uint32_keys_keep_their_low_bits_within_a_bucket(h, small_buckets, monkeypatch):
    """Keys of bit-words of two words are classed by the words' digits, not by
    the keys' low bits, so a bucket's uint32 keys (g = 2) keep all 32 bits:
    classed by key mod B = 128, a bucket's keys shared their low 7 bits, and
    `simulate --h 2 --g 2 --n 60` flagged 1,093 false keys (0.2 s -> 1.3 s)."""
    rng = random.Random(h)
    bits = np.array([[rng.randrange(2) for _ in range(60)] for _ in range(40)], np.uint8)
    scan, low = oracle._Sums._duplicated, []

    def recording(self, k, r, t, keys, direct):
        dup = scan(self, k, r, t, keys, direct)
        size = sum(size for size, _ in self.plan[r]) if k > self.k else 0
        if t >= 2 and size >= 8:
            low.append(len(set((keys[:size] % self.B).tolist())))
        return dup
    monkeypatch.setattr(oracle._Sums, "_duplicated", recording)
    sums = oracle._Sums(bits, oracle._BIT_WORDS, h)
    assert len(sums.first) == 2 and sums.B > 8
    assert sums.groups(h, 3) == {}
    assert low and min(low) > 1


def test_misuse_raises_invalid_params():
    with pytest.raises(InvalidParams):  # was a RecursionError
        oracle.verify_bh([0, 1], 0)
    with pytest.raises(InvalidParams):  # only the three ambients are enumerated
        oracle.verify_bh([1, 2, 3], 2, add=lambda a, b: a + b)
    with pytest.raises(InvalidParams):
        oracle.verify_bh([1.5, 2.0], 2)
    with pytest.raises(InvalidParams):
        oracle.verify_bh([(0, 1), (1,)], 2, add=oracle.vector_mod_add(3))
    with pytest.raises(InvalidParams, match="outside 1..2\\^62"):  # one lane no longer holds 2q - 2
        oracle.verify_bh([(0, 1), (1, 0)], 2, add=oracle.vector_mod_add(2**62))


def test_pruning_rejects_g_below_1_before_enumerating(monkeypatch):
    # threshold g + 1 = 1 grouped every sum: 2000 integers took 33 s and 1.1 GB at
    # g = 0 and returned [], and prune kept both copies of (0, 0)
    monkeypatch.setattr(oracle, "_capped_sums", lambda *args: pytest.fail("enumerated"))
    for g in (0, -1):
        with pytest.raises(InvalidParams, match="g must be >= 1"):
            oracle.find_minimal_violations_bhg(list(range(2000)), 2, g)
        with pytest.raises(InvalidParams, match="g must be >= 1"):
            prune([(0, 0), (0, 0), (1, 1)], 2, g=g)


def test_numpy_int_bits_do_not_wrap_the_encoding():
    s = power_map(7, 2)
    words = field_vectors_to_binary(s).words
    int8 = [np.array(w, dtype=np.int8) for w in words]
    code = make_binary_code(int8, h=2)
    assert code.words == make_binary_code(words, h=2).words
    assert oracle.verify_code_bh(code, 2) is None  # was Violation(k=2, sum=-76)
    assert prune(int8, 2) == (list(range(len(words))), {}, 0)
    for bad in (make_binary_code, lambda words: prune(words, 2)):
        with pytest.raises(InvalidParams):
            bad([(0, 2, 1)])


def test_words_of_unequal_length_are_rejected():
    # (1,) and (0, 1) would both encode to 1: a false Violation(k=2, sum=2)
    # and a pruned word
    words = [(1,), (0, 1), (1, 1)]
    with pytest.raises(InvalidParams):
        prune(words[:2], 2)
    with pytest.raises(InvalidParams):
        prune(words, 2)
    with pytest.raises(InvalidParams):  # was a bare AssertionError
        make_binary_code(words)


def test_integer_sums_may_span_at_most_2_64():
    """An integer is one uint64 offset from the least element: its h-fold
    sums may span 2^64 values, and no more."""
    assert oracle.verify_bh([0, 2**63 - 1, 5], 2) is None
    assert oracle.verify_bh([2**63 - 1, 0, 2**63 - 1], 2) == oracle.Violation(
        k=2, columns=((0, 0), (0, 2)), sum_value=2**64 - 2)  # the top sum does not wrap
    with pytest.raises(CapExceeded, match="2-fold sums"):
        oracle.verify_bh([0, 2**63], 2)
    with pytest.raises(CapExceeded):
        oracle.find_minimal_violations([-1, 2**63 - 1], 2)


def test_per_sum_cap_applies_exactly_when_g_exceeds_1():
    """Copies of one element share their k = 1 sum.  At g = 1, all
    comb(633, 2) = 200,028 disjoint pairs of 633 copies are listed, past
    DEFAULT_PER_SUM_CAP; at g = 2, 108 copies give comb(108, 3) = 204,156
    column triples, which raise CapExceeded."""
    assert comb(633, 2) > oracle.DEFAULT_PER_SUM_CAP and comb(108, 3) > oracle.DEFAULT_PER_SUM_CAP
    assert len(oracle.find_minimal_violations_bhg([7] * 633, 1, 1)) == comb(633, 2)
    with pytest.raises(CapExceeded, match="108 multisets share one sum"):
        oracle.find_minimal_violations_bhg([7] * 108, 1, 2)
    with pytest.raises(CapExceeded, match="108 multisets share one sum"):
        oracle._minimal_violations([7] * 108, 1, 2)


def test_vector_and_residue_adders():
    assert oracle.residue_add(5)(3, 4) == 2
    assert oracle.vector_mod_add(3)((1, 2), (2, 2)) == (0, 1)
    elems = [(0, 0), (0, 1), (1, 0)]
    assert oracle.verify_bh(elems, 2, add=oracle.vector_mod_add(5)) is None


def test_invalid_parameters_and_caps(monkeypatch):
    with pytest.raises(InvalidParams):
        oracle.verify_bhg([0, 1], 2, 0)
    with pytest.raises(InvalidParams):
        oracle.verify_bh_sharp([0, 1], 3, 2)
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", 100)
    with pytest.raises(CapExceeded):
        oracle.verify_bh(list(range(100)), 2)


def test_violation_json_shape():
    v = oracle.verify_bh([0, 1, 2, 3], 2)
    rec = v.to_json()
    assert rec["k"] == 2
    assert rec["columns"] == [[0, 2], [1, 1]]


def test_code_wrappers():
    code = make_binary_code([(0, 0), (0, 1), (1, 0), (1, 1)], h=2)
    assert oracle.verify_code_bh(code, 2) is not None
    assert oracle.verify_code_bhg(code, 2, 2) is None
    assert oracle.verify_code_bh_sharp(code, 2, 4) is None
    assert oracle.verify_code_bh_sharp(code, 2, 3) is not None
