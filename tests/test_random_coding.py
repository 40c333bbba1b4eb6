"""Random-coding pipeline: exact expectation cross-checks, determinism,
pruning correctness, and realized-rate guarantees."""

import hashlib
import json
import math
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bhlab import configurations, constructions, oracle, random_coding as rc
from bhlab import rates
from bhlab.cli import parse_dist
from bhlab.constructions import code_to_text
from bhlab.entropy import from_probs, uniform_bits
from bhlab.errors import Infeasible, InvalidParams
from helpers import coinciding_weight_reference, encode_binary_words, sample_code


def test_sampling_plan_validation():
    dist = uniform_bits(1)
    with pytest.raises(InvalidParams):
        rc.SamplingPlan(n=5, dist=uniform_bits(2), t=4, seed=0)
    with pytest.raises(InvalidParams):
        rc.SamplingPlan(n=4, dist=dist, t=0, seed=0)
    with pytest.raises(InvalidParams):
        rc.choose_t(0, 4)


def test_expected_violations_matches_exhaustive_average():
    # average the true minimal-violation count over every possible draw of
    # t = 3 words of length n = 2 (64 equally likely assignments)
    t, n, h = 3, 2, 2
    words_space = list(product((0, 1), repeat=n))
    total = 0
    for assignment in product(words_space, repeat=t):
        enc, _ = encode_binary_words(list(assignment), h)
        total += len(oracle.find_minimal_violations(enc, h))
    empirical = Fraction(total, len(words_space) ** t)
    rows = rc._class_weights(h, 1, uniform_bits(1))
    assert rc.expected_violations(t, rows, n) == empirical


def test_expected_violations_lower_bounds_bhg_count():
    # for g >= 2 the expectation sums only the violation patterns where no
    # variable both repeats inside a column and spans several columns, so it
    # can undercount but never overcount the oracle's census
    for t, n, h, g in [(3, 2, 2, 2), (3, 1, 2, 2)]:
        words_space = list(product((0, 1), repeat=n))
        total = 0
        for assignment in product(words_space, repeat=t):
            enc, _ = encode_binary_words(list(assignment), h)
            total += len(oracle.find_minimal_violations_bhg(enc, h, g))
        empirical = Fraction(total, len(words_space) ** t)
        rows = rc._class_weights(h, g, uniform_bits(1))
        assert rc.expected_violations(t, rows, n) <= empirical
    # at (h, g, n, t) = (2, 2, 1, 3) the gap is strict, 3/4 against the census
    # mean 21/4; counting the mixed classes (ROADMAP item 13) makes it equality
    assert rc.expected_violations(3, rows, 1) == Fraction(3, 4) < empirical == Fraction(21, 4)


def test_choose_t_pinned_values_and_growth():
    assert rc.choose_t(2, 40) == 759050
    assert rc.choose_t(2, 30, g=2) == 129144
    # within a factor 4 of the asymptotic scale 2^(rate_poltyrev(2) * n)
    target = 2.0 ** (rates.rate_poltyrev(2).rate * 40)
    assert target / 4 <= 759050 <= target * 4
    # monotone in n
    prev = 0
    for n in (10, 20, 30, 40):
        t = rc.choose_t(2, n)
        assert t > prev
        prev = t


def test_choose_t_satisfies_its_defining_inequality():
    for h, n, g in [(2, 20, 1), (2, 16, 2), (3, 15, 1)]:
        t = rc.choose_t(h, n, g=g)
        rows = rc._class_weights(h, g, uniform_bits(1))
        assert rc.expected_violations(t, rows, n) * 2 <= t
        assert rc.expected_violations(t + 1, rows, n) * 2 > t + 1


def test_choose_t_with_distribution():
    biased = from_probs([Fraction(3, 4), Fraction(1, 4)])
    t_b = rc.choose_t(3, 21, dist=biased)
    t_u = rc.choose_t(3, 21)
    assert 1 <= t_b < t_u
    with pytest.raises(InvalidParams):
        rc.choose_t(2, 21, dist=uniform_bits(2))


@pytest.mark.parametrize("h,g,n,n0", [(h, g, 24, n0) for n0 in (1, 2, 3)
                                      for h, g in ((2, 1), (2, 2), (3, 1))] + [(2, 3, 16, 8)])
def test_choose_t_reads_uniform_blocks_as_bits(h, g, n, n0):
    # uniform n0-bit blocks are n0 iid uniform bits: p_n0(C) = p_1(C)^n0
    assert rc.choose_t(h, n, g=g, dist=uniform_bits(n0)) == rc.choose_t(h, n, g=g)


def test_choose_t_reads_the_block_length_from_the_law():
    assert rc.choose_t(2, 20, dist=uniform_bits(2)) == rc.choose_t(2, 20) == 1098
    # a non-uniform law on 2-bit blocks runs its own p(C) over n/2 blocks
    law = parse_dist("1/8,1/8,3/8,3/8", 2)
    rows = rc._class_weights(2, 1, law)
    t = rc.choose_t(2, 20, dist=law)
    assert rc.expected_violations(t, rows, 10) * 2 <= t
    assert rc.expected_violations(t + 1, rows, 10) * 2 > t + 1


def test_expected_violation_rows_are_exact_under_a_float_law():
    # the floats 0.3 and 0.7 are read as the binary fractions they hold; p(C)
    # was rounded to a float before E(t) read it, off by 4.2e-12 in E(1000) at n = 20
    masses = [Fraction(0.3), Fraction(0.7)]
    denom = math.lcm(*(q.denominator for q in masses))
    support = tuple(((a,), int(q * denom)) for a, q in enumerate(masses))
    for g in (1, 2):
        rows = rc._class_weights(2, g, from_probs([0.3, 0.7]))
        family = configurations.enumerate_conf_upto(2, g + 1)
        assert len(rows) == len(family) > 1
        for c, (d, _, p) in zip(family, rows):
            assert d == c.d and type(p) is Fraction
            assert p == Fraction(coinciding_weight_reference(c.vectors, support), denom**c.d)


def test_sampling_rejects_a_law_off_the_bit_blocks():
    with pytest.raises(InvalidParams, match="point outside"):
        sample_code(rc.SamplingPlan(n=4, dist=from_probs([Fraction(1, 3)] * 3), t=3,
                                    seed=(0, 0)))


def test_construct_rejects_no_attempts():
    with pytest.raises(InvalidParams, match="attempts must be >= 1, got 0"):
        rc.construct(2, 10, seed=0, attempts=0)


def test_sample_code_determinism_and_law():
    plan = rc.SamplingPlan(n=8, dist=uniform_bits(1), t=50, seed=(3, 0))
    w1, w2 = sample_code(plan), sample_code(plan)
    assert w1 == w2
    other = rc.SamplingPlan(n=8, dist=uniform_bits(1), t=50, seed=(3, 1))
    assert sample_code(other) != w1
    # point mass yields t copies of one word
    point = from_probs([0, 1])
    mono = sample_code(rc.SamplingPlan(n=4, dist=point, t=7, seed=(0, 0)))
    assert mono == [(1, 1, 1, 1)] * 7


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_sample_code_words_are_pinned():
    # sha256 of repr(words): the sampled words are these exact tuples of Python
    # ints, whatever way the sampler builds them
    uniform = sample_code(rc.SamplingPlan(n=40, dist=uniform_bits(1), t=3000, seed=(5, 0)))
    law = parse_dist("1/8,1/8,3/8,3/8", 2)
    blocks = sample_code(rc.SamplingPlan(n=30, dist=law, t=3000, seed=(7, 1)))
    assert {type(bit) for word in uniform + blocks for bit in word} == {int}
    assert (_sha256(repr(uniform))
            == "f39abd29b7f958addd9ee18ea12f8fa32e23ba4df1188667a654417b2035a1da")
    assert (_sha256(repr(blocks))
            == "9ff5f59c7e05bcebd9055f4a40d4ea58fc0a3411375a90e772b932235f052d23")


def test_seeds_at_and_above_2_63_give_distinct_codes():
    # numpy read the key (2^63 + s, attempt) as float64, so these two aliased
    code, stats = rc.construct(2, 16, 2**63)
    other, _ = rc.construct(2, 16, 2**63 + 1)
    assert code.words != other.words and stats.seed == 2**63
    assert rc.construct(2, 16, 2**64 - 1)[1].seed == 2**64 - 1


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_seeds_outside_uint64_are_rejected(seed):
    with pytest.raises(InvalidParams, match=f"seed {seed!r}"):
        rc.construct(2, 16, seed)
    with pytest.raises(InvalidParams, match=f"seed {seed!r}"):
        rc.SamplingPlan(n=16, dist=uniform_bits(1), t=4, seed=(seed, 0))
    with pytest.raises(InvalidParams, match="not a .seed, attempt. pair"):
        rc.SamplingPlan(n=16, dist=uniform_bits(1), t=4, seed=5)


def test_sample_code_ones_fraction_within_5_sigma():
    plan = rc.SamplingPlan(n=64, dist=uniform_bits(1), t=1000, seed=(11, 0))
    words = sample_code(plan)
    total_bits = 64 * 1000
    ones = sum(sum(w) for w in words)
    sigma = math.sqrt(total_bits) / 2
    assert abs(ones - total_bits / 2) < 5 * sigma


def test_sample_code_blocks():
    dist = uniform_bits(2)
    plan = rc.SamplingPlan(n=6, dist=dist, t=20, seed=(1, 0))
    words = sample_code(plan)
    assert all(len(w) == 6 for w in words)


def test_prune_removes_the_textbook_violation():
    words = [(0, 0), (0, 1), (1, 0), (1, 1)]
    kept, by_k, removed = rc.prune(words, 2)
    assert removed == 1 and kept == [1, 2, 3]
    assert by_k == {2: 1}
    enc, _ = encode_binary_words([words[i] for i in kept], 2)
    assert oracle.verify_bh(enc, 2) is None


def test_prune_kills_duplicates_via_k1():
    words = [(0, 1), (0, 1), (1, 1)]
    kept, by_k, removed = rc.prune(words, 2)
    assert 0 not in kept and removed >= 1
    assert by_k.get(1, 0) >= 1


def test_prune_output_always_passes_oracle():
    for seed in range(4):
        plan = rc.SamplingPlan(n=10, dist=uniform_bits(1), t=60, seed=(seed, 0))
        words = sample_code(plan)
        kept, by_k, removed = rc.prune(words, 2)
        assert removed <= sum(by_k.values())
        enc, _ = encode_binary_words(sorted({words[i] for i in kept}), 2)
        assert oracle.verify_bh(enc, 2) is None


def test_max_verifiable_t():
    assert rc.max_verifiable_t(2) == 10_000   # hits the ceiling
    t3 = rc.max_verifiable_t(3)
    assert oracle.multiset_count(t3, 3) <= oracle.DEFAULT_ENUM_CAP
    assert oracle.multiset_count(t3 + 1, 3) > oracle.DEFAULT_ENUM_CAP


@pytest.mark.parametrize("law", [uniform_bits(1), from_probs([Fraction(1, 4), Fraction(3, 4)])],
                         ids=["uniform", "biased"])
def test_one_word_expects_no_violation(law):
    # every class has d(C) >= 2 variables, so E(1) = 0 and t = 1 always passes choose_t
    for h in range(1, 5):
        for g in range(1, 4):
            rows = rc._class_weights(h, g, law)
            assert min(d for d, _, _ in rows) >= 2
            for n in (1, 8, 40):
                assert rc.expected_violations(1, rows, n) == 0


def _linear_max_verifiable_t(h, cap, ceiling):
    """max_verifiable_t as a linear search: grow t while the next population fits."""
    t = 1
    while math.comb(t + h, h) <= cap and t < ceiling:
        t += 1
    return t


@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("cap", [0, 1, 2**10, 2**26])
def test_max_verifiable_t_matches_the_linear_search(h, cap, monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", cap)
    assert rc.max_verifiable_t(h) == _linear_max_verifiable_t(h, cap, rc.DEFAULT_MAX_T)
    monkeypatch.setattr(rc, "DEFAULT_MAX_T", math.inf)
    t = rc.max_verifiable_t(h)
    if h == 1 and cap == 2**26:  # 2^26 linear steps: check where that search stops instead
        assert oracle.multiset_count(t, h) <= cap < oracle.multiset_count(t + 1, h)
    else:
        assert t == _linear_max_verifiable_t(h, cap, math.inf)


def test_construct_small_is_deterministic_and_verified():
    code1, stats1 = rc.construct(2, 24, seed=5)
    code2, stats2 = rc.construct(2, 24, seed=5)
    assert code1.words == code2.words and stats1 == stats2
    assert stats1.oracle_pass and 2 * stats1.final_size >= stats1.t
    assert oracle.verify_code_bh(code1, 2) is None
    other, _ = rc.construct(2, 24, seed=6)
    assert other.words != code1.words


def test_construct_bhg_target():
    code, stats = rc.construct(2, 20, seed=3, g=2)
    assert oracle.verify_code_bhg(code, 2, 2) is None
    assert 2 * len(code) >= stats.t


def test_construct_stats_json():
    _, stats = rc.construct(2, 20, seed=9)
    rec = stats.to_json()
    assert rec["final_size"] == stats.final_size
    assert set(rec) == {"t", "t_exact", "attempts", "seed", "violations_by_k",
                        "removed", "final_size", "final_rate", "oracle_pass"}


def test_construct_clamps_population_to_verifiable_size():
    _, stats = rc.construct(2, 40, seed=1, max_t=500)
    assert stats.t == 500 and stats.t_exact == 759050


@pytest.mark.parametrize("h,g,n,t_exact", [(2, 1, 20, 1098), (2, 2, 20, 3067),
                                           (3, 1, 20, 217)])
def test_construct_prunes_at_the_exact_population(h, g, n, t_exact):
    # at t = t_exact (no clamp) the population really has violations to prune
    code, stats = rc.construct(h, n, seed=7, g=g, max_t=t_exact)
    assert stats.t == stats.t_exact == t_exact
    assert stats.removed > 0
    assert 2 * len(code) >= stats.t
    verdict = (oracle.verify_code_bh(code, h) if g == 1
               else oracle.verify_code_bhg(code, h, g))
    assert verdict is None
    # sha256 of the code text and .stats.json that `bhlab simulate` writes
    stats_json = json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n"
    assert (_sha256(code_to_text(code)), _sha256(stats_json)) == PINNED_CONSTRUCT[h, g]


PINNED_CONSTRUCT = {  # artifacts must not depend on how the oracle enumerates sums
    (2, 1): ("102d444c3e1473c9440128e307ed5640ef748fd1fe80755cc928cae710763d43",
             "46a9a30bd5bd671cd562dcf3d6f17dff35888a8c46106edc8c9578c926ae20b3"),
    (2, 2): ("2adaff6e7c96741b75f676e92e66001b5ca14928974070316f50ba0bfcf6d749",
             "62646d98b6661cbefb6f85dc6854d073d997a18b2076d623fdfe21d9095c9bfa"),
    (3, 1): ("002b24eddc9fc46a0de943ccf83881c92323d2e6edbc9a796593c2c75700d37a",
             "21a9c52fd29a4ee9a6a4b5c727ecfa2f02ab0337570fae4cb7b3a117e216739f"),
}


def test_pool_sized_population_is_pinned(monkeypatch):
    # at t = t_exact = 2112 the top level holds 2.2M pair sums: the oracle scans
    # it in buckets on its thread pool (on one thread under `taskset -c 0`),
    # and pass two runs in several buckets; the pins predate the array plan
    buckets, scan = set(), oracle._Sums._duplicated

    def recording(self, k, r, *args):
        dup = scan(self, k, r, *args)
        if len(dup):
            buckets.add((k, r))
        return dup
    monkeypatch.setattr(oracle._Sums, "_duplicated", recording)
    code, stats = rc.construct(2, 22, seed=1, max_t=2112)
    assert stats.t == stats.t_exact == 2112 and stats.removed == 647
    assert oracle.multiset_count(stats.t, 2) >= 2 * oracle._BUCKET_KEYS
    assert len({r for k, r in buckets if k == 2}) > 1
    stats_json = json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n"
    assert (_sha256(code_to_text(code)), _sha256(stats_json)) == (
        "a005c027a44da71ac67940b81eaeeae33605e8c262b3cc149fcc8cf7531d5952",
        "7d5ac94e2ee1049a76f71cfd866553529f5c6e94a2ac9b977df280fb209602a6")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pass_two_runs_on_the_pool(workers, monkeypatch):
    # the population above: a bucket is one pool task, pass two included, and
    # the artifacts keep that test's pins on any number of threads
    monkeypatch.setattr(oracle, "_WORKERS", workers)
    threads, among = [], oracle._among

    def recording(*args):
        threads.append(threading.current_thread())
        return among(*args)
    monkeypatch.setattr(oracle, "_among", recording)
    code, stats = rc.construct(2, 22, seed=1, max_t=2112)
    assert threads
    assert any(t is not threading.main_thread() for t in threads) == (workers > 1)
    stats_json = json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n"
    assert (_sha256(code_to_text(code)), _sha256(stats_json)) == (
        "a005c027a44da71ac67940b81eaeeae33605e8c262b3cc149fcc8cf7531d5952",
        "7d5ac94e2ee1049a76f71cfd866553529f5c6e94a2ac9b977df280fb209602a6")


def _keep_every_word(monkeypatch, words):
    """construct on a fixed population whose pruning finds no violation; the
    k = h groups still come from the real enumeration."""
    real = rc._minimal_violations
    monkeypatch.setattr(rc, "_minimal_violations",
                        lambda *args, **kwargs: ([], real(*args, **kwargs)[1]))
    monkeypatch.setattr(rc, "_sample_bits", lambda plan: np.array(words, np.uint8))


def test_construct_derived_verdict_fires_on_an_unpruned_violation(monkeypatch):
    _keep_every_word(monkeypatch, [(0, 0), (0, 1), (1, 0), (1, 1)])  # 00+11 = 01+10
    with pytest.raises(AssertionError, match="pruned code failed its oracle"):
        rc.construct(2, 2, seed=0, max_t=4)


def test_construct_derived_verdict_counts_equal_kept_words_once(monkeypatch):
    # with both copies of 00 kept, sum 11 has three index columns, (0, 4),
    # (1, 4) and (2, 3), but only two distinct word multisets: B_2[2] holds
    _keep_every_word(monkeypatch, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1)])
    code, stats = rc.construct(2, 2, seed=0, g=2, max_t=4)
    assert len(code) == 4 and stats.removed == 0
    assert oracle.verify_code_bhg(code, 2, 2) is None


def test_construct_and_verify_never_read_words_one_at_a_time(monkeypatch):
    # the population stays a bit matrix: the per-word bit check does not run
    # on the simulate or verify path
    def per_word(*args, **kwargs):
        raise AssertionError("a per-word path ran")

    monkeypatch.setattr(constructions, "_bit_word", per_word)
    for h, g, n, t in [(2, 1, 20, 1098), (2, 2, 20, 3067), (3, 1, 20, 217)]:
        code, stats = rc.construct(h, n, seed=7, g=g, max_t=t)
        assert stats.removed > 0 and 2 * len(code) >= stats.t
        assert oracle.verify_code_bhg(code, h, g) is None
        assert (oracle.verify_code_bh(code, h) is None) == (g == 1)
        assert (oracle.verify_code_bh_sharp(code, h, h) is None) == (g == 1)


def test_mean_rate_over_twenty_seeds_meets_finite_n_slack():
    n, target_seeds = 40, 20
    threshold = 0.8 * rates.rate_poltyrev(2).rate - 2 / n
    total = 0.0
    for seed in range(target_seeds):
        code, stats = rc.construct(2, n, seed=seed)
        assert stats.oracle_pass
        total += code.rate
    assert total / target_seeds >= threshold


def test_biased_distribution_never_beats_uniform_on_average():
    biased = from_probs([Fraction(3, 4), Fraction(1, 4)])
    n, seeds = 21, 20
    mean_u = mean_b = 0.0
    for seed in range(seeds):
        cu, _ = rc.construct(3, n, seed=seed)
        cb, _ = rc.construct(3, n, seed=seed, dist=biased)
        assert oracle.verify_code_bh(cu, 3) is None
        assert oracle.verify_code_bh(cb, 3) is None
        mean_u += cu.rate / seeds
        mean_b += cb.rate / seeds
    assert mean_b <= mean_u


def test_construct_infeasible_when_every_attempt_collapses(monkeypatch):
    # a sampler stuck on one word loses all but one copy to k=1 violations,
    # so every attempt falls below t/2 and the retry budget runs out
    monkeypatch.setattr(rc, "_sample_bits",
                        lambda plan: np.array([(0,) * plan.n] * plan.t, np.uint8))
    with pytest.raises(Infeasible):
        rc.construct(2, 10, seed=0, attempts=3)
