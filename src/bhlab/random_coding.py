"""Random-coding pipeline: pick a population size from the exact expected
minimal-violation count, sample seeded iid words, prune one word per minimal
violation, and hand back an oracle-verified code.  Each population's
multiset sums are enumerated once; the final verdict is read from the same
duplicate-sum groups that pruning used.  A population stays one (t, n) uint8
bit matrix from sampling to the code: the oracle reads its rows as
radix-(h+1) digits, and the code is sorted and deduplicated on it.

The unspecified constants of the existence proofs are replaced by the exact
criterion E(t) <= t/2, where E(t) sums, over configuration classes, the
number of injective variable-to-index assignments divided by the class
automorphism count, times p(C)^(n/n0), with n0 the sampling law's block
length (`Distribution.n0`).  A uniform law on n0-bit blocks is n0 iid uniform
bits, p_n0(C) = p_1(C)^n0, so it is evaluated as uniform bits over n blocks.
Sampling uses the counter-based Philox generator keyed by (seed, attempt) so
streams are reproducible across runs and portable across languages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configurations import (_law_stats, _law_weights, _read_law, automorphism_count,
                             enumerate_conf_upto)
from .constructions import _bit_matrix, _first_rows, make_binary_code
from .entropy import Distribution, _check_seed, bit_points, uniform_bits
from . import oracle
from .errors import Infeasible, InvalidParams
from .oracle import (_BIT_WORDS, Violation, _minimal_violations, find_minimal_violations,
                     find_minimal_violations_bhg, multiset_count)

DEFAULT_MAX_T = 10_000  # largest population `construct` samples unless given max_t
DEFAULT_ATTEMPTS = 8


@dataclass(frozen=True)
class SamplingPlan:
    """t words of n bits, each n/n0 iid n0-bit blocks drawn from `dist`.
    `seed` is the Philox key, the pair (seed, attempt) of `construct`."""
    n: int
    dist: Distribution
    t: int
    seed: tuple

    def __post_init__(self):
        if self.n % self.dist.n0 != 0:
            raise InvalidParams(f"the law's n0 = {self.dist.n0} does not divide n = {self.n}")
        if self.t < 1:
            raise InvalidParams("t must be >= 1")
        if not isinstance(self.seed, tuple) or len(self.seed) != 2:
            raise InvalidParams(f"seed {self.seed!r} is not a (seed, attempt) pair")
        for half in self.seed:
            _check_seed(half)


@dataclass(frozen=True)
class ConstructionStats:
    t: int
    t_exact: int
    attempts: int
    seed: int
    violations_by_k: dict
    removed: int
    final_size: int
    final_rate: float
    oracle_pass: bool

    def to_json(self):
        return {"t": self.t, "t_exact": self.t_exact, "attempts": self.attempts,
                "seed": self.seed,
                "violations_by_k": {str(k): v for k, v in self.violations_by_k.items()},
                "removed": self.removed, "final_size": self.final_size,
                "final_rate": self.final_rate, "oracle_pass": self.oracle_pass}


# ---------------------------------------------------------------------------
# population size from the exact expectation criterion

def _class_weights(h, g, dist):
    """(d(C), violations-per-population-weight, per-block probability) rows."""
    rows, family, law = [], enumerate_conf_upto(h, g + 1), _read_law(dist.items)
    _law_weights(family, law)
    for c in family:
        stats = _law_stats(c, law)
        rows.append((c.d, Fraction(1, automorphism_count(c)), Fraction(stats.p)))
    return rows


def expected_violations(t, rows, blocks) -> Fraction:
    """E(t): exact expected number of minimal violations at population t."""
    total = Fraction(0)
    for d, inv_aut, p in rows:
        if p:
            total += math.perm(t, d) * inv_aut * p**blocks
    return total


def _largest(ok, limit):
    """The largest t in 1..limit with ok(t), or 1 if there is none, for a
    test that holds on a prefix of 1, 2, ...: doubling, then bisection."""
    lo, hi = 1, 2  # ok(lo) or lo = 1; hi is past the answer
    while hi <= limit and ok(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, limit + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def choose_t(h, n, g=1, dist=None) -> int:
    """Largest t with E(t) <= t/2, found by `_largest`: E(t)/t is
    nondecreasing, so the feasible set is a prefix, and it holds t = 1, since
    every class has d(C) >= 2 variables and E(1) = 0 (one word has no
    injective assignment).  Words are n/n0 blocks drawn from `dist` (default:
    uniform bits), n0 = dist.n0; uniform n0-bit blocks run as n uniform bits,
    since p_n0(C) = p_1(C)^n0."""
    if min(h, g, n) < 1:
        raise InvalidParams("h, g and n must be >= 1")  # g = 0: t would double forever
    dist = uniform_bits(1) if dist is None else dist
    if n % dist.n0 != 0:
        raise InvalidParams(f"the law's n0 = {dist.n0} does not divide n = {n}")
    if len(dist.items) == 2**dist.n0 and dist == uniform_bits(dist.n0):
        dist = uniform_bits(1)
    rows = _class_weights(h, g, dist)
    blocks = n // dist.n0

    return _largest(lambda t: expected_violations(t, rows, blocks) * 2 <= t, math.inf)


# ---------------------------------------------------------------------------
# sampling

def _block_table(dist: Distribution):
    """The law's points as rows of an n0-column bit table, plus cumulative
    probabilities."""
    if not set(dist.support()) <= set(bit_points(dist.n0)):
        raise InvalidParams(f"the law has a point outside {{0,1}}^{dist.n0}")
    table = np.array(dist.support(), dtype=np.uint8).reshape(len(dist.items), dist.n0)
    cum = np.cumsum([float(p) for p in dist.probs()])
    cum[-1] = 1.0
    return table, cum


def _sample_bits(plan: SamplingPlan):
    """The (t, n) uint8 bit matrix of t words, each a concatenation of iid
    blocks; duplicates preserved.  Philox keyed by plan.seed."""
    table, cum = _block_table(plan.dist)
    # as uint64: numpy would read a tuple holding 2^63 or more as float64
    rng = np.random.Generator(np.random.Philox(key=np.array(plan.seed, np.uint64)))
    draws = rng.random((plan.t, plan.n // plan.dist.n0))
    choice = np.searchsorted(cum, draws, side="left")
    return table[choice].reshape(plan.t, plan.n)


# ---------------------------------------------------------------------------
# pruning

def _remove_one_per_violation(violations, m):
    """(kept index list, violations by k, removed count) over m words."""
    by_k = {}
    alive = [True] * m
    removed = 0
    for v in violations:
        by_k[v.k] = by_k.get(v.k, 0) + 1
        indices = sorted({i for col in v.columns for i in col})
        if all(alive[i] for i in indices):
            alive[indices[0]] = False
            removed += 1
    kept = [i for i, a in enumerate(alive) if a]
    return kept, by_k, removed


def prune(words, h, g=1):
    """Remove the least index of each still-alive minimal violation, scanning
    violations in lexicographic order; single pass suffices because removals
    never create violations.  Returns (kept index list, violations by k,
    removed count)."""
    bits = _bit_matrix(words)
    if g == 1:
        violations = find_minimal_violations(bits, h, add=_BIT_WORDS)
    else:
        violations = find_minimal_violations_bhg(bits, h, g, add=_BIT_WORDS)
    return _remove_one_per_violation(violations, len(bits))


def _violation_among(indices, top_groups, h, g):
    """A B_h[g] violation with every index in `indices`, or None.

    `top_groups` holds every size-h sum hit more than g times in the whole
    population, so the sub-population `indices` is B_h[g] iff no group has
    more than g columns inside it."""
    for s, cols in top_groups.items():
        inside = [c for c in cols if indices.issuperset(c)]
        if len(inside) > g:
            return Violation(k=h, columns=tuple(inside[:g + 1]), sum_value=s)
    return None


# ---------------------------------------------------------------------------
# end-to-end construction

def max_verifiable_t(h):
    """Largest population, 1 to DEFAULT_MAX_T, whose size-h multiset
    enumeration fits oracle.DEFAULT_ENUM_CAP (1 if none does)."""
    if h < 1:
        raise InvalidParams(f"h = {h} must be >= 1")
    return _largest(lambda t: multiset_count(t, h) <= oracle.DEFAULT_ENUM_CAP, DEFAULT_MAX_T)


def construct(h, n, seed, *, g=1, dist=None, attempts=DEFAULT_ATTEMPTS, max_t=None):
    """choose_t -> sample -> prune -> verify; retries with the (seed, attempt)
    substream when the pruned code falls below t/2.  Words are n/n0 blocks
    drawn from `dist` (default: uniform bits), n0 = dist.n0.  The population
    is clamped to max_t (default: `max_verifiable_t`, the largest the pruning
    oracle can enumerate); the exact recommendation is recorded in the stats.

    The multiset sums of each population are enumerated once.  The final
    verdict is derived from pruning's k = h duplicate-sum groups, restricted
    to the least kept index of each distinct kept word, not from a second
    oracle pass; callers that want an independent check run the oracle on
    the returned code."""
    if attempts < 1:
        raise InvalidParams(f"attempts must be >= 1, got {attempts}")
    _check_seed(seed)
    dist = uniform_bits(1) if dist is None else dist
    if max_t is None:
        max_t = max_verifiable_t(h)
    t_exact = choose_t(h, n, g=g, dist=dist)
    t = min(t_exact, max_t)
    for attempt in range(attempts):
        bits = _sample_bits(SamplingPlan(n=n, dist=dist, t=t, seed=(seed, attempt)))
        # as `prune`, keeping the k = h groups (sums hit more than g times) it read
        violations, top_groups = _minimal_violations(bits, h, g, add=_BIT_WORDS)
        kept, by_k, removed = _remove_one_per_violation(violations, len(bits))
        kept = np.array(kept, np.intp)
        first_kept = kept[_first_rows(bits[kept])]  # least kept index of each distinct kept word
        if 2 * len(first_kept) < t:
            continue
        source = f"random-coding-h{h}-g{g}-n{n}-seed{seed}"
        code = make_binary_code(bits[first_kept], h=h, source=source)
        verdict = _violation_among(set(first_kept.tolist()), top_groups, h, g)
        if verdict is not None:  # pruning guarantees this never fires
            words = list(map(tuple, bits.tolist()))
            raise AssertionError(f"pruned code failed its oracle: {verdict.render(words)}")
        stats = ConstructionStats(
            t=t, t_exact=t_exact, attempts=attempt + 1, seed=seed,
            violations_by_k=by_k, removed=removed, final_size=len(code),
            final_rate=code.rate, oracle_pass=True)
        return code, stats
    raise Infeasible(f"no attempt kept t/2 = {t / 2} words within {attempts} tries")
