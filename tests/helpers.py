"""Test-only references shared by the test modules.

`encode_binary_words` is the tests' independent reference for the oracle's
digit rows: a word's sums, read as base-(h+1) integers, are the sums that the
oracle reports.  `sample_code` is the sampler's bit matrix as Python tuples.
`canonical_reference` and `automorphism_reference` try every column order
with Python tuples, as the configurations module did before its code-block
engine.  `coinciding_weight_reference` folds one class at a time, on Python
ints, as the configurations module did before it folded a family's classes
as the rows of one fold.
"""

from collections import Counter
from itertools import permutations
from math import factorial, gcd, prod

import numpy as np

from bhlab.errors import InvalidParams
from bhlab.random_coding import SamplingPlan, _sample_bits


def encode_binary_words(words, h):
    """Bit-words -> integers in base h+1 so k<=h word sums add without carry.

    Returns (encoded list, fits_uint64) where fits_uint64 says that sums of
    two encodings stay below 2^64.  Bits must be 0 or 1 (of any integer
    type); they are read as Python ints, so numpy bits cannot wrap.  Words
    must share one length: (1,) and (0, 1) would both encode to 1.
    """
    if h < 1:
        raise InvalidParams(f"h = {h} must be >= 1")
    base, encoded = h + 1, []
    n = len(words[0]) if len(words) else 0
    for w in words:
        if not {0, 1}.issuperset(w):
            raise InvalidParams(f"word {w!r} has a bit other than 0/1")
        if len(w) != n:
            raise InvalidParams(f"word {w!r} does not have the first word's length {n}")
        v = 0
        for bit in bytes(tuple(w)):  # Python ints, whatever integer type the bits had
            v = v * base + bit
        encoded.append(v)
    return encoded, 2 * ((base**n - 1) // h) < 2**64  # two all-ones words


def sample_code(plan: SamplingPlan):
    """`_sample_bits` as a list of t bit-tuples of Python ints."""
    return list(map(tuple, _sample_bits(plan).tolist()))


def canonical_reference(vectors):
    """The least sorted vector tuple over every column order."""
    return tuple(min(sorted(zip(*cols)) for cols in permutations(zip(*vectors))))


def automorphism_reference(vectors):
    """Column orders that fix the vector multiset, times the relabellings of
    equal vectors."""
    rows = sorted(vectors)
    fixing = sum(sorted(zip(*cols)) == rows for cols in permutations(zip(*vectors)))
    return fixing * prod(factorial(m) for m in Counter(vectors).values())


def coinciding_weight_reference(vectors, support):
    """The total weight of the assignments of `support` points, (point tuple,
    integer weight) pairs, to `vectors` under which the l column sums
    coincide: one draw per vector of the column differences, folded at 0."""
    scales = [gcd(*column) or 1 for column in zip(*(point for point, _ in support))]
    support = [(tuple(x // g for x, g in zip(point, scales)), w) for point, w in support]
    l = len(vectors[0])
    points = np.array([[[(v[j] - v[0]) * x for j in range(1, l) for x in point]
                        for point, _ in support] for v in vectors], dtype=object)
    n0, zero = points.shape[2], np.zeros((1, points.shape[2]), dtype=object)
    lo = np.concatenate([zero, np.cumsum(points.min(axis=1), axis=0)])
    hi = np.concatenate([zero, np.cumsum(points.max(axis=1), axis=0)])
    lo, hi = np.maximum(lo, hi - hi[-1]), np.minimum(hi, lo - lo[-1])
    if (lo > hi).any():
        return 0
    lo, hi = lo.tolist(), hi.tolist()
    law = np.ones((1,) * n0, dtype=object)
    for t, draw in enumerate(points.tolist()):
        nxt = np.zeros([b - a + 1 for a, b in zip(lo[t + 1], hi[t + 1])], dtype=object)
        for point, (_, weight) in zip(draw, support):
            src, dst = [], []
            for a, b, s, a1, b1 in zip(lo[t], hi[t], point, lo[t + 1], hi[t + 1]):
                start, stop = max(a + s, a1), min(b + s, b1)
                if start > stop:
                    break
                src.append(slice(start - s - a, stop - s - a + 1))
                dst.append(slice(start - a1, stop - a1 + 1))
            else:
                nxt[tuple(dst)] += law[tuple(src)] * weight
        law = nxt
    return law.item()
