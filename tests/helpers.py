"""Test-only references shared by the test modules.

`encode_binary_words` is the tests' independent reference for the oracle's
digit rows: a word's sums, read as base-(h+1) integers, are the sums that the
oracle reports.  `sample_code` is the sampler's bit matrix as Python tuples.
`canonical_reference` and `automorphism_reference` try every column order
with Python tuples, as the configurations module did before its code-block
engine.
"""

from collections import Counter
from itertools import permutations
from math import factorial, prod

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
