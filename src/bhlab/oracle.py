"""Ground-truth brute-force verifiers for B_h / B_h[g] / B_h^#[d] properties.

Elements can live in any abelian ambient: coordinatewise integer vectors
(bit-words), residues mod m, or vectors over GF(q).  Callers pass plain
hashable encodings plus an `add`; helpers below build those encodings.

Verification is two-pass to keep memory flat: pass one collects multiset
sums only (sorted to detect duplicates), pass two rebuilds index multisets
just for the duplicated sums.  Bit-words get encoded as base-(h+1) integers
so that multiset sums are plain integer additions, with a numpy pairwise
path for h = 2 at scale.

The random-coding pipeline enumerates each population once: pruning reads
its minimal violations, and `random_coding.construct` its final verdict,
from the same duplicate-sum groups (`_minimal_violations`).  Callers that
need an independent check (`bhlab verify`, the tests) run the verifiers
below on the finished code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .constructions import BinaryCode
from .errors import CapExceeded, InvalidParams

DEFAULT_ENUM_CAP = 2**26
DEFAULT_PER_SUM_CAP = 200_000  # B_h[g] column combinations read from one sum
_NUMPY_MIN = 200_000  # below this, the pure-python path is fast enough


# ---------------------------------------------------------------------------
# element encodings

def encode_binary_words(words, h):
    """Bit-words -> integers in base h+1 so k<=h word sums add without carry.

    Returns (encoded list, fits_uint64) where fits_uint64 allows the numpy
    pairwise path (sums of two encodings must stay below 2^64).
    """
    if h < 1:
        raise InvalidParams(f"h = {h} must be >= 1")
    base = h + 1
    encoded = []
    for w in words:
        v = 0
        for bit in w:
            v = v * base + bit
        encoded.append(v)
    n = len(words[0]) if words else 0
    max_encoding = (base**n - 1) // (base - 1)  # all-ones word
    fits = 2 * max_encoding < 2**64
    return encoded, fits


def residue_add(m):
    return lambda a, b: (a + b) % m


def vector_mod_add(q):
    return lambda a, b: tuple((x + y) % q for x, y in zip(a, b))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """Equal-sum index multisets; two columns for B_h, more for B_h[g]."""

    k: int
    columns: tuple  # tuple of sorted index tuples
    sum_value: object = None

    def to_json(self):
        return {"k": self.k, "columns": [list(c) for c in self.columns],
                "sum": str(self.sum_value)}

    def render(self, elements):
        return tuple(tuple(elements[i] for i in col) for col in self.columns)


def multiset_count(m, h):
    return comb(m + h - 1, h)


def _check_cap(m, h, cap):
    if multiset_count(m, h) > cap:
        raise CapExceeded(
            f"{multiset_count(m, h)} size-{h} multisets over {m} elements exceeds cap {cap}")


def _iter_sums(elements, k, add):
    """All size-k multiset sums in lex order of index multisets."""
    m = len(elements)
    if k == 1:
        return list(elements)
    if k == 2 and add is operator.add:
        sums = []
        for i in range(m):
            ei = elements[i]
            sums.extend([ei + ej for ej in elements[i:]])
        return sums
    sums = []
    append = sums.append

    def rec(start, depth, acc):
        if depth == k:
            append(acc)
            return
        for i in range(start, m):
            rec(i, depth + 1, add(acc, elements[i]))

    for i in range(m):
        rec(i, 1, elements[i])
    return sums


def _iter_multisets_with_sums(elements, k, add, wanted):
    """(indices, sum) for multisets whose sum is in `wanted`, lex order."""
    m = len(elements)
    out = []

    def rec(start, depth, acc, idx):
        if depth == k:
            if acc in wanted:
                out.append((tuple(idx), acc))
            return
        for i in range(start, m):
            idx.append(i)
            rec(i, depth + 1, add(acc, elements[i]), idx)
            idx.pop()

    for i in range(m):
        rec(i, 1, elements[i], [i])
    return out


def _duplicated(sums, threshold=2):
    """Values appearing >= threshold times among the sums."""
    if not sums:
        return set()
    srt = sorted(sums)
    dups = set()
    run = 1
    for a, b in zip(srt, srt[1:]):
        if a == b:
            run += 1
            if run == threshold:
                dups.add(a)
        else:
            run = 1
    return dups


# numpy pairwise path for h = 2 over uint64-encodable elements

def _pair_sums_numpy(arr):
    """All sums arr[i] + arr[j], i <= j, row by row into one preallocated array."""
    m = len(arr)
    out = np.empty(m * (m + 1) // 2, dtype=np.uint64)
    ofs = 0
    for i in range(m):
        row = arr[i] + arr[i:]
        out[ofs:ofs + row.size] = row
        ofs += row.size
    return out


def _numpy_dup_sums(arr, threshold=2):
    sums = _pair_sums_numpy(arr)
    sums.sort()  # in place; only values matter, so any sort kind gives the same result
    if threshold <= 1:
        return np.unique(sums)
    repeats = sums[threshold - 1:][sums[threshold - 1:] == sums[:1 - threshold]]
    return np.unique(repeats)


def _numpy_groups(arr, dup_values):
    """dict sum -> lex-ordered list of index pairs, for the duplicated sums.

    Duplicated sums are rare, so each is decomposed directly: for every i with
    arr[i] <= v, binary-search the partners j with arr[i] + arr[j] == v.
    """
    groups = {}
    if len(dup_values) == 0:
        return groups
    order = np.argsort(arr, kind="stable")
    srt = arr[order]
    for v in dup_values:
        v = np.uint64(v)
        need = v - srt  # wraps where srt > v, but those p are masked out below
        lo = np.searchsorted(srt, need)
        hi = np.searchsorted(srt, need, side="right")
        pairs = []
        for p in np.nonzero((srt <= v) & (lo < hi))[0]:
            i = int(order[p])
            for q in order[lo[p]:hi[p]]:
                if i <= q:
                    pairs.append((i, int(q)))
        pairs.sort()
        groups[int(v)] = pairs
    return groups


def _use_numpy(elements, k, add):
    if k != 2 or add is not operator.add or not elements:
        return False
    if not all(isinstance(e, int) for e in elements[:4]):
        return False
    if multiset_count(len(elements), 2) < _NUMPY_MIN:
        return False
    return max(elements) * 2 < 2**64


def _sum_groups(elements, k, add, threshold=2):
    """dict sum -> index multisets (lex order) restricted to sums hit >= threshold times."""
    if _use_numpy(elements, k, add):
        arr = np.asarray(elements, dtype=np.uint64)
        dup = _numpy_dup_sums(arr, threshold)
        return _numpy_groups(arr, dup)
    sums = _iter_sums(elements, k, add)
    dups = _duplicated(sums, threshold)
    del sums
    if not dups:
        return {}
    groups = {}
    for idx, s in _iter_multisets_with_sums(elements, k, add, dups):
        groups.setdefault(s, []).append(idx)
    return groups


# ---------------------------------------------------------------------------
# verifiers: return None on pass, a Violation otherwise

def verify_bh(elements, h, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """Pass iff every size-h multiset sum is hit by exactly one multiset."""
    elements = list(elements)
    _check_cap(len(elements), h, cap)
    groups = _sum_groups(elements, h, add, threshold=2)
    if not groups:
        return None
    s, cols = min(groups.items(), key=lambda kv: kv[1][:2])
    return Violation(k=h, columns=tuple(cols[:2]), sum_value=s)


def verify_bhg(elements, h, g, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """Pass iff every sum value is hit by at most g multisets."""
    if g < 1:
        raise InvalidParams("g must be >= 1")
    elements = list(elements)
    _check_cap(len(elements), h, cap)
    groups = _sum_groups(elements, h, add, threshold=g + 1)
    if not groups:
        return None
    s, cols = min(groups.items(), key=lambda kv: kv[1][:g + 1])
    return Violation(k=h, columns=tuple(cols[:g + 1]), sum_value=s)


def verify_bh_sharp(elements, h, d, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """Pass iff for every sum, all decompositions use at most d distinct codewords."""
    if d < h:
        raise InvalidParams(f"d = {d} < h = {h}")
    elements = list(elements)
    _check_cap(len(elements), h, cap)
    # any sum with support > d is hit by >= 2 multisets, so restrict to duplicates
    groups = _sum_groups(elements, h, add, threshold=2)
    for s in sorted(groups, key=lambda s: groups[s][:2]):
        cols = groups[s]
        support = set()
        for idx in cols:
            support.update(idx)
        if len(support) > d:
            return Violation(k=h, columns=tuple(cols), sum_value=s)
    return None


def _no_common_index(cols, g):
    """The (g+1)-subsets of one sum's columns with no index common to all."""
    if g == 1:  # disjoint pairs; a set per first column keeps this scan fast
        for a, first in enumerate(cols):
            seen = set(first)
            for second in cols[a + 1:]:
                if seen.isdisjoint(second):
                    yield first, second
        return
    for combo in combinations(cols, g + 1):
        common = set(combo[0])
        for c in combo[1:]:
            common &= set(c)
            if not common:
                yield combo
                break


def _minimal_violations(elements, h, g, *, add=operator.add, cap=DEFAULT_ENUM_CAP,
                        per_sum_cap=None):
    """(minimal violations, k = h groups).

    Minimal violations are g+1 distinct equal-sum index multisets with no
    index common to all columns, for every k in 1..h, in lex order; for g = 1
    that is a disjoint pair.  The k = h groups are the `_sum_groups` they were
    read from (sums hit >= g+1 times).  per_sum_cap=None skips the per-sum
    combination cap."""
    elements = list(elements)
    _check_cap(len(elements), h, cap)
    out, groups = [], {}
    for k in range(1, h + 1):
        groups = _sum_groups(elements, k, add, threshold=g + 1)
        for s, cols in groups.items():
            if per_sum_cap is not None and comb(len(cols), g + 1) > per_sum_cap:
                raise CapExceeded(f"{len(cols)} multisets share one sum")
            out.extend(Violation(k=k, columns=combo, sum_value=s)
                       for combo in _no_common_index(cols, g))
    out.sort(key=lambda v: (v.k, v.columns))
    return out, groups


def find_minimal_violations(elements, h, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """All disjoint equal-sum index-multiset pairs, every k in 1..h, lex order."""
    return _minimal_violations(elements, h, 1, add=add, cap=cap)[0]


def find_minimal_violations_bhg(elements, h, g, *, add=operator.add, cap=DEFAULT_ENUM_CAP,
                                per_sum_cap=DEFAULT_PER_SUM_CAP):
    """Minimal B_h[g] violations: g+1 distinct equal-sum index multisets with
    no index common to all columns, every k in 1..h, lex order."""
    return _minimal_violations(elements, h, g, add=add, cap=cap, per_sum_cap=per_sum_cap)[0]


# convenience wrappers over BinaryCode

def verify_code_bh(code: BinaryCode, h, cap=DEFAULT_ENUM_CAP):
    elems, _ = encode_binary_words(code.words, h)
    return verify_bh(elems, h, cap=cap)


def verify_code_bhg(code: BinaryCode, h, g, cap=DEFAULT_ENUM_CAP):
    elems, _ = encode_binary_words(code.words, h)
    return verify_bhg(elems, h, g, cap=cap)


def verify_code_bh_sharp(code: BinaryCode, h, d, cap=DEFAULT_ENUM_CAP):
    elems, _ = encode_binary_words(code.words, h)
    return verify_bh_sharp(elems, h, d, cap=cap)
