"""Ground-truth brute-force verifiers for B_h / B_h[g] / B_h^#[d] properties.

`add` names the ambient: integers under `operator.add` (the default; bit-words
enter as their carry-free base-(h+1) encodings), residues under
`residue_add(m)`, vectors over Z_q under `vector_mod_add(q)`.  Sums are
reported in the caller's encoding: an int, a residue, a tuple.

One numpy engine, `_Sums`, serves every ambient.  An element is a row of
unsigned ints: the base-2^b digits of its offset from the least element, or
its residues.  Level k (the size-k multisets) is level k-1 plus one element
per vectorised add, reduced mod q at every level and packed into uint64 key
words (more than one only when the sums need over 64 bits).  Two passes keep
memory flat: pass one sorts every multiset's first key word in place and
keeps the duplicated values; pass two regenerates the level and decodes only
the rows holding them, grouped by their whole key.  Peak memory is one uint64
per top-level multiset plus the level below it.

The random-coding pipeline enumerates each population once: pruning reads
its minimal violations, and `random_coding.construct` its final verdict,
from the same duplicate-sum groups (`_minimal_violations`).  Callers that
need an independent check (`bhlab verify`, the tests) run the verifiers
below on the finished code.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .constructions import BinaryCode
from .errors import CapExceeded, InvalidParams

DEFAULT_ENUM_CAP = 2**26
DEFAULT_PER_SUM_CAP = 200_000  # B_h[g] column combinations read from one sum
_CHUNK = 2**16  # rows per generated block: bounds temporaries, amortises numpy calls


# ---------------------------------------------------------------------------
# element encodings

def encode_binary_words(words, h):
    """Bit-words -> integers in base h+1 so k<=h word sums add without carry.

    Returns (encoded list, fits_uint64) where fits_uint64 says that sums of
    two encodings stay below 2^64.  Bits must be 0 or 1 (of any integer
    type); they are read as Python ints, so numpy bits cannot wrap.
    """
    if h < 1:
        raise InvalidParams(f"h = {h} must be >= 1")
    base, encoded = h + 1, []
    for w in words:
        if not {0, 1}.issuperset(w):
            raise InvalidParams(f"word {w!r} has a bit other than 0/1")
        v = 0
        for bit in bytes(tuple(w)):  # Python ints, whatever integer type the bits had
            v = v * base + bit
        encoded.append(v)
    n = len(words[0]) if words else 0
    return encoded, 2 * ((base**n - 1) // h) < 2**64  # two all-ones words


@dataclass(frozen=True)
class ModularAdd:
    """The `add=` ambient `(a + b) % modulus`, coordinatewise on tuples when
    `vector`; built by `residue_add` and `vector_mod_add`."""

    modulus: int
    vector: bool = False

    def __call__(self, a, b):
        if self.vector:
            return tuple((x + y) % self.modulus for x, y in zip(a, b))
        return (a + b) % self.modulus


def residue_add(m):
    return ModularAdd(m)


def vector_mod_add(q):
    return ModularAdd(q, vector=True)


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


def _as_int(x):
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidParams(f"element {x!r} is not an integer") from None


def _coordinates(elements, add, h):
    """(level-1 rows, per-column modulus or None, per-column key radix, digit
    width b or None, sum of an index multiset in the caller's encoding)."""
    if add is operator.add:
        values = [_as_int(e) for e in elements]
        lo = min(values, default=0)
        span = h * (max(values, default=0) - lo) + 1  # every k <= h sum offset is below it
        b = 64 if span <= 2**64 else 64 - h.bit_length()  # so h digits < 2^b fit a uint64
        limbs = -(-(span - 1).bit_length() // b) or 1
        rows = np.array([[(v - lo) >> (b * i) & (2**b - 1) for i in range(limbs)]
                         for v in values], dtype=np.uint64).reshape(-1, limbs)
        radices = [2**b] * (limbs - 1) + [((span - 1) >> (b * (limbs - 1))) + 1]
        return rows, None, radices, b, lambda combo: sum(values[i] for i in combo)
    if not isinstance(add, ModularAdd):
        raise InvalidParams("add must be operator.add, residue_add(m) or vector_mod_add(q)")
    q = _as_int(add.modulus)
    if not 1 <= q < 2**62:
        raise InvalidParams(f"modulus {q} outside 1..2^62")
    rows = [tuple(_as_int(x) % q for x in (e if add.vector else (e,))) for e in elements]
    width = len(rows[0]) if rows else 1
    if width == 0 or any(len(r) != width for r in rows):
        raise InvalidParams("vectors must share one positive length")

    def value(combo):
        total = tuple(sum(col) % q for col in zip(*(rows[i] for i in combo)))
        return total if add.vector else total[0]
    arr = np.array(rows, dtype=np.min_scalar_type(2 * q - 2)).reshape(-1, width)
    return arr, np.full(width, q, arr.dtype), [q] * width, None, value


class _Sums:
    """The size-k multiset sums of one element list, k = 1..h, as uint64 keys.

    Level k lists the size-k index multisets in colex order: those with
    largest index j are every level-(k-1) row whose largest index is <= j (the
    first `ends[k-1][j]` rows of that level) plus element j, one vectorised
    add; `ends[k]` decodes a row number back to its multiset.  Levels below
    the top are held in memory one at a time; the top is regenerated per pass."""

    def __init__(self, elements, add, h):
        self.first, self.moduli, radices, self.b, self.value = _coordinates(elements, add, h)
        self.h, self.m = h, len(self.first)
        self.ends = [None, np.arange(1, self.m + 1)]
        for _ in range(h - 1):
            self.ends.append(np.cumsum(self.ends[-1]))
        self.k, self.state = 1, self.first  # the highest level held in memory
        self.plan, scale = [], 1  # uint64 words as [(column, weight)], each < 2^64
        for c, r in enumerate(radices):
            if not self.plan or scale * r > 2**64:
                self.plan.append([])
                scale = 1
            self.plan[-1].append((c, np.uint64(scale)))
            scale *= r

    def _blocks(self):
        """(first row, rows) of level self.k + 1, about _CHUNK rows at a time."""
        prev, sizes = self.state, self.ends[self.k].tolist()
        ends = self.ends[self.k + 1].tolist()  # rows with largest index i end at ends[i]
        j = 0
        while j < self.m:
            start = ends[j] - sizes[j]
            stop = max(j + 1, bisect_right(ends, start + _CHUNK))
            block = np.empty((ends[stop - 1] - start, prev.shape[1]), prev.dtype)
            for i in range(j, stop):  # a prefix of level self.k plus element i
                lo = ends[i] - sizes[i] - start
                np.add(prev[:sizes[i]], self.first[i], out=block[lo:lo + sizes[i]])
            if self.moduli is not None:  # below the modulus, block - moduli wraps above block
                np.minimum(block, block - self.moduli, out=block)
            yield start, block
            j = stop

    def _pack(self, block):
        """The uint64 key words of some rows (normalising digit carries in place)."""
        for i in range(block.shape[1] - 1 if self.b else 0):
            block[:, i + 1] += block[:, i] >> np.uint64(self.b)
            block[:, i] &= np.uint64(2**self.b - 1)
        words = []
        for (c, _), *rest in self.plan:  # a word's first column has weight 1
            key = block[:, c].astype(np.uint64, copy=False)
            for c, w in rest:
                key = key + block[:, c] * w
            words.append(key)
        return words

    def _key_blocks(self, k):
        """A function yielding the (first row, key words) blocks of level k."""
        while self.k < min(k, self.h - 1):
            self.k, self.state = self.k + 1, np.concatenate([b for _, b in self._blocks()])
        if k == self.k:  # a level held in memory: pack it once
            words = self._pack(self.state)
            return lambda: [(0, words)]
        return lambda: ((start, self._pack(block)) for start, block in self._blocks())

    def groups(self, k, threshold):
        """dict sum -> lex-ordered index multisets, for the size-k sums hit at least
        `threshold` times, in lex order of their first multisets; k must not decrease."""
        if self.m == 0:
            return {}
        blocks = self._key_blocks(k)
        keys = np.empty(self.ends[k][-1], np.uint64)
        for start, words in blocks():
            keys[start:start + len(words[0])] = words[0]
        keys.sort()  # in place; only values matter, so any sort kind gives the same result
        t = threshold - 1
        dup = np.unique(keys[t:][keys[t:] == keys[:len(keys) - t]])  # first words only
        del keys
        if not len(dup):
            return {}
        rows, candidates = [], []
        for start, words in blocks():  # pass two: the rows whose first word is duplicated
            hit = np.flatnonzero(np.isin(words[0], dup))
            rows.append(hit + start)
            candidates.append([w[hit] for w in words])
        whole = np.stack([np.concatenate(w) for w in zip(*candidates)], axis=1)
        labels = np.unique(whole, axis=0, return_inverse=True)[1].reshape(-1)
        keep = np.bincount(labels)[labels] >= threshold
        rows, labels, cols = np.concatenate(rows)[keep], labels[keep], []
        for level in range(k, 1, -1):  # decode rows to multisets, largest index first
            j = np.searchsorted(self.ends[level], rows, side="right")
            cols.append(j)
            rows = rows - self.ends[level][j] + self.ends[level - 1][j]
        idx = np.stack([rows] + cols[::-1], axis=1)
        order = np.lexsort(idx.T[::-1])
        groups = {}
        for v, combo in zip(labels[order].tolist(), idx[order].tolist()):
            groups.setdefault(v, []).append(tuple(combo))
        return {self.value(cols[0]): cols for cols in groups.values()}


# ---------------------------------------------------------------------------
# verifiers: return None on pass, a Violation otherwise

def _capped_sums(elements, h, add, cap):
    elements = list(elements)
    if h < 1:
        raise InvalidParams(f"h = {h} must be >= 1")
    if multiset_count(len(elements), h) > cap:
        raise CapExceeded(f"{multiset_count(len(elements), h)} size-{h} multisets over "
                          f"{len(elements)} elements exceeds cap {cap}")
    return _Sums(elements, add, h)


def verify_bh(elements, h, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """Pass iff every size-h multiset sum is hit by exactly one multiset."""
    return _verify_bhg(elements, h, 1, add, cap)


def verify_bhg(elements, h, g, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """Pass iff every sum value is hit by at most g multisets."""
    if g < 1:
        raise InvalidParams("g must be >= 1")
    return _verify_bhg(elements, h, g, add, cap)


def _verify_bhg(elements, h, g, add, cap):
    groups = _capped_sums(elements, h, add, cap).groups(h, g + 1)
    if not groups:
        return None
    s, cols = min(groups.items(), key=lambda kv: kv[1][:g + 1])
    return Violation(k=h, columns=tuple(cols[:g + 1]), sum_value=s)


def verify_bh_sharp(elements, h, d, *, add=operator.add, cap=DEFAULT_ENUM_CAP):
    """Pass iff for every sum, all decompositions use at most d distinct codewords."""
    if d < h:
        raise InvalidParams(f"d = {d} < h = {h}")
    # any sum with support > d is hit by >= 2 multisets, so restrict to duplicates
    groups = _capped_sums(elements, h, add, cap).groups(h, 2)
    for s in sorted(groups, key=lambda s: groups[s][:2]):
        if len({i for col in groups[s] for i in col}) > d:
            return Violation(k=h, columns=tuple(groups[s]), sum_value=s)
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
        if not set(combo[0]).intersection(*combo[1:]):
            yield combo


def _minimal_violations(elements, h, g, *, add=operator.add, cap=DEFAULT_ENUM_CAP,
                        per_sum_cap=None):
    """(minimal violations, k = h groups).

    Minimal violations are g+1 distinct equal-sum index multisets with no index
    common to all columns, for every k in 1..h, in lex order; for g = 1 that is a
    disjoint pair.  The k = h groups (sums hit >= g+1 times) are the ones they
    were read from.  per_sum_cap=None skips the per-sum combination cap."""
    out, groups, sums = [], {}, _capped_sums(elements, h, add, cap)
    for k in range(1, h + 1):
        groups = sums.groups(k, g + 1)
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
    return verify_bh(encode_binary_words(code.words, h)[0], h, cap=cap)


def verify_code_bhg(code: BinaryCode, h, g, cap=DEFAULT_ENUM_CAP):
    return verify_bhg(encode_binary_words(code.words, h)[0], h, g, cap=cap)


def verify_code_bh_sharp(code: BinaryCode, h, d, cap=DEFAULT_ENUM_CAP):
    return verify_bh_sharp(encode_binary_words(code.words, h)[0], h, d, cap=cap)
