"""Ground-truth brute-force verifiers for B_h / B_h[g] / B_h^#[d] properties.

`add` names the ambient: integers under `operator.add` (the default),
residues under `residue_add(m)`, vectors over Z_q under `vector_mod_add(q)`.
Sums are reported in the caller's encoding: an int, a residue, a tuple.
Binary codes (`verify_code_*`, and the random-coding pipeline) enter as one
(m, n) uint8 bit matrix whose rows are read as radix-(h+1) digits; their sums
are reported as the words' base-(h+1) integers, first bit most significant.

One numpy engine, `_Sums`, serves every ambient.  An element, and a sum, is
a row of uint64 words: an integer's offset from the least element (integers
whose h-fold sums span more than 2^64 values raise CapExceeded), a
bit-word's radix-(h+1) digits, which never carry, or a vector's coordinates
mod q in guarded lanes (`_lanes`), a residue being a vector of one
coordinate.  Level k (the size-k multisets) is level k-1 plus one element
per vectorised add, held as one uint64 key per row, except for vectors whose
lanes fill several words (Z_13^10 fits in 60 bits, Z_13^11 does not).  A
level is scanned in buckets by a sum class, one bucket at a time and in two
passes: pass one sorts the bucket's keys in place and keeps those held by
threshold or more rows; pass two regenerates only a bucket that has some,
keeps the numbers of the rows holding them and groups the exact sums it
rebuilds from their multisets.  Pass one keeps whole keys at threshold 2 and
their low 32 bits, which sort in about half the time, at threshold 3 or
more; a false match costs time, never a wrong answer.  Large levels have
half-size buckets and run pass one on a thread pool, one thread per CPU in
the process's affinity mask (`taskset -c 0` confines it to one core), with
output independent of the thread count.  Peak memory is one bucket of keys
per thread plus the level below the top, at one word per row (C words for
vectors of C > 1 words).

The random-coding pipeline enumerates each population once: pruning reads
its minimal violations, and `random_coding.construct` its final verdict,
from the same duplicate-sum groups (`_minimal_violations`).  Callers that
need an independent check (`bhlab verify`, the tests) run the verifiers
below on the finished code.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .constructions import BinaryCode
from .errors import CapExceeded, InvalidParams

DEFAULT_ENUM_CAP = 2**26  # size-h multisets one oracle call may enumerate
DEFAULT_PER_SUM_CAP = 200_000  # B_h[g] column combinations read from one sum
_CHUNK = 2**16  # rows per generated block: bounds temporaries, amortises numpy calls
_BUCKET_KEYS = 2**19  # a large level's buckets hold 1/2-1x this many keys: each sorts in cache
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # most pass-one threads: the CPUs this process may use
_MIX = 0x9E3779B97F4A7C15  # odd: the multiplier of a row's key (see `_Sums`)


# ---------------------------------------------------------------------------
# element encodings

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


_BIT_WORDS = object()  # the `add=` ambient of a (m, n) 0/1 uint8 matrix of bit-words


def _residue_classes(rows, B):
    """Word 0 mod B: an integer's offset (B a power of two, so its low bits),
    or a vector's first word of lanes (B a divisor of q, and a reduction
    subtracts multiples of q from it, so it adds like the vectors)."""
    return (rows[0] % B).astype(np.intp)


def _digit_rows(bits, h):
    """Bit-words as rows of radix-(h+1) digits, returned as `_coordinates`
    returns an ambient.  Digit i is bit n-1-i, so a row reads as the word's
    base-(h+1) encoding; k <= h words add digitwise without carry.  Each
    uint64 word holds, lowest digits first, as many digits as keep an h-fold
    sum below 2^64 (40 at h = 2, 18 at h = 10)."""
    radix, (m, n) = h + 1, bits.shape
    per = 1
    while radix ** (per + 1) <= 2**64:
        per += 1
    widths = [min(per, n - lo) for lo in range(0, n, per)] or [0]
    rows, digits = np.empty((len(widths), m), np.uint64), bits[:, ::-1]
    for c, w in enumerate(widths):
        powers = np.uint64(radix) ** np.arange(w, dtype=np.uint64)
        rows[c] = digits[:, c * per:c * per + w] @ powers
    scales = [radix ** (per * c) for c in range(len(widths))]

    def classes(block, B):
        """The low log2(B) digits d_i, read from the bits, as sum(2^i d_i)."""
        low = digits[:, :B.bit_length() - 1]
        return (low @ (1 << np.arange(low.shape[1]))).astype(np.intp)

    def value(combo):
        return sum(x * s for i in combo for x, s in zip(rows[:, i].tolist(), scales))
    return rows, None, None, classes, value


def _lanes(vectors, q, width):
    """(rows, reduce) of vectors over Z_q of `width` coordinates, as
    `_coordinates` returns them.  Each coordinate is a lane of
    w = bit_length(2q - 2) + 1 bits, so two reduced lanes sum below 2^(w-1),
    the lane's guard bit; coordinate i is lane i // C of word i % C, in the
    fewest words C that hold them all.
    Adding 2^(w-1) - q to every lane sets the guard bit of exactly the lanes
    that hold q or more, and carries into no other lane, so `reduce(x)`
    subtracts q from those lanes of the rows x, in place."""
    w = (2 * q - 2).bit_length() + 1
    words = -(-width // (64 // w))
    rows = np.zeros((words, len(vectors)), np.uint64)
    for i, coordinate in enumerate(np.array(vectors, np.uint64).reshape(-1, width).T):
        rows[i % words] |= coordinate << np.uint64(w * (i // words))
    lanes = sum(1 << w * i for i in range(64 // w))  # bit 0 of every lane
    bias, guard, shift, modulus = (np.uint64(x) for x in (
        lanes * (2**(w - 1) - q), lanes << w - 1, w - 1, q))

    def reduce(x):  # in place on one temporary: a level's reduction is as large as the level
        t = x + bias
        t &= guard
        t >>= shift
        t *= modulus
        x -= t
    return rows, reduce


def _coordinates(elements, add, h):
    """(level-1 rows as a column-major (C, m) uint64 array, the modulus or
    None, the in-place reduction of rows mod it or None, class map (rows, B)
    -> classes in Z_B that adds like the sums, sum of an index multiset in
    the caller's encoding)."""
    if add is _BIT_WORDS:
        return _digit_rows(elements, h)
    if add is operator.add:
        values = [_as_int(e) for e in elements]
        lo = min(values, default=0)
        span = h * (max(values, default=0) - lo) + 1  # every k <= h sum offset is below it
        if span > 2**64:
            raise CapExceeded(f"the {h}-fold sums of these integers span {span} > 2^64 values")
        rows = np.array([v - lo for v in values], dtype=np.uint64).reshape(1, -1)
        return rows, None, None, _residue_classes, lambda combo: sum(values[i] for i in combo)
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
    lanes, reduce = _lanes(rows, q, width)
    return lanes, q, reduce, _residue_classes, value


def _skew(v):
    """[r, a] -> v[(r - a) % len(v)], as a view: row r is v rotated by r and reversed."""
    return np.lib.stride_tricks.sliding_window_view(np.tile(v, 2), len(v))[1:, ::-1]


def _cut(parts):
    """(the part each piece comes from, the pieces): `parts` cut, in order,
    into pieces of at most _CHUNK rows: runs of _CHUNK // (g1 - g0) elements,
    or single elements onto _CHUNK rows at a time."""
    e0, e1, g0, g1 = parts.T
    run, across = np.maximum(1, _CHUNK // (g1 - g0)), -(-(g1 - g0) // _CHUNK)
    part = np.repeat(np.arange(len(parts)), -(-(e1 - e0) // run) * across)
    e0, e1, g0, g1, run, across = (x[part] for x in (e0, e1, g0, g1, run, across))
    i, row = np.divmod(np.arange(len(part)) - np.searchsorted(part, part), across)
    e0, g0 = e0 + i * run, g0 + row * _CHUNK
    return part, np.stack([e0, np.minimum(e0 + run, e1), g0, np.minimum(g0 + _CHUNK, g1)], axis=1)


def _key(block):
    """The uint64 keys of a (C, N) block of rows (see `_Sums`); a view of a
    block of one word per row."""
    key = block[0].astype(np.uint64, copy=len(block) > 1)
    for c in range(1, len(block)):
        key += block[c] * np.uint64(pow(_MIX, c, 2**64))
    return key


def _distinct(a):
    """The distinct values of a sorted 1-D array.  Not `np.unique`: numpy 2.4's
    1-D `unique` (and so `union1d`) calls `np.ma.is_masked`, which imports
    `numpy.ma`, 16-19 ms and about 1 MB, on a process's first call."""
    keep = np.ones(len(a), bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _among(keys, values):
    """The indices of the `keys` that are in the sorted, distinct `values`, by one
    binary search.  Not `np.isin`, which dedupes more than about 55 values with
    1-D `np.unique` (see `_distinct`)."""
    return np.flatnonzero(values.take(np.searchsorted(values, keys), mode="clip") == keys)


class _Sums:
    """The size-k multiset sums of one element list, k = 1..h, each level
    held as one uint64 word per row, or column-major as a (C, rows) array.

    A row's key is one uint64 word, sum(word c * _MIX^c) mod 2^64: the row
    itself for one word.  A key adds like the sum wherever the sum has no
    modulus (integer offsets, bit-word digits): key(x + y) = key(x) + key(y)
    mod 2^64, and so mod 2^32.  So every level is held and generated as its
    keys, one word per row, except for vectors of several words, which are
    held as their reduced rows and keyed a block at a time; `first` holds the
    elements' exact rows and `base` the elements as levels hold them.  Pass
    one finds duplicated keys; pass two keeps the numbers of the rows that
    hold them, decodes their multisets, rebuilds their exact sums from `first`
    (`_sums`) and groups those, so a key shared by distinct sums costs time,
    never a wrong answer.

    Level k lists the size-k index multisets in colex order: those with
    largest index j are every level-(k-1) row whose largest index is <= j (the
    first `ends[k-1][j]` rows of that level) plus element j, one vectorised
    add; `ends[k]` decodes a row number back to its multiset.  Levels below the
    top are held in memory one at a time, in colex order.

    A level is scanned in B buckets, by a class in Z_B that adds like the
    sums: an integer's offset mod B, a vector's first word (its lanes, reduced
    mod q) mod the largest divisor of q that is at most B, or, for bit-words,
    sum(2^i d_i) over their low log2(B) radix-(h+1) digits d_i, which never
    carry.  The elements' classes are read from their exact rows and a held
    level's are generated with it, as sums of its elements' classes
    (`state_cls`), so a level held as keys is classed as its sums are.  Equal
    sums have equal classes, so each bucket is sorted and scanned for
    duplicates on its own.  A top level below 2 * _BUCKET_KEYS keys is one
    bucket; a larger one has B buckets, B the largest power of two, at most m,
    that leaves _BUCKET_KEYS / 2 or more keys per bucket, so that two buckets
    in flight hold no more keys than one bucket of twice that size.  A level
    of 2 * _BUCKET_KEYS keys or more runs pass one (generate, sort in place,
    keep the keys held by threshold or more rows) on up to _WORKERS threads,
    one bucket per task; each thread reuses one key buffer: uint64 at
    threshold 2, and at threshold 3 or more uint32, the low 32 bits of the key
    (see `_pass_one`).  Pass two reads the results in bucket order and selects
    rows (the top level's regenerated) by the same width of key.  A smaller
    level, and one with a single bucket to scan, starts no thread.  The
    elements are relabelled in class order, and a held level is grouped by
    class through a stable permutation (none for one class or for the
    elements); the colex copy of the top-1 level is dropped once it is
    grouped.  Bucket r of the top level is, for each class a, broadcast adds
    of class a's elements onto the group-(r-a) rows whose largest index lies
    below class a, plus one add per element j of class a for the group rows
    ending inside class a at or before j; `_plan` builds these parts for all
    class pairs with array operations.  A bucket with fewer keys than the
    threshold cannot hold a duplicate and is skipped.  The top level is
    generated a bucket at a time, in blocks of fewer than 2 * _CHUNK rows,
    once per pass.  Peak memory is one bucket of keys per thread plus the held
    level (and, if B > 1, its classes, a byte or two per row): twice that
    while it is grouped, and 1.5 times while pass one makes its uint32 keys."""

    def __init__(self, elements, add, h):
        first, q, self.reduce, classes, self.value = _coordinates(elements, add, h)
        self.h, self.m = h, first.shape[1]
        self.ends = [None, np.arange(1, self.m + 1)]
        for _ in range(h - 1):
            self.ends.append(np.cumsum(self.ends[-1]))
        self.B, count = 1, multiset_count(self.m, h)
        while count >= 2 * _BUCKET_KEYS and 2 * self.B <= min(2 * count // _BUCKET_KEYS, self.m):
            self.B *= 2
        if q is not None:  # word 0 mod the largest divisor of q that is at most B
            self.B = max(d for d in range(1, self.B + 1) if q % d == 0)
        cls = classes(first, self.B)
        self.perm = np.argsort(cls, kind="stable")  # relabelled index -> caller's index
        self.start = np.searchsorted(cls[self.perm], np.arange(self.B + 1))  # class a: start[a]..
        self.first = first[:, self.perm]  # exact rows: pass two adds them up
        # the elements as levels hold them: additive rows of several words as their keys
        self.base = self.first if q is not None or len(first) == 1 else _key(self.first)[None]
        self.k, self.state = 1, self.base  # the highest level held in memory
        # the classes of `first` and of `state`, in a dtype that holds h of them added
        self.first_cls = self.state_cls = cls[self.perm].astype(
            np.min_scalar_type(h * (self.B - 1)))[None]
        self.grouping = None  # (rows, group offsets, permutation or None) of the held level
        self.plan = None  # the blocks of level self.k + 1, bucket by bucket

    def _rows(self, parts, first, prev, out, reduce=True):
        """Fill `out`, (C, rows), with the rows of some parts, an array of rows
        (e0, e1, g0, g1), of level self.k + 1: elements e0..e1-1 of `first`
        (self.base, its keys or its classes), each added to the rows g0..g1-1
        of `prev` (the held rows, their keys or their classes), one word at a
        time, and, if `reduce`, the lanes of vectors reduced."""
        lo = 0
        for e0, e1, g0, g1 in parts.tolist():
            hi = lo + (e1 - e0) * (g1 - g0)
            part = out[:, lo:hi]
            np.add(first[:, e0:e1, None], prev[:, None, g0:g1],
                   out=part.reshape(len(part), e1 - e0, g1 - g0))
            if reduce and self.reduce is not None:
                self.reduce(part)
            lo = hi
        return out

    def _advance(self):
        """Hold level self.k + 1 in memory, in colex order."""
        last = self.ends[self.k]
        parts = np.stack([np.arange(self.m), np.arange(1, self.m + 1), np.zeros_like(last), last],
                         axis=1)
        size = self.ends[self.k + 1][-1]
        out = np.empty((len(self.state), size), self.state.dtype)
        self.state = self._rows(parts, self.base, self.state, out)
        if self.B > 1:  # classes add like the sums, so `_group` never reads them from rows
            out = np.empty((1, size), self.state_cls.dtype)
            self.state_cls = self._rows(parts, self.first_cls, self.state_cls, out, reduce=False)
        self.k, self.grouping, self.plan = self.k + 1, None, None

    def _group(self):
        """Group the held level by class, each group in colex order."""
        rows, order = self.state, None  # no permutation: an identity one costs peak memory
        if self.k == 1 or self.B == 1:  # the elements are relabelled in class order
            goff = self.start if self.k == 1 else np.array([0, rows.shape[1]])
        else:
            cls = self.state_cls[0] % self.B
            order = np.argsort(cls, kind="stable")
            goff = np.append(0, np.bincount(cls, minlength=self.B).cumsum())
            rows = rows[:, order]
        if self.k == self.h - 1:  # `_advance` never reads the colex top-1 level
            self.state = self.state_cls = None
        self.grouping = rows, goff.tolist(), order

    def _number(self, g):
        """The colex row numbers of grouped held rows g."""
        order = self.grouping[2]
        return g if order is None else order[g]

    def _plan(self):
        """Bucket by bucket, the blocks (rows, parts) of level self.k + 1; parts
        are as in `_rows`, over the grouped held level.  They are built with
        array operations over the cells (r, a) of buckets r and classes a, where
        bucket r adds class a's elements to group c = r - a mod B (read through
        `_skew`), about _CHUNK cells (a slice of buckets) at a time, which bounds
        the temporaries.  The rect parts (a class onto the group rows below it)
        and the diagonal ones (an element onto the group rows ending inside its
        class) are blocked separately: parts of more than _CHUNK rows are cut,
        and a block holds a bucket's parts that start in one stretch of _CHUNK
        rows, so it has fewer than 2 * _CHUNK rows."""
        # int32 indices, half the memory to touch (2^31 held rows would take 16 GiB)
        held, goff, order = self.grouping
        B, (start, goff, last) = self.B, (np.array(x, np.int32) for x in (
            self.start, goff, self.ends[self.k]))  # last[j]: held rows whose largest index is <= j
        size, bounds = np.diff(start), np.append(np.int32(0), last)[start]  # rows below class a
        if order is not None:  # c * (held rows) + colex number increases along the grouped rows
            base = np.arange(B, dtype=np.int64) * held.shape[1]
            keys = np.repeat(base, np.diff(goff)) + order

        def count(pick, numbers):
            """How many rows of groups `pick(v)` have a colex row number below
            `numbers`; `pick` maps a per-group vector v to the groups wanted."""
            if order is None:
                return np.clip(numbers - pick(goff[:-1]), 0, pick(np.diff(goff)))
            return np.searchsorted(keys, pick(base) + numbers) - pick(goff[:-1])
        self.plan, step = [], max(1, _CHUNK // B)
        for r0 in range(0, B, step):
            def skew(v):  # [r - r0, a] -> v[c], for the slice's buckets r
                return _skew(v)[r0:r0 + step]
            below = count(skew, bounds[:-1])  # group-c rows below class a
            rect = np.flatnonzero((below > 0) & (size > 0))  # class a's elements onto them
            diag = np.flatnonzero(count(skew, bounds[1:]) > below)  # rows ending inside class a
            n, below, a = len(below), below.ravel(), rect % B
            g0 = skew(goff[:-1]).ravel()[rect]
            rects = np.stack([start[a], start[a + 1], g0, g0 + below[rect]], axis=1)
            # each element j of class a onto the group-c rows ending at or before j
            diag = np.repeat(diag, size[diag % B])
            j = start[diag % B] + np.arange(len(diag)) - np.searchsorted(diag, diag)
            c = (r0 + diag // B - diag % B) % B
            p, q = below[diag], count(lambda v: v[c], last[j])
            keep = q > p
            diag, j, c, p, q = diag[keep], j[keep], c[keep], p[keep], q[keep]
            diags = np.stack([j, j + 1, goff[c] + p, goff[c] + q], axis=1)
            plan = [[] for _ in range(n)]
            for cells, parts, rows in ((rect, rects, size[a].astype(np.int64) * below[rect]),
                                       (diag, diags, q - p)):
                if rows.max(initial=0) > _CHUNK:
                    piece, parts = _cut(parts)
                    e0, e1, g0, g1 = parts.T
                    cells, rows = cells[piece], (e1 - e0) * (g1 - g0)
                offset = np.cumsum(rows) - rows
                buckets = np.searchsorted(cells, np.arange(n + 1) * B)  # each one's first part
                stretches = np.searchsorted(offset, np.arange(0, rows.sum(), _CHUNK))
                # a new bucket, or a new stretch of _CHUNK rows, starts a block
                firsts = _distinct(np.sort(np.concatenate([buckets, stretches])))
                firsts = firsts[firsts < len(parts)]
                blocks = [(total, parts[i:j]) for total, i, j in zip(
                    np.add.reduceat(rows, firsts).tolist(), firsts.tolist(),
                    firsts[1:].tolist() + [len(parts)])]
                at = np.searchsorted(firsts, buckets).tolist()
                plan = [have + blocks[i:j] for have, i, j in zip(plan, at, at[1:])]
            self.plan += plan

    def _numbers(self, parts, hit):
        """The level self.k + 1 row numbers of the rows `hit` of a block made of `parts`."""
        e0, e1, g0, g1 = parts.T
        w = g1 - g0
        lo = np.cumsum((e1 - e0) * w) - (e1 - e0) * w
        p = np.searchsorted(lo, hit, side="right") - 1
        j = e0[p] + (hit - lo[p]) // w[p]
        g = g0[p] + (hit - lo[p]) % w[p]
        return self.ends[self.k + 1][j] - self.ends[self.k][j] + self._number(g)

    def _bucket(self, k, r):
        """(rows, row-number function) per block of bucket r of level k."""
        rows, goff, _ = self.grouping
        if k == self.k:  # held: one block
            yield rows[:, goff[r]:goff[r + 1]], lambda hit: self._number(hit + goff[r])
            return
        for size, parts in self.plan[r]:
            out = np.empty((len(rows), size), rows.dtype)
            yield (self._rows(parts, self.base, rows, out),
                   lambda hit, parts=parts: self._numbers(parts, hit))

    def _duplicated(self, k, r, t, keys, direct):
        """Pass one over bucket r of level k: the sorted keys, in the dtype of
        the key buffer `keys`, held by more than t of its rows.  With `direct` =
        (elements, held rows) as one-row arrays of keys in that dtype, the keys
        are generated straight into `keys`; otherwise they are made from the
        rows by `_key` and, into a uint32 buffer, truncated to their low 32 bits."""
        lo = 0
        if direct is not None:
            for size, parts in self.plan[r]:
                self._rows(parts, *direct, keys[None, lo:lo + size])
                lo += size
        else:
            for block, _ in self._bucket(k, r):
                keys[lo:lo + block.shape[1]] = _key(block)
                lo += block.shape[1]
        keys = keys[:lo]
        keys.sort()  # in place; only values matter, so any sort kind gives the same result
        found = []
        for i in range(0, lo - t, _CHUNK):  # _CHUNK at a time: no mask as long as the bucket
            j = min(i + _CHUNK, lo - t)
            found.append(keys[i + t:j + t][keys[i + t:j + t] == keys[i:j]])
        return _distinct(np.concatenate(found))

    def _pass_one(self, k, t, live, sizes):
        """`_duplicated` for the buckets `live` of level k, in their order; on a
        thread pool if the level holds 2 * _BUCKET_KEYS keys or more.

        Keys are uint64 at t = 1 and their low 32 bits at t >= 2, where a sort
        costs about half as much per key.  Keeping every 32-bit value that more
        than t rows hold still keeps every duplicated key, so pass one stays a
        superset filter.  A bucket of a large level holds fewer than 2^20 keys
        (unless m or q limits B), so false 32-bit triples average at most
        C(2^20, 3) / 2^64, about 0.01 per bucket, and about 2.7 in one bucket
        of all DEFAULT_ENUM_CAP keys; each costs a pass-two regeneration, never
        a wrong answer.  False pairs would average about 32 per bucket, and
        locating them costs more than the narrower sort saves, hence t = 1
        keeps uint64.  Where keys add like the sums (see `_Sums`), so do their
        low 32 bits: the top level's keys of either width are generated from
        the element and held-level keys in that width, made once per call.  A
        vector of one word, its own key once reduced, is generated straight
        into a uint64 buffer."""
        if not live:
            return []
        dtype, held = (np.uint64 if t == 1 else np.uint32), self.grouping[0]
        direct = None  # the top level generated as its keys (see `_Sums`)
        if k > self.k and self.reduce is None:
            direct = tuple(_key(a).astype(dtype, copy=False)[None] for a in (self.base, held))
        elif k > self.k and t == 1 and len(held) == 1:
            direct = self.base, held  # a reduced vector of one word is its own key
        size = max(sizes[r] for r in live)
        workers = min(_WORKERS, len(live)) if sum(sizes) >= 2 * _BUCKET_KEYS else 1
        # made by this thread: a pool thread's own buffer would stay in its malloc arena
        buffers = [np.empty(size, dtype) for _ in range(workers)]
        if workers == 1:
            return [self._duplicated(k, r, t, buffers[0], direct) for r in live]
        from concurrent.futures import ThreadPoolExecutor  # only here: most runs start no pool
        local = threading.local()

        def scan(r):
            if not hasattr(local, "keys"):  # each thread takes one buffer and keeps it
                local.keys = buffers.pop()
            return self._duplicated(k, r, t, local.keys, direct)
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(scan, live))

    def _sums(self, idx):
        """The exact sums, as rows of `first`, of the relabelled index multisets idx (N, k)."""
        total = self.first[:, idx[:, 0]]
        for col in idx.T[1:]:
            total += self.first[:, col]
            if self.reduce is not None:
                self.reduce(total)
        return total

    def groups(self, k, threshold):
        """dict sum -> lex-ordered index multisets, for the size-k sums hit at least
        `threshold` times, in lex order of their first multisets; k must not decrease."""
        if self.m == 0:
            return {}
        while self.k < min(k, self.h - 1):
            self._advance()
        if self.grouping is None:
            self._group()
        if k == self.k:
            sizes = np.diff(self.grouping[1]).tolist()
        else:  # the top level, generated a bucket at a time
            if self.plan is None:
                self._plan()
            sizes = [sum(size for size, _ in blocks) for blocks in self.plan]
        live = [r for r, size in enumerate(sizes) if size >= threshold]  # fewer: no `threshold` equal
        rows = []
        for r, dup in zip(live, self._pass_one(k, threshold - 1, live, sizes)):
            if not len(dup):
                continue
            for block, numbers in self._bucket(k, r):  # pass two: rows whose key is duplicated
                rows.append(numbers(_among(_key(block).astype(dup.dtype, copy=False), dup)))
        if not rows:
            return {}
        rows, cols = np.concatenate(rows), []
        for level in range(k, 1, -1):  # decode rows to multisets, largest index first
            j = np.searchsorted(self.ends[level], rows, side="right")
            cols.append(j)
            rows = rows - self.ends[level][j] + self.ends[level - 1][j]
        idx = np.stack([rows] + cols[::-1], axis=1)
        labels = np.unique(self._sums(idx), axis=1, return_inverse=True)[1].reshape(-1)
        keep = np.bincount(labels)[labels] >= threshold
        idx, labels = np.sort(self.perm[idx[keep]], axis=1), labels[keep]
        order = np.lexsort(idx.T[::-1])
        groups = {}
        for v, combo in zip(labels[order].tolist(), idx[order].tolist()):
            groups.setdefault(v, []).append(tuple(combo))
        return {self.value(cols[0]): cols for cols in groups.values()}


# ---------------------------------------------------------------------------
# verifiers: return None on pass, a Violation otherwise

def _capped_sums(elements, h, add):
    """The multiset sums of `elements`; CapExceeded past DEFAULT_ENUM_CAP size-h multisets."""
    elements = elements if add is _BIT_WORDS else list(elements)
    if h < 1:
        raise InvalidParams(f"h = {h} must be >= 1")
    if multiset_count(len(elements), h) > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"{multiset_count(len(elements), h)} size-{h} multisets over "
                          f"{len(elements)} elements exceeds cap {DEFAULT_ENUM_CAP}")
    return _Sums(elements, add, h)


def verify_bh(elements, h, *, add=operator.add):
    """Pass iff every size-h multiset sum is hit by exactly one multiset."""
    return _verify_bhg(elements, h, 1, add)


def verify_bhg(elements, h, g, *, add=operator.add):
    """Pass iff every sum value is hit by at most g multisets."""
    if g < 1:
        raise InvalidParams("g must be >= 1")
    return _verify_bhg(elements, h, g, add)


def _verify_bhg(elements, h, g, add):
    groups = _capped_sums(elements, h, add).groups(h, g + 1)
    if not groups:
        return None
    s, cols = next(iter(groups.items()))  # the least first multiset: `groups` is in that order
    return Violation(k=h, columns=tuple(cols[:g + 1]), sum_value=s)


def verify_bh_sharp(elements, h, d, *, add=operator.add):
    """Pass iff for every sum, all decompositions use at most d distinct codewords."""
    if d < h:
        raise InvalidParams(f"d = {d} < h = {h}")
    # any sum with support > d is hit by >= 2 multisets, so restrict to duplicates
    groups = _capped_sums(elements, h, add).groups(h, 2)
    for s, cols in groups.items():  # in lex order of their first multisets
        if len({i for col in cols for i in col}) > d:
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
        if not set(combo[0]).intersection(*combo[1:]):
            yield combo


def _minimal_violations(elements, h, g, *, add=operator.add):
    """(minimal violations, k = h groups).

    Minimal violations are g+1 distinct equal-sum index multisets with no index
    common to all columns, for every k in 1..h, in lex order; for g = 1 that is a
    disjoint pair.  The k = h groups (sums hit >= g+1 times) are the ones they
    were read from.  For g > 1, a sum whose multisets have more than
    DEFAULT_PER_SUM_CAP (g+1)-subsets raises CapExceeded."""
    if g < 1:  # threshold g + 1 = 1 would group every sum
        raise InvalidParams("g must be >= 1")
    out, groups, sums = [], {}, _capped_sums(elements, h, add)
    for k in range(1, h + 1):
        groups = sums.groups(k, g + 1)
        for s, cols in groups.items():
            if g > 1 and comb(len(cols), g + 1) > DEFAULT_PER_SUM_CAP:
                raise CapExceeded(f"{len(cols)} multisets share one sum")
            out.extend(Violation(k=k, columns=combo, sum_value=s)
                       for combo in _no_common_index(cols, g))
    out.sort(key=lambda v: (v.k, v.columns))
    return out, groups


def find_minimal_violations(elements, h, *, add=operator.add):
    """All disjoint equal-sum index-multiset pairs, every k in 1..h, lex order."""
    return _minimal_violations(elements, h, 1, add=add)[0]


def find_minimal_violations_bhg(elements, h, g, *, add=operator.add):
    """Minimal B_h[g] violations: g+1 distinct equal-sum index multisets with
    no index common to all columns, every k in 1..h, lex order."""
    return _minimal_violations(elements, h, g, add=add)[0]


# convenience wrappers over BinaryCode

def verify_code_bh(code: BinaryCode, h):
    return verify_bh(code._bits, h, add=_BIT_WORDS)


def verify_code_bhg(code: BinaryCode, h, g):
    return verify_bhg(code._bits, h, g, add=_BIT_WORDS)


def verify_code_bh_sharp(code: BinaryCode, h, d):
    return verify_bh_sharp(code._bits, h, d, add=_BIT_WORDS)
