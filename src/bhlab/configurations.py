"""Exact enumeration of configuration classes and their statistics d(C), p(C).

A configuration of shape (k, l) is stored as the multiset of per-variable
column-multiplicity vectors: variable v contributes vector (m_{v,1}, ...,
m_{v,l}) where m_{v,j} counts occurrences of v in column j.  This determines
the k x l symbol matrix up to variable relabeling; `canonical`, the least
sorted vector tuple over all l! column permutations, names each class.

Validity:
  * every column's multiplicities sum to k,
  * no vector is everywhere positive (no variable in all columns),
  * no two columns agree across every vector (columns are distinct multisets),
  * repetition within a column and sharing across columns never mix: either
    every variable lives in a single column (separable) or every variable
    appears at most once per column (multiplicity-free).

Each kind has its own generator, and `enumerate_conf` returns their union:
  * separable classes are multisets of l integer partitions of k, one per
    column (such columns are always distinct), built directly and named by
    sorting their columns;
  * multiplicity-free classes are 0/1 vectors, grown one column at a time:
    column j+1 puts a 1 on a sub-multiset of the rows so far and adds fresh
    unit rows e_{j+1} up to sum k.  Each level keeps one canonical form per
    class over its first j+1 columns, in the spirit of orderly generation
    (B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
    1998), in numpy arrays: a class is its count of each row code (the row
    read in binary, column 0 first), named by its least code row.  The only
    class of both kinds is the all-distinct one.

Canonical forms and automorphism counts come from one code-block engine
(`_encoded`, `_sorted_codes`).  Vector v of a configuration with entries
below b becomes the base-b code sum_j v_j b^(l-1-j), which sorts as the
tuple does; a configuration shorter than the deepest of its block is padded
with rows of code b^l, which sort last under every column order.  One
matrix product gives every row's code under a block of column orders, each
configuration's codes are sorted per order, and `_least` keeps the
lexicographically least sorted row, fixing a few row positions at a time
(as many codes as one int64 key holds); its digits are the canonical
vectors.  `automorphism_count` counts the orders whose sorted codes equal
those of the identity.  `_multiplicity_free` feeds it _BLOCK children at
a time, their digits the bits of their row codes (the pad code is 2^l);
one step holds at most about _STEP_CODES codes, so past 7 columns
(or for deep configurations) the l! orders come in blocks and the running
least is kept.  Codes must fit int64: b^l >= 2^63 raises CapExceeded rather
than wrap into another class's name.

`enumerate_conf_sharp` bounds the B_h^#[d] family by its definition: with
L = d - h + k, a member has d(C) >= L + 1 and every column deletion leaves at
most L variables, so each column holds d(C) - L >= 1 private variables.  These
are disjoint, so l <= d(C) / (d(C) - L) <= L + 1, and at most k per column, so
d(C) <= L + k.

Both p(C) functions read one exact weight (`_coinciding_weights`).  The law
becomes integer weights over one common denominator D (uniform bits are
weights (1, 1) over D = 2), so p(C) = W / D^d, where W sums the weight
products of the assignments whose l column sums coincide.  Vector v moves the
(l-1)*n0 column differences s_j - s_0 by (v_j - v_0) * x when it draws point
x, so W is the weight of the draws, one per vector, whose moves sum to zero.
It is counted by meet in the middle (E. Horowitz and S. Sahni, "Computing
partitions with applications to the knapsack problem", J. ACM 21, 1974): the
classes of one (d, l) under one law are joined at once, each split into
its first d // 2 vectors and the rest; each half lists its partial sums
(the second half negated) as integer keys that also name the class, merging
equal keys, and W sums the weight products of the keys both halves hold:
one sort per half and one binary search.  A half may hold at most
`entropy.DEFAULT_SUPPORT_CAP` sums: classes that pass it together are joined
in parts, and a class that passes it alone raises CapExceeded before the
step that would pass it allocates.

W is memoised per process (`_WEIGHTS`), per (class vectors, tuple of (point,
weight) pairs).  `precompute_stats` joins a whole family's missing weights
together; `rates` (`rate_bhg`, `rate_bhg_distribution`, `rate_bh_sharp`),
`random_coding`'s E(t) and `bhlab configs enumerate` call it first, and
then `conf_stats` and `conf_stats_general` read one class at a time: each
checks its caps first and divides by D^d itself, so a float law and the
equal rational law share one entry, yet one returns a float and the other a
Fraction.  `rates._family_report` asks for each class's p(C) twice, once to
optimise and once for the table (perfbench's self-test pins both traced
calls); after `precompute_stats` both calls are lookups.  A class the memo
lacks is joined alone.  The memo holds more entries than every shape under
DEFAULT_CELL_CAP has classes together, so no family under the default cap
evicts an entry before its table pass reads it.

Each shape's classes are kept too (`_shape_classes`, unbounded: the shapes
under the cap are finite), keyed by (k, l, vector limit) with the limit
lowered to k*l, so `enumerate_conf_upto`, `enumerate_conf_sharp`, the rate
tables, E(t) and `bhlab configs enumerate` build each shape once per
process.  `enumerate_conf` checks DEFAULT_CELL_CAP on every call before the
lookup and returns a new list.  The rate tables and E(t) read a law once
per family (`_read_law`, then `_law_stats` per class); `conf_stats_general`
validates on every call.  No law is cached: a float point equals, and
hashes as, the integer one that it must be refused against.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement, islice, permutations, product
from math import comb, factorial, gcd, lcm, prod
from operator import attrgetter, mul

import numpy as np

from . import entropy as _entropy
from .entropy import FLOAT_MASS_TOL, _as_fraction, _as_point, _check_points, _exact
from .errors import CapExceeded, InvalidDistribution, InvalidParams

DEFAULT_CELL_CAP = 18    # k*l of an enumerated shape
DEFAULT_EXACT_CAP = 24   # d(C) for exhaustive p(C); d(C)*n0 <= 2x this for a general law
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_WEIGHTS_CACHED = 16384  # (class, law) p(C) weights kept per process; the
                         # shapes with k*l <= 18 have 8774 classes together,
                         # so `_shape_classes` needs no bound
_VECTORS = attrgetter("vectors")  # sorts classes as their generated order does


@dataclass(frozen=True, order=True)
class Configuration:
    vectors: tuple  # canonical sorted multiset of multiplicity vectors

    @property
    def l(self):
        return len(self.vectors[0])

    @property
    def k(self):
        return sum(v[0] for v in self.vectors)

    @property
    def d(self):
        return len(self.vectors)

    def columns(self):
        """Columns as sorted tuples of variable ids (0-based by vector order)."""
        cols = []
        for column in zip(*self.vectors):
            col = []
            for var, m in enumerate(column):
                col += [var] * m
            cols.append(tuple(col))
        return tuple(cols)

    def is_separable(self):
        return all(sum(1 for x in v if x) == 1 for v in self.vectors)

    def delete_column_distinct(self, j):
        """Number of distinct variables left after deleting column j."""
        return sum(1 for v in self.vectors if any(x for i, x in enumerate(v) if i != j))

    def __repr__(self):  # variable v is letter v, or v<v> from the 27th on, once per occurrence
        names = _LETTERS if self.d <= len(_LETTERS) else [*_LETTERS] + [
            f"v{v}" for v in range(len(_LETTERS), self.d)]
        return f"Conf({'|'.join(''.join(map(mul, names, column)) for column in zip(*self.vectors))})"


def canonical(vectors):
    """Least representative over simultaneous column permutations."""
    return Configuration(_canonical_all([vectors])[0])


# ---------------------------------------------------------------------------
# the code-block engine

_STEP_CODES = 1 << 18  # codes one engine step holds (2 MiB of int64)
_BLOCK = 32            # children the multiplicity-free generator canonicalises per call
_PICKS = 1 << 12       # candidate picks, by the product bound, of one _children call
_TABLE_COLUMNS = 7     # the orders of up to 7 columns come from one cached table
_TOP = np.iinfo(np.int64).max


@lru_cache(maxsize=None)
def _place_table(m):
    """Rows (0, 1 + s(0), ..., 1 + s(m-1)) over all m! orders s of range(m)."""
    orders = np.array(list(permutations(range(m))), dtype=np.intp).reshape(-1, m)
    table = np.hstack([np.zeros((len(orders), 1), dtype=np.intp), 1 + orders])
    table.flags.writeable = False  # one cached array serves every caller
    return table


def _place_rows(l, size):
    """Every column order of range(l), in blocks of at most `size` rows of
    indices into the place values (b^l, b^(l-1), ..., 1): the pad flag takes
    b^l, and column c the place of its position s(c).  Past 7 columns, each
    choice of positions for the first l - 7 columns heads the table of the
    last 7."""
    m = min(l, _TABLE_COLUMNS)
    table = _place_table(m)
    for head in permutations(range(l), l - m):
        rows = table
        if head:
            rest = np.array([0] + [1 + s for s in range(l) if s not in head], dtype=np.intp)[table]
            rows = np.hstack([rest[:, :1], np.tile(1 + np.array(head), (len(rest), 1)), rest[:, 1:]])
        for start in range(0, len(rows), size):
            yield rows[start:start + size]


def _encoded(configs):
    """(digits, places): configurations of one l as an (n, depth, l + 1) array
    of rows, each row a pad flag and then the vector, with the place values
    (b^l, b^(l-1), ..., 1), b = 1 + the largest entry.  A vector's code, its
    digits times the places, sorts as the vector does, and a pad row (flag
    1, vector 0) codes to b^l, above every vector under every column order.
    Each configuration is padded to the deepest one's row count."""
    l = len(configs[0][0])
    counts = np.array([len(c) for c in configs])
    real = np.arange(counts.max()) < counts[:, None]
    digits = np.zeros(real.shape + (l + 1,), dtype=np.int64)
    digits[:, :, 0] = ~real
    digits[real, 1:] = np.fromiter(chain.from_iterable(chain.from_iterable(configs)),
                                   dtype=np.int64, count=counts.sum() * l).reshape(-1, l)
    if digits.min() < 0:
        raise InvalidParams("multiplicity vectors hold no negative entry")
    base = 1 + int(digits[:, :, 1:].max())
    if base ** l >= 2 ** 63:
        raise CapExceeded(f"codes of {l} digits in base {base} exceed 63 bits")
    return digits, np.array([base ** e for e in range(l, -1, -1)], dtype=np.int64)


def _sorted_codes(digits, places):
    """Yield (first, codes), one step of at most about _STEP_CODES codes at a
    time: codes[i, p] is the ascending code row of configuration first + i
    under the p-th column order of the step's block of orders.  A block of
    configurations comes under all its orders before the next block starts."""
    n, depth, width = digits.shape
    columns = digits.transpose(0, 2, 1)
    orders = min(factorial(width - 1), max(1, _STEP_CODES // depth))
    per_step = max(1, _STEP_CODES // (depth * orders))
    for first in range(0, n, per_step):
        for rows in _place_rows(width - 1, orders):
            codes = np.matmul(places[rows], columns[first:first + per_step])
            codes.sort(axis=2)
            yield first, codes


def _least(codes, top):
    """Each configuration's lexicographically least code row, (n, p, depth) ->
    (n, depth), for codes below `top`: fixed a few row positions at a time,
    as many as one int64 holds as base-`top` digits."""
    span = 1
    while top ** (span + 1) <= 2 ** 63:
        span += 1
    alive = np.ones(codes.shape[:2], dtype=bool)
    for start in range(0, codes.shape[2], span):
        part = codes[:, :, start:start + span]
        keys = part @ np.array([top ** e for e in range(part.shape[2] - 1, -1, -1)], dtype=np.int64)
        alive &= keys == np.where(alive, keys, _TOP).min(axis=1, keepdims=True)
    return codes[np.arange(len(codes)), alive.argmax(axis=1)]


def _least_rows(digits, places):
    """Each configuration's least code row over every column order, for
    digits and places as `_encoded` returns them."""
    top = int(places[0]) + 1
    least, started = np.empty(digits.shape[:2], dtype=np.int64), -1
    for first, codes in _sorted_codes(digits, places):
        rows, best = slice(first, first + len(codes)), _least(codes, top)
        if first == started:  # a later block of orders for the same configurations
            best = _least(np.stack([least[rows], best], axis=1), top)
        least[rows], started = best, first
    return least


def _canonical_all(configs):
    """`canonical`'s vector tuple for each of `configs` (vector tuples of one
    length l), canonicalised together a step at a time."""
    digits, places = _encoded(configs)
    codes, base, places = _least_rows(digits, places).tolist(), int(places[-2]), places[1:].tolist()
    vector = {x: tuple(x // p % base for p in places) for x in set(chain.from_iterable(codes))}
    return [tuple(map(vector.__getitem__, row[:len(c)])) for row, c in zip(codes, configs)]


@dataclass(frozen=True)
class ConfStats:
    d: int
    p: Fraction


# ---------------------------------------------------------------------------
# enumeration

def _partitions(k, largest):
    """Partitions of k into parts <= largest, as non-increasing tuples."""
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _separable(k, l, limit):
    """Separable classes: a multiset of l partitions of k, one per column.
    A vector of a later column sorts first, so the least vector tuple puts
    the columns in ascending order of their ascending parts, each read with
    an end mark above every part (so none is a prefix of another), the
    least column last."""
    for parts in combinations_with_replacement(tuple(_partitions(k, k)), l):
        if sum(map(len, parts)) <= limit:
            words = sorted(part[::-1] + (k + 1,) for part in parts)
            yield Configuration(tuple(tuple(m if i == j else 0 for i in range(l))
                                      for j, word in zip(range(l - 1, -1, -1), words)
                                      for m in word[:-1]))


def _children(level, k, limit, last):
    """Each level class's extensions by one column, as row-code counts
    sorted by row count: a 1 on a sub-multiset of the rows, picked one code
    at a time and at most k rows, and fresh unit rows up to sum k.  Dropped:
    more than `limit` rows; no fresh row and a new column equal to an old
    one; on the `last` column, an all-ones row."""
    n, size = level.shape
    parent, room, ones = np.arange(n), np.full(n, k), np.zeros((n, size), np.int8)
    for code in np.flatnonzero(level[:, :size - last].any(axis=0)).tolist():
        options = np.minimum(level[parent, code], room) + 1
        back = np.arange(len(parent)).repeat(options)
        pick = np.arange(len(back)) - (options.cumsum() - options)[back]
        parent, room, ones = parent[back], room[back] - pick, ones[back]
        ones[:, code] = pick
    zeros, rows = level[parent] - ones, level.sum(axis=1)[parent] + room
    # column i repeats when the picked rows are exactly those with bit i set
    bits = np.arange(size)[:, None] >> np.arange(size.bit_length() - 2, -1, -1) & 1
    repeated = ((ones - zeros) @ bits == (k - room)[:, None]).any(axis=1)
    keep = np.flatnonzero((rows <= limit) & ((room > 0) | ~repeated))
    children = np.empty((len(parent), size, 2), np.int8)
    children[:, :, 0], children[:, :, 1] = zeros, ones
    children = children.reshape(len(parent), 2 * size)
    children[:, 1] = room  # the fresh rows
    return children[keep[rows[keep].argsort()]]  # by depth: an engine block pads little


def _least_codes(counts, width, depth):
    """The least code rows, padded to `depth` with the pad code 2^width, of
    the classes given by row-code `counts`, _BLOCK at a time."""
    rows, pad = counts.sum(axis=1), 1 << width
    codes = np.full((len(counts), depth), pad, np.min_scalar_type(pad))
    codes[np.arange(depth) < rows[:, None]] = (np.arange(counts.size) % pad).repeat(counts.ravel())
    shifts = np.arange(width, -1, -1)
    for start in range(0, len(codes), _BLOCK):
        block = codes[start:start + _BLOCK, :rows[start:start + _BLOCK].max()]
        block[:] = _least_rows(block[:, :, None] >> shifts & 1, 1 << shifts)  # pad: flag 1
    return codes


def _distinct_rows(rows):
    """The distinct rows of a 2-D array of at least one column, in
    lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def _multiplicity_free(k, l, limit):
    """0/1 classes grown column by column, one canonical form per level.

    A level is an int64 array of each class's count of each row code; its
    children are made and canonicalised a part of about _PICKS candidate
    picks at a time (the product of the counts plus one bounds a class's
    picks), and their distinct least code rows are the next level, the last
    level's the classes' sorted vectors.  Equal columns stay equal and rows
    are never removed, so children with equal columns or more than `limit`
    rows are pruned; all-ones rows can still gain a 0 until the last column."""
    # two columns: p rows (1, 1) and k - p rows each of (1, 0) and (0, 1), for p < k
    # (distinct columns), are the classes; swapping the columns fixes each
    least = np.array([[1] * (k - p) + [2] * (k - p) + [3] * p + [4] * p
                      for p in range(k if l > 2 else 1) if 2 * k - p <= limit],
                     np.uint8).reshape(-1, 2 * k)
    for width in range(3, l + 1):
        pad = 1 << (width - 1)
        level = np.bincount((np.arange(len(least))[:, None] * (pad + 1) + least).ravel(),
                            minlength=len(least) * (pad + 1)).reshape(-1, pad + 1)[:, :pad]
        depth, bounds = min(limit, width * k), np.prod(level + 1, axis=1).cumsum()
        cuts = (np.flatnonzero(np.diff(bounds // _PICKS)) + 1).tolist()
        least = _distinct_rows(np.concatenate([
            _least_codes(_children(level[a:b], k, limit, width == l), width, depth)
            for a, b in zip([0] + cuts, cuts + [len(level)])]))
    real = least < 1 << l
    vectors = map(list(product((0, 1), repeat=l)).__getitem__, least[real].tolist())
    return [Configuration(tuple(islice(vectors, d))) for d in real.sum(axis=1).tolist()]


def enumerate_conf(k, l, max_vectors=None):
    """All configuration classes of shape (k, l) with at most `max_vectors`
    vectors (default k*l, which no class passes), sorted, in a new list."""
    if k < 1 or l < 2:  # before the cap: two negative arguments multiply past it
        return []
    if k * l > DEFAULT_CELL_CAP:
        raise CapExceeded(f"k*l = {k * l} exceeds cap {DEFAULT_CELL_CAP}")
    limit = k * l if max_vectors is None else min(max_vectors, k * l)
    if limit < 2:  # a lone vector would lie in every column
        return []
    if k == 1:  # one symbol per column, distinct columns: all-distinct only
        return [cmax(1, l)] if limit >= l else []
    return list(_shape_classes(k, l, limit))


@lru_cache(maxsize=None)
def _shape_classes(k, l, limit):
    """`enumerate_conf`'s classes, a sorted tuple, once per process."""
    return tuple(sorted(set(_separable(k, l, limit)) | set(_multiplicity_free(k, l, limit)),
                        key=_VECTORS))


def enumerate_conf_upto(h, l):
    out = []
    for k in range(1, h + 1):
        out.extend(enumerate_conf(k, l))
    return sorted(out, key=_VECTORS)


def enumerate_sconf(h, l):
    """Separable classes only: no variable shared between columns.  Read
    from `_separable` per k (Conf(1, l) is cmax(1, l) alone), growing no
    multiplicity-free class."""
    if h >= 1 and h * l > DEFAULT_CELL_CAP:
        raise CapExceeded(f"k*l = {h * l} exceeds cap {DEFAULT_CELL_CAP}")
    return sorted((c for k in range(1, h + 1) if l >= 2
                   for c in ([cmax(1, l)] if k == 1 else _separable(k, l, k * l))), key=_VECTORS)


def enumerate_conf_sharp(h, d):
    """The B_h^#[d] family: for k <= h and L = d - h + k, the classes with
    d(C) >= L + 1 whose every column deletion leaves at most L variables.

    A member's columns each hold d(C) - L >= 1 private variables, disjoint
    across columns, so l <= L + 1, and at most k of them, so d(C) <= L + k.
    Shapes with k*l < L + 1 hold no member; any other with k*l > DEFAULT_CELL_CAP
    raises CapExceeded before enumeration starts.  A returned family is never
    empty: with k = max(1, h - d + 1) it holds the L + 1 columns of k copies of
    one variable each, which is cmax(1, d - h + 2) when d >= h.

    d < h is accepted here: the definition still reads (only the k with
    L >= 1 contribute), and the pinned d < h families check it on small
    shapes.  The code-level property is empty there, though: h distinct words
    make a sum whose decompositions use h > d words, so no code of h or more
    words is B_h^#[d].  `rate_bh_sharp`, `verify_bh_sharp` and `bhlab configs
    enumerate --sharp` therefore reject d < h.
    """
    if h < 1 or d < 1:
        raise InvalidParams(f"B_h^#[d] needs h >= 1 and d >= 1, got h = {h}, d = {d}")
    shapes = []
    for k in range(1, h + 1):
        L = d - h + k
        for l in range(max(2, -(-(L + 1) // k)), L + 2):
            if k * l > DEFAULT_CELL_CAP:
                raise CapExceeded(f"B_h^#[d] shape (k, l) = ({k}, {l}) has "
                                  f"k*l = {k * l} above cap {DEFAULT_CELL_CAP}")
            shapes.append((k, l, L))
    out = []
    for k, l, L in shapes:
        out.extend(c for c in enumerate_conf(k, l, max_vectors=L + k)
                   if c.d > L and all(c.delete_column_distinct(j) <= L for j in range(l)))
    return sorted(out, key=lambda c: (c.k, c.l, c.vectors))


def cmax(h, l):
    """The all-distinct configuration: d = h*l.  Column permutations only
    permute its unit vectors, so the sorted tuple is already canonical."""
    if h < 1 or l < 2:
        raise InvalidParams(f"cmax needs h >= 1 and l >= 2, got h = {h}, l = {l}")
    units = [tuple(1 if i == j else 0 for i in range(l)) for j in range(l)]
    return Configuration(tuple(sorted(units * h)))


# ---------------------------------------------------------------------------
# statistics

_UNIFORM_BITS = (((0,), 1), ((1,), 1))  # (point, integer weight) over denominator 2


class _Memo:
    """The per-process memo of p(C) weights: the integer weight W per (class
    vectors, support), the least recently used dropped past `size` entries;
    `misses` counts the weights computed since the last `clear`."""

    def __init__(self, size):
        self.size, self.entries, self.misses = size, OrderedDict(), 0

    def clear(self):
        self.entries.clear()
        self.misses = 0


_WEIGHTS = _Memo(_WEIGHTS_CACHED)


def _coinciding_weights(classes, support):
    """Total weight, for each of `classes` (vector tuples), of the assignments
    of support points to its vectors under which the l column sums coincide;
    `support` is a tuple of (n0-tuple of ints, integer weight) pairs and an
    assignment weighs the product of its points' weights.  Read from the
    memo; the classes it lacks are joined together, one `_joined_weights`
    per l."""
    entries, found, missing = _WEIGHTS.entries, {}, {}
    for vectors in classes:
        weight = entries.get((vectors, support))
        if weight is None:  # by l, each class once
            missing.setdefault(len(vectors[0]), {})[vectors] = None
        else:
            entries.move_to_end((vectors, support))
            found[vectors] = weight
    for group in missing.values():
        found.update(zip(group, _joined_weights(list(group), support)))
        _WEIGHTS.misses += len(group)
        entries.update(((vectors, support), found[vectors]) for vectors in group)
    while len(entries) > _WEIGHTS.size:
        entries.popitem(last=False)
    return [found[vectors] for vectors in classes]


def _weight(vectors, support):
    """`_coinciding_weights` of one class: a memo read, or a join alone."""
    key = (vectors, support)
    weight = _WEIGHTS.entries.get(key)
    if weight is None:
        [weight] = _coinciding_weights([vectors], support)
    else:
        _WEIGHTS.entries.move_to_end(key)
    return weight


def _joined_weights(classes, support):
    """`_coinciding_weights` for classes of one l, by meet in the middle.

    Vector v moves the column differences s_j - s_0 by (v_j - v_0) * x for the
    point x it draws, so a class's weight is the weight of the draws whose
    moves sum to zero.  Each point coordinate is first divided by its gcd
    over the support: a sum of them is zero exactly when the divided sum is.
    The classes of one d are joined together (`_join`), on the moves of the
    distinct vectors, int64 where no sum of d of them can pass it."""
    scales = [gcd(*column) or 1 for column in zip(*(point for point, _ in support))]
    points = [[x // g for x, g in zip(point, scales)] for point, _ in support]
    index, by_d = {v: i for i, v in enumerate(set(chain.from_iterable(classes)))}, {}
    for vectors in classes:
        by_d.setdefault(len(vectors), []).append(vectors)
    largest = max(abs(v[j] - v[0]) for v in index for j in range(len(v))) * max(
        abs(x) for point in points for x in point)
    moves = np.array([[[(v[j] - v[0]) * x for j in range(1, len(v)) for x in point]
                       for point in points] for v in index],
                     np.int64 if largest * max(by_d) < 2**63 else object)
    reach = np.abs(moves).max(axis=1)  # each vector's largest move in each coordinate
    weights, found = [w for _, w in support], {}
    for d, group in by_d.items():
        ids = np.fromiter(map(index.__getitem__, chain.from_iterable(group)), np.intp,
                          len(group) * d).reshape(-1, d)
        found.update(zip(group, _join(ids, moves, reach, weights)))
    return [found[vectors] for vectors in classes]


def _join(ids, moves, reach, weights):
    """The weight W of each class of one d, a row of `ids` into the vectors'
    `moves` (`reach` their largest absolute coordinates), under the points'
    integer `weights`.  Each class splits in two halves: the partial sums of
    its first d // 2 vectors' moves and the negated sums of the rest, each
    sum with its weight.  A sum is one integer key, class * R plus its
    mixed-radix digits in a box of R sums around 0 whose half-width on each
    coordinate is the largest total reach of a class, so the box holds every
    partial sum of either half and a move adds a fixed number to a key; W
    sums the weight products of the two halves' equal keys.  Keys are int64
    where no key can pass it, weights where W, at most (sum of weights)^d,
    cannot; Python ints otherwise.  Classes whose halves hold more than
    DEFAULT_SUPPORT_CAP sums together are joined in two parts; a lone class
    raises CapExceeded."""
    n, d = ids.shape
    split, radius = d // 2, reach[ids].sum(axis=1).max(axis=0).tolist()
    *places, size = accumulate([1] + [2 * r + 1 for r in radius], mul)
    key = np.int64 if n * size < 2**63 else object
    steps = moves[ids].astype(key) @ np.array(places, key)  # (class, vector, point)
    origins = np.arange(n, dtype=key) * size + sum(map(mul, radius, places))  # empty sums
    drawn = np.array(weights, np.int64 if sum(weights) ** d < 2**63 else object)
    try:
        (ka, wa), (kb, wb) = (_half(steps[:, :split], drawn, origins),
                              _half(-steps[:, split:], drawn, origins))
    except CapExceeded:
        if n == 1:
            raise
        return _join(ids[:n // 2], moves, reach, weights) + _join(ids[n // 2:], moves, reach, weights)
    match = np.minimum(kb.searchsorted(ka), len(kb) - 1)
    products = np.where(kb[match] == ka, wa * wb[match], 0)
    return np.add.reduceat(products, ka.searchsorted(origins - origins[0])).tolist()


def _half(steps, weights, keys):
    """The distinct keys, sorted, and total weights of the sums of one half
    of each class: class c's t-th vector adds steps[c, t, i] to a key when it
    draws point i, of weight weights[i], from the class's empty sum keys[c].
    A lone class merges its equal keys before a step would hold more than
    DEFAULT_SUPPORT_CAP sums, and raises CapExceeded if that is still too
    many; several classes raise it at once."""
    keys, total = keys[:, None], np.ones(1, weights.dtype)
    for t in range(steps.shape[1]):
        if keys.size * len(weights) > _entropy.DEFAULT_SUPPORT_CAP and len(keys) == 1:
            merged, total = _distinct(keys, total)
            keys = merged[None]
        if keys.size * len(weights) > _entropy.DEFAULT_SUPPORT_CAP:
            raise CapExceeded(f"a p(C) half of {keys.size} sums times {len(weights)} points "
                              f"exceeds cap {_entropy.DEFAULT_SUPPORT_CAP}")
        keys = (keys[:, :, None] + steps[:, t, None]).reshape(len(keys), -1)
        total = np.multiply.outer(total, weights).ravel()
    return _distinct(keys, total)


def _distinct(keys, weights):
    """The distinct keys of the rows of `keys`, sorted, with the total weight
    of each; every row has the same `weights`."""
    order = keys.ravel().argsort()
    keys, first = keys.ravel()[order], np.ones(keys.size, bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = first.nonzero()[0]
    return keys[first], np.add.reduceat(weights[order % len(weights)], first)


def precompute_stats(classes, dist=None):
    """Join the p(C) weights of `classes` together into the per-process memo,
    under uniform bits (`dist` None, as `conf_stats`) or under `dist` (as
    `conf_stats_general` reads it), so those calls then only read it.
    Classes above the exact cap are left to them, and they refuse them."""
    classes = list(classes)
    if not classes:
        return
    if dist is None:
        _coinciding_weights([c.vectors for c in classes if c.d <= DEFAULT_EXACT_CAP], _UNIFORM_BITS)
    else:
        _law_weights(classes, _read_law(dist))


def conf_stats(c: Configuration) -> ConfStats:
    """Exact p(C) over iid uniform bits: weights (1, 1) over denominator 2."""
    if c.d > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"d(C) = {c.d} exceeds exact-computation cap {DEFAULT_EXACT_CAP}")
    return ConfStats(d=c.d, p=Fraction(_weight(c.vectors, _UNIFORM_BITS), 2**c.d))


def _integer_law(dist):
    """(support, D, n0) for a law as `conf_stats_general` reads it: the
    (point tuple, integer weight) pairs of its non-zero masses over their
    common denominator D; InvalidDistribution for what is not a law."""
    _check_points([a for a, _ in dist])
    exact = [_as_fraction(p) for _, p in dist]
    if any(q < 0 for q in exact) or not abs(sum(exact) - 1) <= FLOAT_MASS_TOL:
        raise InvalidDistribution(f"masses must be >= 0 with total 1, got total {float(sum(exact))}")
    denom = lcm(*(q.denominator for q in exact))
    support = tuple((tuple(map(int, _as_point(a))), q.numerator * (denom // q.denominator))
                    for (a, _), q in zip(dist, exact) if q)
    return support, denom, len(_as_point(dist[0][0]))


def _read_law(dist):
    """(support, D, n0, exact): `_integer_law` of `dist`, and whether its
    p(C) stay Fractions (every mass exact)."""
    dist = list(dist)
    return (*_integer_law(dist), all(_exact(q) for _, q in dist))


def _law_weights(classes, law):
    """`precompute_stats` of `classes` under a law from `_read_law`."""
    support, _, n0, _ = law
    _coinciding_weights([c.vectors for c in classes if c.d * n0 <= 2 * DEFAULT_EXACT_CAP], support)


def _law_stats(c, law):
    """`conf_stats_general` of `c` under a law from `_read_law`."""
    support, denom, n0, exact = law
    if c.d * n0 > 2 * DEFAULT_EXACT_CAP:
        raise CapExceeded(f"d(C)*n0 = {c.d * n0} exceeds cap")
    p = Fraction(_weight(c.vectors, support), denom**c.d)
    return ConfStats(d=c.d, p=p if exact else float(p))


def conf_stats_general(c: Configuration, dist) -> ConfStats:
    """p(C) when variables are iid draws from a finitely supported dist.

    `dist` is a sequence of (point, probability) pairs; points are all
    integers or all integer tuples of one length, probabilities rational or
    float, non-negative, with a total within FLOAT_MASS_TOL of 1 (else
    InvalidDistribution).  Equivalence stays the combinatorial one; only
    p(C) depends on the distribution.

    Probabilities become integer weights over their common denominator D
    and p = (weight at the zero state) / D^d exactly; zero-mass points are
    dropped.  A float probability is read as the exact binary fraction it
    holds, and then p is that exact value rounded once to a float.  The
    law is validated on every call.
    """
    return _law_stats(c, _read_law(dist))


def cmax_p_closed(d, g) -> Fraction:
    """p(C_max(d, g+1)) = 2^{-d(g+1)} * sum_i binom(d,i)^{g+1}, exactly."""
    if d < 1 or g < 1:
        raise InvalidParams(f"C_max(d, g+1) needs d >= 1 and g >= 1, got d = {d}, g = {g}")
    total = sum(comb(d, i) ** (g + 1) for i in range(d + 1))
    return Fraction(total, 2 ** (d * (g + 1)))


def automorphism_count(c: Configuration) -> int:
    """Symmetries of C: column permutations fixing the vector multiset,
    times consistent variable permutations.  Used to turn injective
    variable-to-index assignments into unordered violation counts."""
    digits, places = _encoded([c.vectors])
    identity = np.sort(digits @ places, axis=1)
    fixing = sum(int((codes == identity[:, None]).all(axis=2).sum())
                 for _, codes in _sorted_codes(digits, places))
    return fixing * prod(factorial(m) for m in Counter(c.vectors).values())


def conf_to_json(c: Configuration, stats: ConfStats | None = None):
    rec = {"k": c.k, "l": c.l, "columns": [list(col) for col in c.columns()]}
    if stats is not None:
        rec["d"] = stats.d
        rec["p"] = f"{stats.p.numerator}/{stats.p.denominator}"
    return rec
