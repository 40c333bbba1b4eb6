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
    column (such columns are always distinct), built directly;
  * multiplicity-free classes are 0/1 vectors, grown one column at a time:
    column j+1 puts a 1 on a sub-multiset of the rows so far and adds fresh
    unit rows e_{j+1} up to sum k.  Each level keeps one canonical form per
    class over its first j+1 columns, in the spirit of orderly generation
    (B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
    1998).  The only class of both kinds is the all-distinct one.

`enumerate_conf_sharp` bounds the B_h^#[d] family by its definition: with
L = d - h + k, a member has d(C) >= L + 1 and every column deletion leaves at
most L variables, so each column holds d(C) - L >= 1 private variables.  These
are disjoint, so l <= d(C) / (d(C) - L) <= L + 1, and at most k per column, so
d(C) <= L + k.

Both p(C) functions read one exact weight (`_coinciding_weight`).  The law
becomes integer weights over one common denominator D (uniform bits are
weights (1, 1) over D = 2), so p(C) = W / D^d, where W sums the weight
products of the assignments whose l column sums coincide.  Vector v moves the
(l-1)*n0 column differences s_j - s_0 by (v_j - v_0) * x when it draws point
x, so W is the weight at 0 of a sum of independent draws, one per vector:
`entropy._fold` at 0, whose boxes span only the differences that can still
return to zero.

`_coinciding_weight` is memoised per process: it keeps the integer weight W
per (class vectors, tuple of (point, weight) pairs).  Callers check their
caps first and divide by D^d themselves, so a float law and the equal
rational law share one entry, yet one returns a float and the other a
Fraction.  `rates._family_report` asks for each class's p(C) twice, once to
optimise and once for the table (perfbench's self-test pins both traced
calls); the second call is a lookup.  The memo holds more entries than
every shape under DEFAULT_CELL_CAP has classes together, so no family under
the default cap evicts an entry before its table pass reads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, lcm, prod

import numpy as np

from .entropy import FLOAT_MASS_TOL, _as_fraction, _as_point, _check_points, _exact, _fold
from .errors import CapExceeded, InvalidDistribution, InvalidParams

DEFAULT_CELL_CAP = 18    # k*l of an enumerated shape
DEFAULT_EXACT_CAP = 24   # d(C) for exhaustive p(C); d(C)*n0 <= 2x this for a general law
_WEIGHTS_CACHED = 16384  # (class, law) p(C) weights kept per process; the
                         # shapes with k*l <= 18 have 8774 classes together


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
        for j in range(self.l):
            col = []
            for var, vec in enumerate(self.vectors):
                col.extend([var] * vec[j])
            cols.append(tuple(col))
        return tuple(cols)

    def is_separable(self):
        return all(sum(1 for x in v if x) == 1 for v in self.vectors)

    def delete_column_distinct(self, j):
        """Number of distinct variables left after deleting column j."""
        return sum(1 for v in self.vectors if any(x for i, x in enumerate(v) if i != j))

    def __repr__(self):
        letters = "abcdefghijklmnopqrstuvwxyz"
        cols = ["".join(letters[v] if v < 26 else f"v{v}" for v in col)
                for col in self.columns()]
        return f"Conf({'|'.join(cols)})"


def canonical(vectors):
    """Least representative over simultaneous column permutations."""
    return Configuration(tuple(min(sorted(zip(*cols))
                                   for cols in permutations(zip(*vectors)))))


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
    """Separable classes: a multiset of l partitions of k, one per column."""
    for parts in combinations_with_replacement(tuple(_partitions(k, k)), l):
        if sum(map(len, parts)) <= limit:
            yield canonical(tuple(tuple(m if i == j else 0 for i in range(l))
                                  for j, part in enumerate(parts) for m in part))


def _picks(mults, budget):
    """Sub-multisets of size <= budget, as one count per distinct row."""
    if not mults:
        return [()]
    return [(c,) + rest for c in range(min(mults[0], budget) + 1)
            for rest in _picks(mults[1:], budget - c)]


def _children(rows, k, limit):
    """Extensions by one column: a 1 on a sub-multiset of the rows, plus
    fresh unit rows up to column sum k; the new column must be distinct."""
    distinct = sorted(set(rows))
    mults = [rows.count(r) for r in distinct]
    fresh = (0,) * len(rows[0]) + (1,)
    for picks in _picks(mults, k):
        extra = k - sum(picks)
        if len(rows) + extra > limit:
            continue
        child = [fresh] * extra
        for r, m, c in zip(distinct, mults, picks):
            child += [r + (1,)] * c + [r + (0,)] * (m - c)
        if extra or all(any(r[i] != r[-1] for r in child) for i in range(len(fresh) - 1)):
            yield tuple(child)


def _multiplicity_free(k, l, limit):
    """0/1 classes grown column by column, one canonical form per level.

    Equal columns stay equal and rows are never removed, so children with
    equal columns or more than `limit` rows are pruned; all-ones rows can
    still gain a 0 and are rejected only at the last column."""
    level = {((1,),) * k}
    for _ in range(1, l):
        level = {canonical(child).vectors for rows in level
                 for child in _children(rows, k, limit)}
    return [Configuration(rows) for rows in level if all(0 in r for r in rows)]


def enumerate_conf(k, l, max_vectors=None):
    """All configuration classes of shape (k, l) with at most `max_vectors`
    vectors (default k*l), sorted."""
    if k < 1 or l < 2:  # before the cap: two negative arguments multiply past it
        return []
    if k * l > DEFAULT_CELL_CAP:
        raise CapExceeded(f"k*l = {k * l} exceeds cap {DEFAULT_CELL_CAP}")
    limit = max_vectors if max_vectors is not None else k * l
    if k == 1:  # one symbol per column, distinct columns: all-distinct only
        return [cmax(1, l)] if limit >= l else []
    return sorted(set(_separable(k, l, limit)) | set(_multiplicity_free(k, l, limit)))


def enumerate_conf_upto(h, l):
    out = []
    for k in range(1, h + 1):
        out.extend(enumerate_conf(k, l))
    return sorted(out)


def enumerate_sconf(h, l):
    """Separable classes only: no variable shared between columns.  Read
    from `_separable` per k (Conf(1, l) is cmax(1, l) alone), growing no
    multiplicity-free class."""
    if h >= 1 and h * l > DEFAULT_CELL_CAP:
        raise CapExceeded(f"k*l = {h * l} exceeds cap {DEFAULT_CELL_CAP}")
    return sorted(c for k in range(1, h + 1) if l >= 2
                  for c in ([cmax(1, l)] if k == 1 else _separable(k, l, k * l)))


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
    units = [tuple(1 if i == j else 0 for i in range(l)) for j in range(l)]
    return Configuration(tuple(sorted(units * h)))


# ---------------------------------------------------------------------------
# statistics

_UNIFORM_BITS = (((0,), 1), ((1,), 1))  # (point, integer weight) over denominator 2


@lru_cache(maxsize=_WEIGHTS_CACHED)
def _coinciding_weight(vectors, support):
    """Total weight of the assignments of support points to `vectors` under
    which the l column sums coincide; `support` is a tuple of (n0-tuple of
    ints, integer weight) pairs and an assignment weighs the product of its
    points' weights.  Memoised per (vectors, support).

    Vector v moves the column differences s_j - s_0 by (v_j - v_0) * x for the
    point x it draws, so the weight is the fold of one draw per vector at 0."""
    l = len(vectors[0])
    points = np.array([[[(v[j] - v[0]) * x for j in range(1, l) for x in point]
                        for point, _ in support] for v in vectors], dtype=object)
    weights = np.array([[w for _, w in support]], dtype=object)
    return _fold(points, weights, at=(0,) * points.shape[2])[1].item()


def conf_stats(c: Configuration) -> ConfStats:
    """Exact p(C) over iid uniform bits: weights (1, 1) over denominator 2."""
    if c.d > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"d(C) = {c.d} exceeds exact-computation cap {DEFAULT_EXACT_CAP}")
    count = _coinciding_weight(c.vectors, _UNIFORM_BITS)
    return ConfStats(d=c.d, p=Fraction(count, 2**c.d))


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
    holds, and then p is that exact value rounded once to a float.
    """
    dist = list(dist)
    _check_points([a for a, _ in dist])
    exact = [_as_fraction(p) for _, p in dist]
    if any(q < 0 for q in exact) or not abs(sum(exact) - 1) <= FLOAT_MASS_TOL:
        raise InvalidDistribution(f"masses must be >= 0 with total 1, got total {float(sum(exact))}")
    n0 = len(_as_point(dist[0][0]))
    if c.d * n0 > 2 * DEFAULT_EXACT_CAP:
        raise CapExceeded(f"d(C)*n0 = {c.d * n0} exceeds cap")
    denom = lcm(*(q.denominator for q in exact))
    weighted = tuple((tuple(map(int, _as_point(a))), q.numerator * (denom // q.denominator))
                     for (a, _), q in zip(dist, exact) if q)
    p = Fraction(_coinciding_weight(c.vectors, weighted), denom**c.d)
    return ConfStats(d=c.d, p=p if all(_exact(q) for _, q in dist) else float(p))


def cmax_p_closed(d, g) -> Fraction:
    """p(C_max(d, g+1)) = 2^{-d(g+1)} * sum_i binom(d,i)^{g+1}, exactly."""
    total = sum(comb(d, i) ** (g + 1) for i in range(d + 1))
    return Fraction(total, 2 ** (d * (g + 1)))


def automorphism_count(c: Configuration) -> int:
    """Symmetries of C: column permutations fixing the vector multiset,
    times consistent variable permutations.  Used to turn injective
    variable-to-index assignments into unordered violation counts."""
    rows = sorted(c.vectors)
    fixing = sum(sorted(zip(*cols)) == rows for cols in permutations(zip(*c.vectors)))
    return fixing * prod(factorial(m) for m in Counter(c.vectors).values())


def conf_to_json(c: Configuration, stats: ConfStats | None = None):
    rec = {"k": c.k, "l": c.l, "columns": [list(col) for col in c.columns()]}
    if stats is not None:
        rec["d"] = stats.d
        rec["p"] = f"{stats.p.numerator}/{stats.p.denominator}"
    return rec
