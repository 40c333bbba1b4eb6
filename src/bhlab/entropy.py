"""Renyi entropies, h-fold sums, second-order analysis of H_alpha(X+X) at the
uniform distribution, the two-point critical exponents, and the majorization
calculus used for the weighted-bit-sum power inequality.

Distributions are finitely supported with integer or integer-tuple points;
probabilities stay exact Fractions whenever the inputs are rational, with
floats entering only inside logarithms.  Unnormalized non-negative sequences
(plain tuples) are the currency of the majorization operators, which do not
preserve total mass.

Every law of a sum of independent draws comes from one fold, `_fold`: a dense
array over the lattice box of the sum, one shifted-slice add per support point
per draw, a leading row axis for many laws per call that share their draws;
exact Python-int weights for rational laws, float64 otherwise.  Its callers
are `hfold`, `weighted_bit_sum` and the uniform-optimality search and
witness; p(C) (`configurations`) counts its zero sums by meet in the middle
and folds nothing.
DEFAULT_SUPPORT_CAP, read at each call, bounds the law that `_fold` returns
(rows times prod(h * span + 1)), not the support nor the boxes on the way:
{0, 2^20} raises CapExceeded at h = 2.
`configurations` reads it too, as the most sums a half of p(C)'s join holds.
Every float Renyi value comes from `_renyi_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from numbers import Integral, Rational

import numpy as np

from .errors import CapExceeded, InvalidDistribution, InvalidParams

DEFAULT_SUPPORT_CAP = 2**20  # cells of a fold's law, points of bit_points, hypercube entries,
                             # sums of a p(C) half (`configurations`)
FLOAT_MASS_TOL = 1e-12
SHANNON_ALPHA_TOL = 1e-9
ROOT_TOL = 1e-10  # bracket width at which `critical_alphas` stops bisecting
WITNESS_TOL = 1e-12  # bracket width at which `perturbation_witness` stops its line search


# ---------------------------------------------------------------------------
# distributions

def _exact(p):
    """Whether a mass is exact: a rational number (int, bool, numpy integer,
    Fraction), as opposed to a float."""
    return isinstance(p, Rational)


def _as_fraction(p):
    """A mass as a Fraction of Python ints: an exact one as it is (a numpy
    integer would keep its fixed width inside a Fraction), a float as the
    binary fraction it holds."""
    return Fraction(int(p.numerator), int(p.denominator)) if _exact(p) else Fraction(float(p))


def _as_point(a):
    return a if isinstance(a, tuple) else (a,)


def _check_points(points):
    """InvalidDistribution unless the points are all integers or all integer
    tuples of one positive length, the points every fold can read."""
    kinds = {len(a) if isinstance(a, tuple) else None for a in points}  # None: an integer
    if len(kinds) > 1 or 0 in kinds or not all(
            isinstance(x, Integral) for a in points for x in _as_point(a)):
        raise InvalidDistribution("points must be integers, or integer tuples of one positive length")


def log2_fraction(x: Fraction) -> float:
    """log2 of a positive rational, from its numerator and denominator, so a
    value below the smallest float still has a finite log."""
    if x <= 0:
        raise InvalidParams("log of non-positive rational")
    return math.log2(x.numerator) - math.log2(x.denominator)


@dataclass(frozen=True)
class Distribution:
    """Finitely supported distribution; points are all ints or all int tuples
    of one length."""

    items: tuple  # tuple of (point, probability), points unique

    def __post_init__(self):
        pts = [a for a, _ in self.items]
        if len(set(pts)) != len(pts):
            raise InvalidDistribution("duplicate support points")
        _check_points(pts)
        total = sum(p for _, p in self.items)
        if any(p < 0 for _, p in self.items):
            raise InvalidDistribution("negative probability")
        if all(_exact(p) for _, p in self.items):
            if total != 1:
                raise InvalidDistribution(f"total mass {total} != 1")
        elif abs(total - 1) > FLOAT_MASS_TOL:
            raise InvalidDistribution(f"total mass {total} != 1")

    def probs(self):
        return tuple(p for _, p in self.items)

    def support(self):
        return tuple(a for a, _ in self.items)

    @property
    def n0(self):
        """Block length of the points: 1 for ints, the tuple length otherwise."""
        point = self.items[0][0]
        return len(point) if isinstance(point, tuple) else 1


def make_distribution(pairs) -> Distribution:
    """Drop zero-mass points, merge nothing, keep insertion-free sorted order."""
    pairs = [(a, p) for a, p in pairs if p != 0]
    _check_points([a for a, _ in pairs])  # before sorting: an int and a tuple do not compare
    return Distribution(tuple(sorted(pairs)))


def bit_points(n0) -> tuple:
    """{0,1}^n0 in lexicographic order: ints for n0 = 1, bit tuples else."""
    if n0 < 1:
        raise InvalidParams(f"n0 must be >= 1, got {n0}")
    if n0 >= DEFAULT_SUPPORT_CAP.bit_length():  # 2^n0 > cap
        raise CapExceeded(f"2^n0 points for n0 = {n0} exceed support cap {DEFAULT_SUPPORT_CAP}")
    return (0, 1) if n0 == 1 else tuple(product((0, 1), repeat=n0))


def uniform_bits(n0) -> Distribution:
    """Uniform distribution on {0,1}^n0, on the points of `bit_points`."""
    points = bit_points(n0)
    q = Fraction(1, len(points))
    return make_distribution((a, q) for a in points)


def from_probs(probs) -> Distribution:
    """Distribution on points 0..len-1 with the given probabilities."""
    return make_distribution(list(enumerate(probs)))


def _fold(points, weights):
    """Law of the sum of independent draws, dense over the lattice box.

    `points` is a (draws, s, n0) integer array, one row of s support points per
    draw; `weights` is a (rows, s) array that every draw shares, one law per
    row.  Returns (low, law), where law[r][i] is row r's weight of the sum
    low + i.  Each step's box is what the draws so far reach.  Cells hold
    `weights.dtype`: Python ints (object) keep rational laws exact."""
    rows, n0 = weights.shape[0], points.shape[2]
    zero = np.zeros((1, n0), dtype=object)  # Python ints: reaches must not wrap in int64
    lo = np.concatenate([zero, np.cumsum(points.min(axis=1), axis=0, dtype=object)])
    hi = np.concatenate([zero, np.cumsum(points.max(axis=1), axis=0, dtype=object)])
    low, lo, hi = lo[-1], lo.tolist(), hi.tolist()
    cells = rows * math.prod(b - a + 1 for a, b in zip(lo[-1], hi[-1]))
    if cells > DEFAULT_SUPPORT_CAP:
        raise CapExceeded(f"lattice box of {cells // rows} cells x {rows} row(s) "
                          f"exceeds cap {DEFAULT_SUPPORT_CAP}")
    units = [all(w == 1 for w in column) for column in weights.T.tolist()]  # add, no multiply
    scales = weights.T.reshape((-1, rows) + (1,) * n0)
    law = np.ones((rows,) + (1,) * n0, weights.dtype)
    for t, draw in enumerate(points.tolist()):
        nxt = np.zeros([rows] + [b - a + 1 for a, b in zip(lo[t + 1], hi[t + 1])], weights.dtype)
        for point, unit, scale in zip(draw, units, scales):
            src, dst = [slice(None)], [slice(None)]
            for a, b, s, a1, b1 in zip(lo[t], hi[t], point, lo[t + 1], hi[t + 1]):
                start, stop = max(a + s, a1), min(b + s, b1)  # clipped to the next box
                if start > stop:
                    break
                src.append(slice(start - s - a, stop - s - a + 1))
                dst.append(slice(start - a1, stop - a1 + 1))
            else:
                moved = law[tuple(src)]
                nxt[tuple(dst)] += moved if unit else moved * scale
        law = nxt
    return low, law


# ---------------------------------------------------------------------------
# entropy

def _renyi_rows(probs, alpha) -> np.ndarray:
    """H_alpha in bits of each law along the last axis of a float array, zero
    entries carrying no mass; alpha in [0, inf], limit branches at 1 and inf.
    A point mass gives +0.0, not -0.0: adding 0.0 changes no other value."""
    if not alpha >= 0:
        raise InvalidParams("alpha must be >= 0")
    if alpha == 0:
        return np.log2(np.count_nonzero(probs, axis=-1))
    if alpha == math.inf:
        return -np.log2(probs.max(axis=-1)) + 0.0
    if abs(alpha - 1) <= SHANNON_ALPHA_TOL:
        return -(probs * np.log2(probs, out=np.zeros_like(probs), where=probs > 0)).sum(axis=-1) + 0.0
    return np.log2((probs**alpha).sum(axis=-1)) / (1 - alpha) + 0.0


def renyi(dist: Distribution, alpha) -> float:
    """H_alpha in bits: exact powers for integer alpha >= 2 on a rational law,
    `_renyi_rows` for every other alpha in [0, inf]."""
    probs = [p for p in dist.probs() if p > 0]
    if 2 <= alpha < math.inf and alpha == int(alpha) and all(map(_exact, probs)):
        total = sum(_as_fraction(p) ** int(alpha) for p in probs)
        return log2_fraction(total) / (1 - alpha) + 0.0
    return float(_renyi_rows(np.array([probs], dtype=float), alpha)[0])


def hfold(dist: Distribution, h) -> Distribution:
    """Distribution of the sum of h independent copies; CapExceeded when the
    lattice box prod(h * span + 1) exceeds DEFAULT_SUPPORT_CAP."""
    if h < 1:
        raise InvalidParams("h must be >= 1")
    probs = dist.probs()
    exact = all(map(_exact, probs))
    denom = math.lcm(*(_as_fraction(p).denominator for p in probs)) if exact else 1
    weights = np.array([[int(p * denom) if exact else p for p in probs]],
                       dtype=object if exact else float)
    # Python ints: sums of large points must not wrap in int64
    points = np.array([_as_point(a) for a in dist.support()], dtype=object)
    low, law = _fold(np.broadcast_to(points, (h,) + points.shape), weights)
    sums = (np.indices(law.shape[1:]).reshape(points.shape[1], -1).T + low).tolist()
    masses = [Fraction(w, denom**h) if exact else w for w in law.ravel().tolist()]
    tuples = isinstance(dist.items[0][0], tuple)
    return make_distribution(zip((tuple(a) if tuples else a[0] for a in sums), masses))


# ---------------------------------------------------------------------------
# second-order analysis of f(p) = sum_z c_z^alpha at the uniform distribution,
# where c_z = sum_{x+y=z} p_x p_y over x, y in {0,1}^n

def hessian_entry(n, alpha, d) -> float:
    """Second derivative of f at uniform for points at Hamming distance d."""
    if not 0 <= d <= n:
        raise InvalidParams(f"distance {d} outside 0..{n}")
    first = 4 * alpha * (alpha - 1) * (4 + 2.0**alpha) ** (n - d) * 2.0 ** (alpha * d - 2 * alpha * n)
    second = 2 * alpha * (2.0**d * 2.0 ** (-2 * n)) ** (alpha - 1)
    return first + second


def _cube_size(n, power):
    """2^n, for an array of (2^n)^power entries over {0,1}^n, checked before
    anything is allocated: n >= 0 and the entries within DEFAULT_SUPPORT_CAP."""
    if n < 0:
        raise InvalidParams(f"n = {n} must be >= 0")
    if power * n >= DEFAULT_SUPPORT_CAP.bit_length():  # (2^n)^power > cap
        raise CapExceeded(f"{2**power}^n entries for n = {n} exceed cap {DEFAULT_SUPPORT_CAP}")
    return 1 << n


def hessian_matrix(n, alpha) -> np.ndarray:
    if not alpha >= 0:  # as `renyi`
        raise InvalidParams(f"alpha must be >= 0, got {alpha}")
    size = _cube_size(n, 2)  # before numpy is touched
    x = np.arange(size)
    by_distance = np.array([hessian_entry(n, alpha, d) for d in range(n + 1)])
    popcount = np.array([v.bit_count() for v in range(size)])
    return by_distance[popcount[x[:, None] ^ x]]  # entry (x, y) at distance |x ^ y|


def g_alpha(n, alpha, m) -> float:
    """Definiteness margin of the parity quadratic form at m = n (the only
    weight where this two-term form equals the full shell sum)."""
    return (1 - 2.0 ** (alpha - 1)) ** m + (1 + 2.0 ** (alpha - 2)) ** (n - m) * (2 * alpha - 2)


def quadratic_form_closed(n, alpha, m) -> float:
    """v^t A v for the parity vector v_x = (-1)^{x_1+...+x_m}, in closed form.

    Summing A over Hamming shells against the parity character turns each
    coordinate into a factor (a - b) on the m parity coordinates and (a + b)
    elsewhere, for each of the two terms of the Hessian entry.
    """
    if not 1 <= m <= n:
        raise InvalidParams(f"m = {m} outside 1..{n}")
    first = (4 * alpha * (alpha - 1) * 2.0 ** (-2 * alpha * n)
             * 4.0**m * (4 + 2.0 ** (alpha + 1)) ** (n - m))
    second = (2 * alpha * 2.0 ** (-2 * n * (alpha - 1))
              * (1 - 2.0 ** (alpha - 1)) ** m * (1 + 2.0 ** (alpha - 1)) ** (n - m))
    return 2.0**n * (first + second)


def parity_vector(n, m) -> np.ndarray:
    size = _cube_size(n, 1)
    if not 0 <= m <= n:
        raise InvalidParams(f"m = {m} outside 0..{n}")
    mask = (1 << m) - 1
    return np.array([(-1.0) ** (x & mask).bit_count() for x in range(size)])


def local_max_h(alpha) -> float:
    """h(alpha) = 2*alpha - 1 - 2^(alpha-1), the definiteness margin of g_alpha."""
    return 2 * alpha - 1 - 2.0 ** (alpha - 1)


# ---------------------------------------------------------------------------
# two-point critical exponents

def _bisect(func, lo, hi):
    flo = func(lo)
    if flo == 0:
        return lo
    while hi - lo > ROOT_TOL:
        mid = (lo + hi) / 2
        if (func(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def critical_alphas():
    """Roots of 2^a*a - 4a + 2 in [1.1, 2] and 2^a - 4a + 2 in [3, 4]."""
    low = _bisect(lambda a: 2.0**a * a - 4 * a + 2, 1.1, 2.0)
    high = _bisect(lambda a: 2.0**a - 4 * a + 2, 3.0, 4.0)
    return low, high


def sidon_two_point(p, alpha):
    """(f(p), f'(1/2), f''(1/2)) for f(p) = p^{2a} + (2p(1-p))^a + (1-p)^{2a}."""
    if not 0 <= p <= 1:
        raise InvalidParams("p must lie in [0, 1]")
    if not alpha >= 0:  # as `renyi`; at p = 0 or 1 a zero mass would be raised to a negative power
        raise InvalidParams(f"alpha must be >= 0, got {alpha}")
    value = p ** (2 * alpha) + (2 * p * (1 - p)) ** alpha + (1 - p) ** (2 * alpha)
    second = -(2.0 ** (3 - 2 * alpha)) * (2.0**alpha - 4 * alpha + 2) * alpha
    return value, 0.0, second


# ---------------------------------------------------------------------------
# searches for uniform-optimality of H_alpha(X^{(h)})

@dataclass(frozen=True)
class SearchReport:
    n0: int
    alpha: float
    h: int
    trials: int
    seed: int
    uniform_value: float
    best_value: float
    best_probs: tuple
    gap: float          # uniform_value - best non-uniform value found
    counterexample: bool
    sampling_law: str = "dirichlet-uniform-simplex"


def _check_seed(seed):
    """A seed is one uint64 half of a Philox key: an integer, 0 to 2^64 - 1."""
    if not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise InvalidParams(f"seed {seed!r} is not an integer in 0..2^64-1")


def _sum_renyi(points, probs, h, alpha) -> np.ndarray:
    """H_alpha of the h-fold sum of each row of `probs`, a float law on `points`."""
    law = _fold(np.broadcast_to(points, (h,) + points.shape), probs)[1]
    return _renyi_rows(law.reshape(len(probs), -1), alpha)


def uniform_optimality_search(n0, alpha, h, trials, seed) -> SearchReport:
    """Dirichlet-uniform random distributions plus parity perturbations of
    uniform; reports the best H_alpha(h-fold sum) found against uniform's.
    Trials are drawn and folded in chunks of DEFAULT_SUPPORT_CAP // (h+1)^n0
    rows, the stream of one draw at a time; `seed` is the Philox key, an
    integer in 0..2^64-1 as for `random_coding.construct`."""
    _check_seed(seed)
    if trials < 0:
        raise InvalidParams(f"trials must be >= 0, got {trials}")
    if h < 1:
        raise InvalidParams("h must be >= 1")
    points = np.array(bit_points(n0)).reshape(-1, n0)
    size = len(points)
    uniform = np.full(size, 1.0 / size)
    uniform_value = float(_sum_renyi(points, uniform[None], h, alpha)[0])  # checks the cap
    chunk = DEFAULT_SUPPORT_CAP // (h + 1) ** n0
    rng = np.random.Generator(np.random.Philox(key=seed))
    # (1 +- eps) / size: every perturbed coordinate stays positive
    perturbed = np.array([uniform + eps * (parity_vector(n0, m) / size)
                          for m in range(1, n0 + 1) for eps in (1e-2, 1e-3, 1e-4)])
    drawn = (rng.dirichlet(np.ones(size), size=min(chunk, trials - start))
             for start in range(0, trials, chunk))
    best_value, best_probs = -math.inf, None
    for probs in chain(drawn, (perturbed[i:i + chunk] for i in range(0, len(perturbed), chunk))):
        values = _sum_renyi(points, probs, h, alpha)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, best_probs = float(values[i]), tuple(probs[i])
    gap = uniform_value - best_value
    return SearchReport(n0=n0, alpha=alpha, h=h, trials=trials, seed=seed,
                        uniform_value=uniform_value, best_value=best_value,
                        best_probs=best_probs, gap=gap,
                        counterexample=gap < -1e-12)


def perturbation_witness(n, alpha):
    """Golden-section line search for eps > 0 along the full parity direction
    that increases H_alpha(X+X) over uniform on {0,1}^n (exists for alpha > 2
    and odd n).  Returns (eps, uniform entropy, perturbed entropy)."""
    points = np.array(bit_points(n)).reshape(-1, n)
    size = len(points)
    direction = parity_vector(n, n)  # a function of the Hamming weight, so of no point order

    def objective(eps):
        return float(_sum_renyi(points, (1.0 / size + eps * direction)[None], 2, alpha)[0])

    h_uniform = objective(0.0)
    invphi = (math.sqrt(5) - 1) / 2
    a, b = 0.0, 1.0 / size  # keep all coordinates non-negative
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > WITNESS_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    eps = (a + b) / 2
    return eps, h_uniform, objective(eps)


# ---------------------------------------------------------------------------
# majorization calculus on non-negative finitely supported sequences (tuples)

def rearrange_T(s) -> tuple:
    """Nonincreasing sort."""
    return tuple(sorted(s, reverse=True))


def rearrange_S(s) -> tuple:
    """Symmetric decreasing rearrangement: ... T4 T2 T0 T1 T3 ..."""
    t = rearrange_T(s)
    return tuple(reversed(t[0::2])) + t[1::2]


def shift_add_C(s, c) -> tuple:
    """(p_a + p_{a-c})_{a>=0} with p_i = 0 outside the given range."""
    if c == 0:
        raise InvalidParams("c must be nonzero")
    s = tuple(s)
    length = len(s) + max(c, 0)
    out = []
    for a in range(length):
        val = s[a] if a < len(s) else 0
        shifted = a - c
        if 0 <= shifted < len(s):
            val = val + s[shifted]
        out.append(val)
    return tuple(out)


def majorized_by(p, q) -> bool:
    """True iff p is majorized by q: all prefix sums of T(p) are <= T(q)'s.
    InvalidParams names the first negative entry, of p and then of q."""
    bad = next((x for x in chain(p, q) if x < 0), None)
    if bad is not None:
        raise InvalidParams(f"negative entry {bad}: majorization needs non-negative sequences")
    tp, tq = rearrange_T(p), rearrange_T(q)
    length = max(len(tp), len(tq))
    run_p = run_q = 0
    for i in range(length):
        run_p += tp[i] if i < len(tp) else 0
        run_q += tq[i] if i < len(tq) else 0
        if run_p > run_q:
            return False
    return True


def weighted_bit_sum(coeffs) -> tuple:
    """Exact law of sum(c_i * X_i) over iid uniform bits, as (P(=a))_{a>=0}."""
    coeffs = tuple(coeffs)
    if not all(isinstance(c, Integral) and c >= 1 for c in coeffs):
        raise InvalidParams(f"coefficients must be positive integers, got {coeffs}")
    if not coeffs:
        return (Fraction(1),)
    points = np.array([[[0], [c]] for c in coeffs], dtype=object)
    law = _fold(points, np.ones((1, 2), dtype=object))[1]
    return tuple(Fraction(w, 2 ** len(coeffs)) for w in law[0].tolist())
