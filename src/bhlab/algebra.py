"""Finite-field and modular arithmetic backing the explicit code constructions.

GF(p^e) is represented in a polynomial basis over GF(p).  The modulus
polynomial is always the least monic irreducible of the right degree (least
in the integer encoding of its non-leading coefficients), so every value
produced here is reproducible across runs.

Multiplying by a fixed element c is a GF(p)-linear map: the e x e matrix M(c)
whose row i holds the coefficients of c * x^i, so that a @ M(c) % p is a * c
for a coefficient row a.  Row i of M(c) is the sum of c_j x^(i+j), so each
field caches one table, the M(x^j) for j < e, built from the rows x^k mod f
for k < 2e - 1, and the M(c) of a whole stack of elements is one product with
it (`_matrices`).  Since
M(a) M(b) = M(ab) and c^k is row 0 of M(c)^k, every power is a
square-and-multiply over a stack of matrices (`_power`), and a run
c^0..c^(L-1) comes by doubling (`_rows`).  The irreducible and primitive
searches test growing batches of candidates this way, and full-order tests,
subfields and baby-step giant-step discrete logs are a few such products.
Entries are int64, or float64 from e = 8 (`_tables`), and products stay
below e * p^2, which int64 holds for every field order up to 2^31; past it
every matrix-backed call raises CapExceeded.  `FieldElement`'s own operations
stay exact Python, which is faster for one element of a small field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapExceeded, InvalidParams, NotAPrimePower, NotAGenerator, ZeroTarget

DEFAULT_SIZE_CAP = 2**20  # field order q of `make_field`


def _factorize(n):
    """Prime factors of n (with multiplicity) by trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power_decompose(q):
    """q -> (p, e) with q = p^e, or raise NotAPrimePower."""
    if q < 2:
        raise NotAPrimePower(f"{q} is not a prime power")
    factors = _factorize(q)
    p = factors[0]
    if any(f != p for f in factors):
        raise NotAPrimePower(f"{q} has more than one prime factor")
    return p, len(factors)


# ---------------------------------------------------------------------------
# stacks of coefficient rows (little-endian) and of matrices over GF(p)

def _coefficients(ns, p, e):
    """The e base-p digits of each integer encoding in ns, as rows."""
    return ns[:, None] // p ** np.arange(e, dtype=np.int64) % p


def _powers(moduli, p):
    """Rows x^k mod f, k = 0..2e-2, for each row f of `moduli` (monic, of
    degree e): shape (len(moduli), 2e - 1, e)."""
    e = moduli.shape[1] - 1
    out = np.zeros((len(moduli), 2 * e - 1, e), np.int64)
    out[:, :e] = np.eye(e, dtype=np.int64)
    for k in range(e, 2 * e - 1):  # x * x^(k-1), where x^e = x^e - f mod f
        out[:, k, 1:] = out[:, k - 1, :-1]
        out[:, k] = (out[:, k] - out[:, k - 1, -1:] * moduli[:, :e]) % p
    return out


def _tables(powers):
    """Row j holds M(x^j), flattened: rows x^(i+j), i < e, of each `_powers`.
    From e = 8 in float64, whose products BLAS computes several times faster
    than numpy's int64 loops; they are exact, since p^e <= 2^31 makes p < 15
    there.  Products with the table keep its dtype."""
    e = powers.shape[-1]
    windows = np.lib.stride_tricks.sliding_window_view(powers, e, axis=-2)  # [j, k, i] = x^(i+j)_k
    table = windows.swapaxes(-1, -2).reshape(powers.shape[:-2] + (e, e * e))
    return table.astype(np.float64 if e >= 8 else np.int64)


def _mod(a, p):
    """a mod p, in place for float64, where a - floor(a / p) * p is exact
    (a < 2^53) and in place spares large temporaries."""
    if a.dtype == np.int64:
        return a % p
    q = a / p
    np.floor(q, out=q)
    q *= p
    a -= q
    return a


def _matrices(c, table, p):
    """M(c), the sum of c_j M(x^j), for a stack of coefficient rows c and
    their field's `_tables`."""
    e = c.shape[-1]
    return _mod(c[..., None, :] @ table, p).reshape(c.shape[:-1] + (e, e))


def _power(m, exps, p):
    """Rows c^k for each k in the list exps, where m = M(c), by square and
    multiply, for each matrix of a stack: shape m.shape[:-2] + (len(exps), e)."""
    e = m.shape[-1]
    if p**e > 2**31:
        raise CapExceeded(f"matrix arithmetic needs field order <= 2^31, got {p**e}")
    exps, r = np.asarray(exps, np.int64)[:, None], np.eye(1, e, dtype=np.int64)
    for bit in range(int(exps.max(initial=0)).bit_length()):
        r = np.where(exps >> bit & 1, _mod(r @ m, p), r)  # row i times c^(2^bit) if set
        m = _mod(m @ m, p)
    return np.broadcast_to(r, m.shape[:-2] + (len(exps), e))


def _rows(m, count, p):
    """Rows c^0..c^(count-1), where m = M(c), by doubling: the first L rows
    times M(c^L) = M(c^(L/2))^2 are the next L (or as many as are left)."""
    rows = np.zeros(m.shape[:-2] + (count, m.shape[-1]), m.dtype)
    rows[..., 0, 0], done = 1, 1
    while done < count:
        block = min(done, count - done)
        rows[..., done:done + block, :] = _mod(rows[..., :block, :] @ m, p)
        m, done = _mod(m @ m, p), done + block
    return rows


def _is_one(rows):
    return (rows == np.eye(1, rows.shape[-1], dtype=np.int64)[0]).all(-1)


def _full_order(m, n, p):
    """Which c of the stacked m = M(c) have order n: c^n = 1, and no c^(n/r),
    r a prime factor of n, is 1 (so c = 0 never has)."""
    ones = _is_one(_power(m, [n] + [n // r for r in set(_factorize(n))], p))
    return ones[..., 0] & ~ones[..., 1:].any(-1)


def _rank(a, p):
    """Rank over GF(p) of each matrix of a stack.  Column by column, the first
    row with a nonzero entry, scaled, clears the column from every row, itself
    included, so each pivot lowers the rank by one."""
    rank, stack = 0, np.arange(len(a))
    for c in range(a.shape[-1]):
        row = a[stack, (a[:, :, c] != 0).argmax(1)]
        pivot = row[:, c, None, None]
        rank = rank + (pivot[:, 0, 0] != 0)
        a = _mod(a * (pivot + (pivot == 0)) - a[:, :, c, None] * row[:, None], p)
    return rank


def _irreducible(f, p):
    """Which rows f (monic, of degree e) are irreducible, by Berlekamp's count.
    x^(p^e) = x mod f makes f squarefree, and then f has as many irreducible
    factors as the space that the Frobenius map g -> g^p of GF(p)[x]/f fixes
    has dimensions.  Its matrix F has rows x^(ip), so f is irreducible iff
    moreover rank(F - I) = e - 1."""
    e = f.shape[1] - 1
    powers = _powers(f, p)  # its rows x^1..x^e are M(x)
    frob = _rows(_matrices(_power(powers[:, 1:e + 1], [p], p)[:, 0], _tables(powers), p), e, p)
    x = y = np.eye(1, e, 1, dtype=np.int64)
    for _ in range(e):
        y = _mod(y @ frob, p)
    return (y == x).all(-1)[:, 0] & (_rank(_mod(frob - np.eye(e, dtype=np.int64), p), p) == e - 1)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueClass:
    """A residue r modulo m, always stored reduced."""

    modulus: int
    representative: int

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "representative", self.representative % self.modulus)


@dataclass(frozen=True)
class FieldElement:
    """Element of a FiniteField, as a reduced coefficient vector over GF(p)."""

    field: "FiniteField"
    coeffs: tuple

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field._product(self.coeffs, other.coeffs))

    def __pow__(self, exp):
        if exp < 0:
            return self.inverse() ** (-exp)
        f, out, base = self.field, (1,) + (0,) * (self.field.e - 1), self.coeffs
        while exp:
            if exp & 1:
                out = f._product(out, base)
            base, exp = (f._product(base, base) if exp > 1 else base), exp >> 1
        return FieldElement(f, out)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def to_int(self):
        """Integer encoding sum(c_i * p^i); also the enumeration order key."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements of different fields")

    def _matrix(self):
        return _matrices(np.array(self.coeffs, np.int64), self.field._table, self.field.p)

    def __repr__(self):
        return f"GF({self.field.order})[{self.to_int()}]"


class FiniteField:
    """GF(p^e) with a deterministically chosen irreducible modulus."""

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.modulus = tuple(modulus)  # little-endian, monic, length e+1
        self.order = p**e

    @cached_property
    def _table(self):
        """Row j holds M(x^j), flattened (`_tables`)."""
        return _tables(_powers(np.array([self.modulus], np.int64), self.p)[0])

    def _product(self, a, b):
        """The coefficients of a * b, exact in Python: the product polynomial,
        with each x^k, k >= e, folded as x^(k-e) (x^e - modulus)."""
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        for k in range(2 * self.e - 2, self.e - 1, -1):
            if prod[k]:
                for i, c in enumerate(self.modulus[:-1], k - self.e):
                    prod[i] -= prod[k] * c
        return tuple([c % self.p for c in prod[:self.e]])

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        return FieldElement(self, coeffs + (0,) * (self.e - len(coeffs)))

    def from_int(self, n):
        """Inverse of FieldElement.to_int."""
        return FieldElement(self, tuple(n // self.p**i % self.p for i in range(self.e)))

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((1,))

    def __iter__(self):
        """All elements in enumeration (integer-encoding) order."""
        for n in range(self.order):
            yield self.from_int(n)

    def __repr__(self):
        return f"FiniteField(p={self.p}, e={self.e}, modulus={self.modulus})"


def make_field(q):
    """Field of order q = p^e with the least monic irreducible modulus;
    CapExceeded past DEFAULT_SIZE_CAP, checked before the cache is read."""
    if q > DEFAULT_SIZE_CAP:
        raise CapExceeded(f"field order {q} exceeds cap {DEFAULT_SIZE_CAP}")
    return _field(*prime_power_decompose(q))


@lru_cache(maxsize=None)
def _field(p, e):
    """GF(p^e) modulo the least monic irreducible of degree e.  Candidates come
    in growing batches: one evaluation at every point of GF(p) drops those with
    a root, and `_irreducible` tests the rest at once."""
    if e == 1:
        return FiniteField(p, 1, (0, 1))  # x, like every monic linear polynomial, is irreducible
    points = np.arange(p, dtype=np.int64) ** np.arange(e + 1)[:, None] % p  # x^k at each x in GF(p)
    start, size = 0, 16
    while True:  # a batch past p^e repeats candidates, but one below p^e passes
        f = _coefficients(np.arange(start, start + size) % p**e + p**e, p, e + 1)  # monic
        f = f[(f @ points % p != 0).all(1)]
        f = f[_irreducible(f, p)]
        if len(f):
            return FiniteField(p, e, tuple(f[0].tolist()))
        start, size = start + size, 2 * size


def find_degree_h_primitive(base_q, h):
    """Least element of GF(q^h) generating the full multiplicative group.

    Full multiplicative order q^h - 1 forces degree exactly h over GF(q):
    a proper subfield GF(q^k) could only host orders up to q^k - 1.
    Candidates come in growing batches, from p when e > 1: the elements below
    p form GF(p), whose orders divide p - 1 < q^h - 1.
    """
    field = make_field(base_q**h)
    p, n = field.p, field.order - 1
    start, size = (p if field.e > 1 else 1), 16
    while True:  # a batch past q^h repeats elements, but one below q^h passes
        ns = np.arange(start, start + size)
        full = _full_order(_matrices(_coefficients(ns, p, field.e), field._table, p), n, p)
        if full.any():
            return field.from_int(int(ns[full.argmax()]))
        start, size = start + size, 2 * size


def discrete_logs(alpha, targets):
    """[d with alpha^d = t for t in targets], by baby-step giant-step.

    alpha must generate the full multiplicative group; raises ValueError for a
    target of another field, ZeroTarget for a target 0 and NotAGenerator for
    an alpha of smaller order.  One table of m baby steps alpha^0..alpha^(m-1)
    serves every target; m is about sqrt(n * len(targets)), which balances
    building it against the giant steps of all targets.

    The baby steps and the giant steps alpha^(-mi) = (alpha^(n-m))^i are rows
    built by doubling (`_rows`), the baby steps sorted by integer encoding
    (`to_int`).  Every target times every giant step is then one product with
    the targets' matrices, looked up with one `searchsorted` of the sorted
    products.  Matrix-backed, so for field orders up to 2^31.
    """
    targets = list(targets)
    for t in targets:
        alpha._check(t)
    field, p, n = alpha.field, alpha.field.p, alpha.field.order - 1
    g = np.array([t.coeffs for t in targets], np.int64).reshape(-1, field.e)
    if (g == 0).all(1).any():
        raise ZeroTarget("discrete log of zero")
    step = alpha._matrix()
    if not _full_order(step, n, p):
        raise NotAGenerator("alpha does not generate the multiplicative group")
    m = min(n, math.isqrt((n - 1) * max(1, len(targets))) + 1)
    place = p ** np.arange(field.e, dtype=np.int64)
    codes = _rows(step, m, p) @ place  # codes[j] encodes alpha^j
    order = np.argsort(codes)
    giant = _rows(_matrices(_power(step, [n - m], p)[0], field._table, p), (n - 1) // m + 1, p)
    # keys[t * len(giant) + i] encodes target t times the giant step alpha^(-mi)
    keys = (_mod(giant @ _matrices(g, field._table, p), p) @ place).ravel()
    at = np.argsort(keys)  # sorted keys make `searchsorted` faster
    j = order[np.minimum(np.searchsorted(codes, keys[at], sorter=order), m - 1)]
    hit = codes[j] == keys[at]
    logs = np.empty(len(g), np.int64)  # every target has a hit, and two hits agree mod n
    logs[at[hit] // len(giant)] = at[hit] % len(giant) * m + j[hit]
    return [ResidueClass(n, d) for d in logs.tolist()]


def subfield_elements(alpha, base_q):
    """Elements of the subfield GF(base_q) inside alpha's field GF(q^h).

    The subfield's nonzero part is the cyclic group generated by
    beta = alpha^((q^h-1)/(base_q-1)).  InvalidParams unless base_q = p^k with
    k | e and beta has order base_q - 1, as it has for alpha of full order.
    """
    field, p, e = alpha.field, alpha.field.p, alpha.field.e
    if base_q not in {p**k for k in range(1, e + 1) if e % k == 0}:
        raise InvalidParams(f"GF({field.order}) has no subfield of order {base_q}")
    beta = _power(alpha._matrix(), [(field.order - 1) // (base_q - 1)], p)[0]
    beta = _matrices(beta, field._table, p)
    if not _full_order(beta, base_q - 1, p):
        raise InvalidParams(f"{alpha} does not give GF({base_q})* a generator")
    rows = _rows(beta, base_q - 1, p).astype(np.int64).tolist()
    return [field.zero()] + [FieldElement(field, tuple(r)) for r in rows]
