"""Finite-field and modular arithmetic backing the explicit code constructions.

GF(p^e) is represented in a polynomial basis over GF(p).  The modulus
polynomial is always the least monic irreducible of the right degree (least
in the integer encoding of its non-leading coefficients), so every value
produced here is reproducible across runs.

Discrete logs use that multiplying by a fixed element c is a GF(p)-linear map:
the e x e matrix M(c) whose row i holds the coefficients of c * x^i.  A batch
of elements is an int64 array of coefficient rows, so each baby or giant step
of `discrete_logs` is one numpy product with M(c) reduced mod p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, NotAPrimePower, NotAGenerator, ZeroTarget

DEFAULT_SIZE_CAP = 2**20  # field order q of `make_field`


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polynomials are tuples of ints, little-endian

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                       for i in range(n)])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_mod(a, m, p):
    return _poly_divmod(a, m, p)[1] if len(a) >= len(m) else _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_powmod(base, exp, modulus, p):
    result = (1,)
    base = _poly_mod(base, modulus, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), modulus, p)
        base = _poly_mod(_poly_mul(base, base, p), modulus, p)
        exp >>= 1
    return result


def _is_irreducible(f, p):
    """Monic f of degree e >= 1 over GF(p)."""
    e = len(f) - 1
    if e == 1:
        return True
    x = (0, 1)
    # x^(p^e) == x mod f
    t = x
    for _ in range(e):
        t = _poly_powmod(t, p, f, p)
    if t != _poly_mod(x, f, p):
        return False
    for r in sorted({r for r in _factorize(e)}):
        t = x
        for _ in range(e // r):
            t = _poly_powmod(t, p, f, p)
        diff = _poly_add(t, tuple(-c % p for c in x), p)
        g = _poly_gcd(diff, f, p)
        if len(g) - 1 >= 1:
            return False
    return True


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
        f = self.field
        prod = _poly_mod(_poly_mul(self.coeffs, other.coeffs, f.p), f.modulus, f.p)
        return FieldElement(f, _pad(prod, f.e))

    def __pow__(self, exp):
        f = self.field
        if exp < 0:
            return self.inverse() ** (-exp)
        r = _poly_powmod(self.coeffs, exp, f.modulus, f.p)
        return FieldElement(f, _pad(r, f.e))

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

    def __repr__(self):
        return f"GF({self.field.order})[{self.to_int()}]"


def _pad(coeffs, e):
    return tuple(coeffs) + (0,) * (e - len(coeffs))


def _digits(n, p, e):
    """The e base-p digits of n, least significant first."""
    digits = []
    for _ in range(e):
        n, r = divmod(n, p)
        digits.append(r)
    return tuple(digits)


class FiniteField:
    """GF(p^e) with a deterministically chosen irreducible modulus."""

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.modulus = tuple(modulus)  # little-endian, monic, length e+1
        self.order = p**e

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def element(self, coeffs):
        return FieldElement(self, _pad(tuple(c % self.p for c in coeffs), self.e))

    def from_int(self, n):
        """Inverse of FieldElement.to_int."""
        return FieldElement(self, _digits(n, self.p, self.e))

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
    """GF(p^e) modulo the least monic irreducible of degree e."""
    for n in range(p**e):
        f = _digits(n, p, e) + (1,)
        if _is_irreducible(f, p):
            return FiniteField(p, e, f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def element_order(a, group_order):
    """Multiplicative order of a nonzero element, given the group order."""
    if a.is_zero():
        raise ZeroDivisionError("zero has no multiplicative order")
    order = group_order
    one = a.field.one()
    for r in set(_factorize(group_order)):
        while order % r == 0 and a ** (order // r) == one:
            order //= r
    return order


def find_degree_h_primitive(base_q, h):
    """Least element of GF(q^h) generating the full multiplicative group.

    Full multiplicative order q^h - 1 forces degree exactly h over GF(q):
    a proper subfield GF(q^k) could only host orders up to q^k - 1.
    """
    q = base_q**h
    field = make_field(q)
    group_order = q - 1
    factors = set(_factorize(group_order))
    one = field.one()
    for n in range(1, q):
        a = field.from_int(n)
        if all((a ** (group_order // r)) != one for r in factors):
            return a
    raise AssertionError("no primitive element found")  # unreachable


def discrete_log(alpha, target):
    """d with alpha^d = target; see `discrete_logs`."""
    return discrete_logs(alpha, [target])[0]


def _mul_matrix(c):
    """M(c): row i holds the coefficients of c * x^i, so a @ M(c) % p is a * c
    for a coefficient row a."""
    f = c.field
    return np.array([(c * f.from_int(f.p**i)).coeffs for i in range(f.e)], dtype=np.int64)


def discrete_logs(alpha, targets):
    """[d with alpha^d = t for t in targets], by baby-step giant-step.

    alpha must generate the full multiplicative group; raises NotAGenerator
    otherwise and ZeroTarget if some target is 0.  One order check and one
    baby-step table serve every target; the table holds about
    sqrt(n * len(targets)) steps, which balances building it against the
    giant steps of all targets.

    Elements are int64 coefficient rows and multiplying by a fixed element is
    a product with its `_mul_matrix`, reduced mod p.  The baby steps
    alpha^0..alpha^(m-1) are built by doubling, each half times
    M(alpha^len), and kept sorted by integer encoding (`to_int`).  Every
    target still without a log then advances by alpha^-m at once, with one
    `searchsorted` per giant step.  Entries stay below e * p^2, which int64
    holds for every field order up to 2^31.
    """
    targets = list(targets)
    if any(t.is_zero() for t in targets):
        raise ZeroTarget("discrete log of zero")
    field = alpha.field
    p, n = field.p, field.order - 1
    if field.order > 2**31:
        raise CapExceeded(f"discrete logs need field order <= 2^31, got {field.order}")
    if element_order(alpha, n) != n:
        raise NotAGenerator("alpha does not generate the multiplicative group")
    m = min(n, math.isqrt((n - 1) * max(1, len(targets))) + 1)
    place = p ** np.arange(field.e, dtype=np.int64)
    baby = np.eye(1, field.e, dtype=np.int64)
    while len(baby) < m:
        baby = np.concatenate([baby, baby @ _mul_matrix(alpha ** len(baby)) % p])
    codes = baby[:m] @ place
    exps = np.argsort(codes)
    codes = codes[exps]
    giant_step = _mul_matrix((alpha**m).inverse())
    logs = np.zeros(len(targets), dtype=np.int64)
    todo = np.arange(len(targets))
    g = np.array([t.coeffs for t in targets], dtype=np.int64).reshape(-1, field.e)
    for i in range((n - 1) // m + 1):
        key = g @ place
        pos = np.minimum(np.searchsorted(codes, key), m - 1)
        hit = codes[pos] == key
        logs[todo[hit]] = i * m + exps[pos[hit]]
        todo, g = todo[~hit], g[~hit]
        if not len(todo):
            return [ResidueClass(n, int(d)) for d in logs]
        g = g @ giant_step % p
    raise NotAGenerator("target not in the group generated by alpha")  # unreachable


def subfield_elements(alpha, base_q):
    """Elements of the subfield GF(base_q) inside alpha's field GF(q^h).

    alpha must be a full-order generator; the subfield's nonzero part is the
    cyclic group generated by alpha^((q^h-1)/(q-1)).
    """
    field = alpha.field
    n = field.order - 1
    if n % (base_q - 1) != 0:
        raise ValueError("not a subfield index")
    beta = alpha ** (n // (base_q - 1))
    out = [field.zero()]
    t = field.one()
    for _ in range(base_q - 1):
        out.append(t)
        t = t * beta
    return out
