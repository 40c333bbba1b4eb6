"""Finite-field arithmetic against axioms and brute-force references."""

import math
import random

import pytest

from bhlab import algebra
from bhlab.errors import CapExceeded, InvalidParams, NotAGenerator, NotAPrimePower, ZeroTarget


def poly_divmod(a, b, p):
    """Long division of coefficient tuples over GF(p), little-endian: the
    tuple-polynomial routine `algebra` used before its matrix tables, kept
    here as the reference that the brute-force checks divide with."""
    b = tuple(b)
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    while a and a[-1] == 0:
        a.pop()
    return tuple(q), tuple(a)


def monic(n, p, degree):
    """The monic polynomial of the given degree whose lower coefficients are
    the base-p digits of n."""
    return tuple((n // p**i) % p for i in range(degree)) + (1,)


def has_factor(f, p):
    """Whether a monic f has a monic divisor of degree 1..deg(f)/2, by trial
    division with every such divisor."""
    e = len(f) - 1
    return any(poly_divmod(f, monic(n, p, d), p)[1] == ()
               for d in range(1, e // 2 + 1) for n in range(p**d))


def frobenius_degree(a, base_q):
    """Degree of a over GF(base_q): size of the orbit under x -> x^q."""
    t = a**base_q
    k = 1
    while t != a:
        t = t**base_q
        k += 1
    return k


def bsgs_reference(alpha, targets):
    """Baby-step giant-step with a dict of coefficient tuples, one target at a
    time: the pure-Python path that `algebra.discrete_logs` replaced."""
    field = alpha.field
    n = field.order - 1
    m = min(n, math.isqrt((n - 1) * max(1, len(targets))) + 1)
    baby = {}
    t = field.one()
    for j in range(m):
        baby.setdefault(t.coeffs, j)
        t = t * alpha
    giant_step = (alpha**m).inverse()
    logs = []
    for g in targets:
        for i in range((n - 1) // m + 1):
            j = baby.get(g.coeffs)
            if j is not None:
                logs.append(i * m + j)
                break
            g = g * giant_step
    return logs


def test_prime_power_decompose():
    assert algebra.prime_power_decompose(2) == (2, 1)
    assert algebra.prime_power_decompose(8) == (2, 3)
    assert algebra.prime_power_decompose(9) == (3, 2)
    assert algebra.prime_power_decompose(7) == (7, 1)
    assert algebra.prime_power_decompose(121) == (11, 2)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NotAPrimePower):
            algebra.prime_power_decompose(bad)


def test_field_size_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        algebra.make_field(2**21)
    monkeypatch.setattr(algebra, "DEFAULT_SIZE_CAP", 2**32)
    big = algebra.make_field(2**31 + 11)  # int64 discrete logs would wrap
    with pytest.raises(CapExceeded):
        algebra.discrete_logs(big.from_int(2), [big.one()])


def test_modulus_is_monic_irreducible_by_brute_force():
    # no roots and no factor of smaller degree, checked by trial division
    for q in (4, 8, 9, 16, 25, 27):
        f = algebra.make_field(q)
        assert f.modulus[-1] == 1 and len(f.modulus) == f.e + 1
        p = f.p
        for n in range(p, p ** f.e):  # candidate monic divisors of degree >= 1
            coeffs = []
            m = n
            while m:
                m, r = divmod(m, p)
                coeffs.append(r)
            if len(coeffs) - 1 >= f.e or coeffs[-1] == 0:
                continue
            _, rem = poly_divmod(f.modulus, tuple(coeffs), p)
            assert rem != (), f"modulus of GF({q}) divisible by {coeffs}"


def test_int_encoding_round_trip():
    for q in (5, 8, 9, 16):
        f = algebra.make_field(q)
        for n in range(q):
            assert f.from_int(n).to_int() == n
        assert len(set(e.to_int() for e in f)) == q
        same = algebra.FiniteField(f.p, f.e, f.modulus)
        assert same == f and hash(same) == hash(f) and repr(same) == repr(f)
        assert repr(f) == f"FiniteField(p={f.p}, e={f.e}, modulus={f.modulus})"


@pytest.mark.parametrize("q", [7, 8, 9, 16, 25])
def test_randomized_field_axioms(q):
    f = algebra.make_field(q)
    elems = list(f)
    rng = random.Random(q)
    one, zero = f.one(), f.zero()
    for _ in range(1200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        assert (a - b) + b == a and a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


def test_pow_matches_repeated_multiplication():
    f = algebra.make_field(9)
    for a in f:
        acc = f.one()
        for e in range(10):
            assert a**e == acc
            if not a.is_zero():
                assert a**-e * acc == f.one()
            acc = acc * a


@pytest.mark.parametrize("q,h", [(2, 2), (3, 2), (2, 3), (5, 2), (4, 2)])
def test_degree_h_primitive_has_full_order_and_degree(q, h):
    a = algebra.find_degree_h_primitive(q, h)
    n = q**h - 1
    assert len({(a**k).coeffs for k in range(n)}) == n  # full order, with exact Python powers
    assert frobenius_degree(a, q) == h


def test_discrete_log_inverts_exponentiation():
    a = algebra.find_degree_h_primitive(3, 2)  # generator of GF(9)*
    f = a.field
    for target in f:
        if target.is_zero():
            continue
        [dl] = algebra.discrete_logs(a, [target])
        assert dl.modulus == 8
        assert a**dl.representative == target
    with pytest.raises(ZeroTarget):
        algebra.discrete_logs(a, [f.zero()])


def test_batched_discrete_logs_match_one_at_a_time():
    for q, h in [(2, 1), (3, 2), (2, 4), (5, 2), (4, 3)]:
        a = algebra.find_degree_h_primitive(q, h)
        targets = [t for t in a.field if not t.is_zero()]
        logs = algebra.discrete_logs(a, targets)
        assert [d.representative for d in logs] == \
            [algebra.discrete_logs(a, [t])[0].representative for t in targets]
        assert sorted(d.representative for d in logs) == list(range(q**h - 1))
        assert all(a**d.representative == t for d, t in zip(logs, targets))
    with pytest.raises(ZeroTarget):
        algebra.discrete_logs(a, [a, a.field.zero()])
    with pytest.raises(NotAGenerator):
        algebra.discrete_logs(a**3, [a])  # order 21 < 63 in GF(64)


def _small_fields():
    """(p, e) for every field order p^e <= 2^12: GF(q^h) and its least
    generator depend only on the order q^h, so this covers every (q, h)."""
    out = []
    for order in range(2, 2**12 + 1):
        try:
            out.append(algebra.prime_power_decompose(order))
        except NotAPrimePower:
            pass
    return out


@pytest.mark.parametrize("q,h", _small_fields())
def test_discrete_logs_match_power_table_and_reference(q, h):
    a = algebra.find_degree_h_primitive(q, h)
    n = q**h - 1
    table = [a.field.one()]  # table[d] = a^d, every nonzero element once
    for _ in range(n - 1):
        table.append(table[-1] * a)
    logs = [d.representative for d in algebra.discrete_logs(a, table)]
    assert logs == list(range(n))
    assert logs == bsgs_reference(a, table)


@pytest.mark.parametrize("q,h", _small_fields())
def test_modulus_and_primitive_are_least_by_brute_force(q, h):
    """What every field artifact rests on: the modulus is the least monic
    irreducible and the generator the least element of full order."""
    f = algebra.make_field(q**h)
    p, e, n = f.p, f.e, f.order - 1
    index = sum(c * p**i for i, c in enumerate(f.modulus[:-1]))
    assert f.modulus == monic(index, p, e) and not has_factor(f.modulus, p)
    assert all(has_factor(monic(k, p, e), p) for k in range(index))
    a = algebra.find_degree_h_primitive(q, h)
    primes = {r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))}
    assert all(a ** (n // r) != f.one() for r in primes)  # full order, with exact Python powers
    for k in range(1, a.to_int()):  # each smaller element has a power 1 short of n
        b = f.from_int(k)
        assert any(b ** (n // r) == f.one() for r in primes)


def test_discrete_logs_reject_a_target_of_another_field():
    a = algebra.find_degree_h_primitive(5, 2)
    other = algebra.make_field(49).from_int(15)  # coefficients (1, 2), as GF(25)[11] has
    with pytest.raises(ValueError, match="different fields"):
        a * other
    with pytest.raises(ValueError, match="different fields"):
        algebra.discrete_logs(a, [a, other])
    with pytest.raises(ValueError, match="different fields"):
        algebra.discrete_logs(a, [other])


def test_subfield_elements_reject_what_is_no_subfield():
    a = algebra.find_degree_h_primitive(2, 6)  # generates GF(64)*
    for base_q in (10, 1, 3, 16, 32, 128):  # no p^k with k | 6
        with pytest.raises(InvalidParams):
            algebra.subfield_elements(a, base_q)
    with pytest.raises(InvalidParams):
        algebra.subfield_elements(a**3, 4)  # a^63 = 1 has order 1, not 3
    with pytest.raises(InvalidParams):
        algebra.subfield_elements(a**7, 8)  # a^63 = 1 again
    with pytest.raises(InvalidParams):
        algebra.subfield_elements(a.field.zero(), 8)  # 0 has no order
    # a^3 is no generator, but (a^3)^9 = a^27 still has order 7 and gives GF(8)
    assert ({e.coeffs for e in algebra.subfield_elements(a**3, 8)}
            == {e.coeffs for e in algebra.subfield_elements(a, 8)})


def test_matrix_arithmetic_is_exact_up_to_order_2_31_and_capped_past_it(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_SIZE_CAP", 2**40)
    p = 2**31 - 1  # prime: the matrices are 1 x 1 int64, with products up to (p - 1)^2
    a = algebra.find_degree_h_primitive(p, 1)
    primes = (2, 3, 7, 11, 31, 151, 331)  # of p - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
    assert a.to_int() == 7 and all(pow(7, (p - 1) // r, p) != 1 for r in primes)
    assert all(any(pow(k, (p - 1) // r, p) == 1 for r in primes) for k in range(2, 7))
    assert algebra._full_order(a.field.from_int(p - 1)._matrix(), 2, p)  # -1 has order 2
    targets = [a.field.from_int(t) for t in (1, 2, p - 1, 123456789)]
    for t, d in zip(targets, algebra.discrete_logs(a, targets)):
        assert pow(7, d.representative, p) == t.to_int()
    # GF(2^31), float64 tables: x^(2^31) = x and no root in GF(2) make the degree-31
    # modulus irreducible, and as 2^31 - 1 is prime, x is the least generator
    x = algebra.find_degree_h_primitive(2, 31)
    assert x.to_int() == 2 and x ** 2**31 == x and x.field.modulus[0] == 1
    assert sum(x.field.modulus) % 2 == 1 and algebra._full_order(x._matrix(), 2**31 - 1, 2)
    big = algebra.make_field(2**31 + 11)  # prime, so no matrix is needed to set it up
    for call in (lambda: algebra.find_degree_h_primitive(big.order, 1),
                 lambda: algebra.discrete_logs(big.from_int(2), [big.one()]),
                 lambda: algebra.subfield_elements(big.from_int(2), big.order),
                 lambda: algebra.make_field(2**32),
                 lambda: algebra.make_field(3**20),
                 lambda: algebra.make_field(46349**2)):
        with pytest.raises(CapExceeded):
            call()


@pytest.mark.parametrize("q,h", [(2**20 - 3, 1), (2, 20), (1021, 2)])
def test_discrete_logs_near_the_size_cap(q, h):
    a = algebra.find_degree_h_primitive(q, h)
    assert a.field.order <= algebra.DEFAULT_SIZE_CAP
    rng = random.Random(q * h)
    targets = [a.field.from_int(rng.randrange(1, q**h)) for _ in range(64)]
    logs = algebra.discrete_logs(a, targets)
    assert all(a**d.representative == t for d, t in zip(logs, targets))
    for t in targets[:3]:  # the one-target table is the smallest, sqrt(n) steps
        assert a**algebra.discrete_logs(a, [t])[0].representative == t


def test_discrete_log_rejects_non_generator():
    a = algebra.find_degree_h_primitive(3, 2)
    nongen = a**2  # order 4 < 8
    assert nongen**4 == a.field.one() != nongen**2
    with pytest.raises(NotAGenerator):
        algebra.discrete_logs(nongen, [a])
    with pytest.raises(NotAGenerator):
        algebra.discrete_logs(a.field.zero(), [a])


def test_subfield_elements_match_frobenius_fixed_points():
    for q, h in [(3, 2), (2, 3), (4, 2), (5, 2)]:
        a = algebra.find_degree_h_primitive(q, h)
        f = a.field
        sub = algebra.subfield_elements(a, q)
        assert len(sub) == q
        assert len({e.coeffs for e in sub}) == q
        fixed = {e.coeffs for e in f if e**q == e}
        assert {e.coeffs for e in sub} == fixed
        # closure under the field operations
        for x in sub:
            for y in sub:
                assert (x + y).coeffs in fixed
                assert (x * y).coeffs in fixed


def test_residue_class_reduces():
    r = algebra.ResidueClass(7, 23)
    assert r.representative == 2
    assert algebra.ResidueClass(5, -3).representative == 2
    with pytest.raises(ValueError):
        algebra.ResidueClass(0, 1)
