"""Entropy toolbox: closed forms against finite differences, exact
majorization lemmas, and the critical-exponent pins."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bhlab import entropy as ent
from bhlab.cli import parse_dist
from bhlab.configurations import cmax, cmax_p_closed, conf_stats_general
from bhlab.errors import CapExceeded, InvalidDistribution, InvalidParams


# ---------------------------------------------------------------------------
# distributions and Renyi branches

def test_distribution_validation():
    with pytest.raises(InvalidDistribution):
        ent.make_distribution([(0, Fraction(1, 2)), (0, Fraction(1, 2))])
    with pytest.raises(InvalidDistribution):
        ent.make_distribution([(0, Fraction(1, 3)), (1, Fraction(1, 3))])
    with pytest.raises(InvalidDistribution):
        ent.make_distribution([(0, Fraction(3, 2)), (1, Fraction(-1, 2))])
    ent.make_distribution([(0, 0.5), (1, 0.5 - 1e-14)])  # inside float tolerance


def test_uniform_bits_points():
    u1 = ent.uniform_bits(1)
    assert u1.support() == (0, 1)
    u2 = ent.uniform_bits(2)
    assert u2.support() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert all(p == Fraction(1, 4) for p in u2.probs())


def test_bit_points_bound_their_block_length():
    assert ent.bit_points(1) == (0, 1)
    assert ent.bit_points(3) == tuple(product((0, 1), repeat=3))
    for n0 in (0, -1):
        with pytest.raises(InvalidParams, match=f"n0 must be >= 1, got {n0}"):
            ent.bit_points(n0)
    for n0 in (21, 40, 10**9):  # 2^n0 above the support cap: raised before building
        with pytest.raises(CapExceeded, match=f"n0 = {n0}"):
            ent.bit_points(n0)
        with pytest.raises(CapExceeded):
            ent.uniform_bits(n0)


def test_distribution_block_length():
    assert ent.from_probs([Fraction(3, 4), Fraction(1, 4)]).n0 == 1
    assert ent.from_probs([0, 1]).n0 == 1
    for n0 in (1, 2, 3):
        assert ent.uniform_bits(n0).n0 == n0
    assert ent.make_distribution([((0, 1, 1), Fraction(1))]).n0 == 3
    assert parse_dist("1/8,1/8,3/8,3/8", 2).n0 == 2
    assert parse_dist("3/4,1/4").n0 == 1


HALF = Fraction(1, 2)


@pytest.mark.parametrize("items", [
    (((0, 0), HALF), ((1,), HALF)),  # ragged tuples: IndexError in every fold
    ((0.0, HALF), (1.0, HALF)),  # float points: TypeError in hfold
    ((0, HALF), ((1, 1), HALF)),  # an int beside a tuple: n0 = 1
    (((0, 0.5), HALF), ((1, 1), HALF)),  # a float coordinate
    (((), 1),),  # a tuple of no coordinates
], ids=["ragged", "float", "mixed", "float-coordinate", "empty-tuple"])
def test_points_no_fold_can_read_are_refused_by_either_entry(items):
    with pytest.raises(InvalidDistribution, match="integer tuples of one positive length"):
        ent.Distribution(items)
    with pytest.raises(InvalidDistribution, match="integer tuples of one positive length"):
        ent.make_distribution(items)  # sorting an int beside a tuple raised TypeError
    with pytest.raises(InvalidDistribution, match="integer tuples of one positive length"):
        conf_stats_general(cmax(2, 2), list(items))
    assert issubclass(InvalidDistribution, InvalidParams)  # so the CLI exits 2


@pytest.mark.parametrize("one, zero", [(np.int64(1), np.int64(0)), (True, False)],
                         ids=["int64", "bool"])
def test_integer_masses_of_any_integer_type_are_exact(one, zero, monkeypatch):
    # an exact total: 1 + 10^-15 is inside the float tolerance, so this tells the rules apart
    with pytest.raises(InvalidDistribution):
        ent.Distribution(((0, one), (1, Fraction(1, 10**15))))
    law = ent.Distribution(((0, one), (1, zero)))
    assert all(type(p) is Fraction for p in ent.hfold(law, 2).probs())
    assert all(type(p) is Fraction for p in ent.hfold(ent.Distribution(((0, one),)), 2).probs())
    assert type(conf_stats_general(cmax(2, 2), law.items).p) is Fraction
    monkeypatch.setattr(ent, "_renyi_rows", None)  # the float branch would now fail
    assert ent.renyi(law, 2) == ent.renyi(law, 3) == 0.0


def test_search_rejects_negative_trials():
    with pytest.raises(InvalidParams, match="trials must be >= 0, got -5"):
        ent.uniform_optimality_search(1, 2.0, 2, -5, 0)
    assert ent.uniform_optimality_search(1, 2.0, 2, 0, 0).trials == 0


def test_renyi_on_uniform_is_log_support():
    for n0 in (1, 2, 3):
        u = ent.uniform_bits(n0)
        for alpha in (0, 0.5, 1, 2, 3.7, math.inf):
            assert ent.renyi(u, alpha) == pytest.approx(n0, abs=1e-12)


def test_renyi_branches_on_a_biased_law():
    d = ent.from_probs([Fraction(3, 4), Fraction(1, 4)])
    assert ent.renyi(d, 0) == pytest.approx(1.0)
    assert ent.renyi(d, math.inf) == pytest.approx(-math.log2(0.75))
    assert ent.renyi(d, 2) == pytest.approx(-math.log2(9 / 16 + 1 / 16))
    shannon = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert ent.renyi(d, 1) == pytest.approx(shannon, abs=1e-12)
    assert ent.renyi(d, 1 + 1e-10) == pytest.approx(shannon, abs=1e-9)
    with pytest.raises(InvalidParams):
        ent.renyi(d, -1)


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 2, 3, math.inf])
@pytest.mark.parametrize("probs", [(1,), (Fraction(1), 0), (1.0, 0.0)])
def test_renyi_of_a_point_mass_is_positive_zero(probs, alpha):
    # rational laws take the exact branch at alpha = 2, 3; float ones `_renyi_rows`
    value = ent.renyi(ent.from_probs(probs), alpha)
    assert value == 0 and math.copysign(1.0, value) == 1.0
    rows = ent._renyi_rows(np.array([[1.0, 0.0], [0.0, 1.0]]), alpha)
    assert (rows == 0).all() and (np.copysign(1.0, rows) == 1.0).all()


def test_renyi_nonincreasing_in_alpha():
    rng = random.Random(2)
    for _ in range(20):
        weights = [rng.randint(1, 9) for _ in range(rng.randint(2, 6))]
        total = sum(weights)
        d = ent.from_probs([Fraction(w, total) for w in weights])
        values = [ent.renyi(d, a) for a in (0, 0.5, 1, 1.5, 2, 3, 10, math.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_hfold_is_binomial_for_uniform_bits():
    law = ent.hfold(ent.uniform_bits(1), 4)
    assert dict(law.items) == {a: Fraction(math.comb(4, a), 16) for a in range(5)}
    with pytest.raises(InvalidParams):
        ent.hfold(ent.uniform_bits(1), 0)


def convolve_reference(d1, d2):
    """The dict convolution over point pairs that `hfold` replaced, kept as
    its independent reference."""
    out = {}
    for a, pa in d1.items:
        for b, pb in d2.items:
            s = tuple(x + y for x, y in zip(a, b)) if isinstance(a, tuple) else a + b
            out[s] = out.get(s, 0) + pa * pb
    return ent.make_distribution(out.items())


def hfold_reference(dist, h):
    out = dist
    for _ in range(h - 1):
        out = convolve_reference(out, dist)
    return out


REFERENCE_LAWS = [
    *(ent.uniform_bits(n0) for n0 in (1, 2, 3)),
    parse_dist("1/8,1/8,3/8,3/8", 2),  # the rates benchmark's law
    ent.from_probs([Fraction(1, 2), 0, Fraction(1, 6), Fraction(1, 3)]),
    ent.make_distribution([(-7, Fraction(1, 4)), (-2, Fraction(1, 2)), (3, Fraction(1, 4))]),
    ent.make_distribution([((-3, 1), Fraction(2, 3)), ((2, -4), Fraction(1, 9)),
                           ((0, 0), Fraction(2, 9))]),
    ent.make_distribution([(2**62, Fraction(1, 2)), (2**62 + 3, Fraction(1, 2))]),  # sums past int64
]


@pytest.mark.parametrize("law", REFERENCE_LAWS)
def test_hfold_matches_the_pairwise_reference_exactly(law):
    for h in (1, 2, 3, 4):
        got = ent.hfold(law, h)
        assert got == hfold_reference(law, h)
        assert all(isinstance(p, Fraction) for p in got.probs())


def test_hfold_of_a_float_law_matches_the_reference():
    law = ent.make_distribution(zip(ent.bit_points(2), (0.1, 0.2, 0.3, 0.4)))
    for h in (1, 2, 3):
        got, ref = ent.hfold(law, h), hfold_reference(law, h)
        assert got.support() == ref.support()
        assert got.probs() == pytest.approx(ref.probs(), rel=1e-14)
        assert all(isinstance(p, float) for p in got.probs())


def test_hfold_tuples_and_cap(monkeypatch):
    d = ent.uniform_bits(2)
    s = ent.hfold(d, 2)
    assert sum(s.probs()) == 1
    assert s.support()[0] == (0, 0) and (2, 2) in s.support()
    with monkeypatch.context() as m:
        m.setattr(ent, "DEFAULT_SUPPORT_CAP", 3)
        with pytest.raises(CapExceeded):
            ent.hfold(d, 2)
        m.setattr(ent, "DEFAULT_SUPPORT_CAP", 9)
        assert ent.hfold(d, 2) == s  # the cap bounds the 3 x 3 box
        m.setattr(ent, "DEFAULT_SUPPORT_CAP", 8)
        with pytest.raises(CapExceeded):
            ent.hfold(d, 2)
    wide = ent.make_distribution([(0, Fraction(1, 2)), (2**20, Fraction(1, 2))])
    with pytest.raises(CapExceeded):  # three sums, on a box of 2^21 + 1 cells
        ent.hfold(wide, 2)


def fold_reference(points, weights):
    """{sum: row weights} of `_fold`'s draws, over every choice of one point per draw."""
    out = {}
    for choice in product(range(points.shape[1]), repeat=points.shape[0]):
        total = tuple(sum(points[t, i, x] for t, i in enumerate(choice))
                      for x in range(points.shape[2]))
        mass = [math.prod(row[i] for i in choice) for row in weights.tolist()]
        out[total] = [a + b for a, b in zip(out.get(total, [0] * len(mass)), mass)]
    return out


def test_fold_matches_the_reference_fold():
    rng = random.Random(19)
    for _ in range(40):
        draws, s, n0, rows = (rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 2),
                              rng.randint(1, 3))
        points = np.array([[[rng.randint(-4, 3) for _ in range(n0)] for _ in range(s)]
                           for _ in range(draws)], dtype=object)
        weights = np.array([[rng.choice((0, 1, 1, 2, 5)) for _ in range(s)]
                            for _ in range(rows)], dtype=object)
        low, law = ent._fold(points, weights)
        reference = fold_reference(points, weights)
        for index in np.ndindex(law.shape[1:]):
            total = tuple(int(a + i) for a, i in zip(low, index))
            assert law[(slice(None),) + index].tolist() == reference.get(total, [0] * rows)


# ---------------------------------------------------------------------------
# Hessian analysis

def test_renyi_of_uniform_pair_sum_closed_form():
    # c_z factorizes across coordinates: f = (2*4^-a + 2^-a)^n
    for n in (1, 2, 3):
        for alpha in (0.5, 2.0, 3.0):
            expected = (2 * 4.0**-alpha + 2.0**-alpha) ** n
            assert ent.renyi(ent.hfold(ent.uniform_bits(n), 2), alpha) == \
                pytest.approx(math.log2(expected) / (1 - alpha), rel=1e-12)


def test_float_pair_sum_matches_the_50_digit_reference():
    # f is invariant under relabelling coordinates, so lexicographic points
    # and the reference's bitmask order give the same value
    rng = random.Random(9)
    for n in (1, 2, 3):
        weights = [rng.random() + 0.01 for _ in range(1 << n)]
        p = [w / sum(weights) for w in weights]
        law = ent.make_distribution(zip(ent.bit_points(n), p))
        for alpha in (0.5, 2.0, 3.0):
            expected = float(mp_sum_powers_f(p, alpha, n))
            assert ent.renyi(ent.hfold(law, 2), alpha) == \
                pytest.approx(math.log2(expected) / (1 - alpha), rel=1e-12)


def mp_sum_powers_f(p, alpha, n):
    """Independent reimplementation of f in 50-digit arithmetic, so the
    finite-difference quotient is free of double-precision cancellation."""
    import mpmath

    size = 1 << n
    c = {}
    for x in range(size):
        for y in range(size):
            z = tuple(((x >> i) & 1) + ((y >> i) & 1) for i in range(n))
            c[z] = c.get(z, mpmath.mpf(0)) + p[x] * p[y]
    return sum(cz**alpha for cz in c.values())


def fd_hessian(n, alpha, step="1e-5"):
    import mpmath

    with mpmath.workdps(50):
        size = 1 << n
        h = mpmath.mpf(step)
        base = [mpmath.mpf(1) / size] * size
        mat = np.empty((size, size))

        def f(p):
            return mp_sum_powers_f(p, alpha, n)

        for x in range(size):
            for y in range(x, size):
                if x == y:
                    up = list(base); up[x] += h
                    dn = list(base); dn[x] -= h
                    val = (f(up) - 2 * f(base) + f(dn)) / h**2
                else:
                    pp = list(base); pp[x] += h; pp[y] += h
                    pm = list(base); pm[x] += h; pm[y] -= h
                    mp_ = list(base); mp_[x] -= h; mp_[y] += h
                    mm = list(base); mm[x] -= h; mm[y] -= h
                    val = (f(pp) - f(pm) - f(mp_) + f(mm)) / (4 * h**2)
                mat[x, y] = mat[y, x] = float(val)
        return mat


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
def test_hessian_matches_finite_differences(n, alpha):
    got = ent.hessian_matrix(n, alpha)
    ref = fd_hessian(n, alpha)
    assert np.allclose(got, ref, rtol=1e-6, atol=0)


def test_hessian_matrix_matches_the_entrywise_definition():
    for n in range(5):
        for alpha in (0, 0.5, 1.2, 2, 3, 3.7):
            by_distance = [ent.hessian_entry(n, alpha, d) for d in range(n + 1)]
            ref = np.array([[by_distance[(x ^ y).bit_count()] for y in range(2**n)]
                            for x in range(2**n)])
            got = ent.hessian_matrix(n, alpha)
            assert got.dtype == np.float64 and np.array_equal(got, ref)


def test_hessian_entry_pinned_value():
    # n = 1, alpha = 2, d = 0: 8*(4+4)^1*2^-8 + 4*(2^-2)^1 = 1/4 + ... = 5 - 1e? compute
    assert ent.hessian_entry(1, 2, 0) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(InvalidParams):
        ent.hessian_entry(2, 2, 3)


class _Unreachable:
    """Stands in for numpy and `hessian_entry`: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was reached before the checks")

    def __call__(self, *args):
        raise AssertionError("an entry was computed before the checks")


@pytest.mark.parametrize("name, args, error, names", [
    ("hessian_matrix", (-1, 2.0), InvalidParams, "n = -1"),  # was "negative shift count"
    ("hessian_matrix", (2, -1.0), InvalidParams, "alpha"),  # was accepted
    ("hessian_matrix", (2, math.nan), InvalidParams, "alpha"),
    ("hessian_matrix", (11, 2.0), CapExceeded, "n = 11"),  # 4^11 entries, 4x the cap
    ("hessian_matrix", (16, 2.0), CapExceeded, "n = 16"),  # would ask for 32 GB
    ("parity_vector", (-1, 0), InvalidParams, "n = -1"),
    ("parity_vector", (3, 4), InvalidParams, "m = 4"),
    ("parity_vector", (3, -1), InvalidParams, "m = -1"),
    ("parity_vector", (21, 1), CapExceeded, "n = 21"),
])
def test_hypercube_arrays_check_n_before_allocating(name, args, error, names, monkeypatch):
    monkeypatch.setattr(ent, "np", _Unreachable())
    monkeypatch.setattr(ent, "hessian_entry", _Unreachable())
    with pytest.raises(error, match=names):
        getattr(ent, name)(*args)


def test_hypercube_arrays_reach_the_support_cap():
    # 4^10 Hessian entries and 2^20 parity entries are exactly DEFAULT_SUPPORT_CAP
    assert ent._cube_size(10, 2) ** 2 == ent._cube_size(20, 1) == ent.DEFAULT_SUPPORT_CAP
    assert ent.hessian_matrix(0, 2.0).shape == (1, 1)
    assert ent.parity_vector(3, 0).tolist() == [1.0] * 8


def test_hessian_symmetry_and_ones_eigenvector():
    for n in (1, 2, 3, 4):
        mat = ent.hessian_matrix(n, 2.5)
        assert np.allclose(mat, mat.T)
        row_sums = mat @ np.ones(1 << n)
        assert np.allclose(row_sums, row_sums[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_form_closed_matches_explicit_product(n):
    for m in range(1, n + 1):
        for alpha in (1.2, 1.9, 2.5, 3.0):
            v = ent.parity_vector(n, m)
            mat = ent.hessian_matrix(n, alpha)
            explicit = float(v @ mat @ v)
            closed = ent.quadratic_form_closed(n, alpha, m)
            assert closed == pytest.approx(explicit, rel=1e-10)
    with pytest.raises(InvalidParams):
        ent.quadratic_form_closed(2, 2.0, 0)


def test_quadratic_form_full_parity_reduces_to_margin_form():
    # at m = n the shell sum collapses to the two-term margin expression
    for n in (1, 2, 3, 4):
        for alpha in (1.2, 2.0, 3.0):
            margin = 2.0 ** (1 - n + 4 * n - 2 * alpha * n) * alpha * ent.g_alpha(n, alpha, n)
            assert ent.quadratic_form_closed(n, alpha, n) == \
                pytest.approx(margin, rel=1e-12)


def test_quadratic_form_signs():
    for n in range(1, 7):
        for m in range(1, n + 1):
            for alpha in (1.2, 1.5, 1.9):
                assert ent.quadratic_form_closed(n, alpha, m) > 0
    assert ent.quadratic_form_closed(3, 3.0, 3) < 0


def test_local_max_margin_h():
    assert ent.local_max_h(1) == pytest.approx(0.0, abs=1e-12)
    # h'(alpha) = 2 - 2^(alpha-1) ln 2 > 0 throughout [0, 2]
    alphas = [i * 1e-3 for i in range(2001)]
    values = [ent.local_max_h(a) for a in alphas]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(ent.local_max_h(a) > 0 for a in alphas if a > 1.001)


# ---------------------------------------------------------------------------
# two-point critical exponents

def test_critical_alphas_pinned_and_residuals():
    low, high = ent.critical_alphas()
    assert low == pytest.approx(1.29856, abs=1e-5)
    assert high == pytest.approx(3.65986, abs=1e-5)
    assert 2.0**low * low - 4 * low + 2 == pytest.approx(0.0, abs=1e-8)
    assert 2.0**high - 4 * high + 2 == pytest.approx(0.0, abs=1e-8)


def test_sidon_second_derivative_matches_finite_differences():
    step = 1e-5
    for alpha in (1.2, 2.0, 3.0, 4.0):
        f = lambda p: ent.sidon_two_point(p, alpha)[0]
        fd2 = (f(0.5 + step) - 2 * f(0.5) + f(0.5 - step)) / step**2
        _, d1, d2 = ent.sidon_two_point(0.5, alpha)
        assert d1 == 0.0
        assert d2 == pytest.approx(fd2, rel=1e-4)


def test_sidon_sign_flip_exactly_at_the_upper_root():
    _, high = ent.critical_alphas()
    alpha = 1.0 + 1e-3
    while alpha < 4.0:
        _, _, d2 = ent.sidon_two_point(0.5, alpha)
        assert (d2 > 0) == (alpha < high)
        alpha += 1e-3
    assert ent.sidon_two_point(0.5, 4.0)[2] == pytest.approx(-1 / 4)


def test_sidon_value_at_half_matches_direct_sum():
    for alpha in (1.5, 2.0, 3.0):
        value, _, _ = ent.sidon_two_point(0.5, alpha)
        direct = 2 * 0.25**alpha + 0.5**alpha
        assert value == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# searches

def test_search_above_the_box_cap_raises_before_any_trial():
    # 3^13 lattice points for h = 2 exceed the 2^20 cap; a billion trials would never end
    with pytest.raises(CapExceeded, match="lattice box of 1594323 cells"):
        ent.uniform_optimality_search(13, 2.0, 2, trials=10**9, seed=0)
    with pytest.raises(InvalidParams):
        ent.uniform_optimality_search(1, 2.0, 0, trials=1, seed=0)


def test_search_chunks_match_one_law_at_a_time(monkeypatch):
    n0, h, trials, seed = 2, 3, 20, 4
    whole = ent.uniform_optimality_search(n0, 2.5, h, trials, seed)
    # a cap of three boxes folds the trials in seven chunks, the perturbations in two
    monkeypatch.setattr(ent, "DEFAULT_SUPPORT_CAP", 3 * (h + 1) ** n0)
    assert ent.uniform_optimality_search(n0, 2.5, h, trials, seed) == whole
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = ent.bit_points(n0)
    values = [ent.renyi(ent.hfold(ent.make_distribution(zip(points, rng.dirichlet(np.ones(4)))),
                                  h), 2.5)
              for _ in range(trials)]
    assert whole.best_value >= max(values) - 1e-12
    uniform = ent.renyi(ent.hfold(ent.make_distribution((a, 0.25) for a in points), h), 2.5)
    assert whole.uniform_value == pytest.approx(uniform, abs=1e-12)


def test_uniform_optimality_search_smoke():
    report = ent.uniform_optimality_search(1, 2.0, 2, trials=200, seed=0)
    assert not report.counterexample and report.gap >= 0
    again = ent.uniform_optimality_search(1, 2.0, 2, trials=200, seed=0)
    assert report == again  # deterministic
    assert report.sampling_law == "dirichlet-uniform-simplex"


def test_point_mass_never_beats_uniform():
    point = ent.from_probs([0, 1])
    for alpha in (0.5, 1.0, 2.0):
        assert ent.renyi(ent.hfold(point, 2), alpha) == pytest.approx(0.0, abs=1e-12)


def test_perturbation_beats_uniform_for_alpha_3_n_3():
    eps, h_uniform, h_perturbed = ent.perturbation_witness(3, 3.0)
    assert 0 < eps < 1 / 8
    assert h_perturbed > h_uniform + 1e-9


def test_no_perturbation_gain_for_alpha_2():
    eps, h_uniform, h_perturbed = ent.perturbation_witness(3, 2.0)
    assert h_perturbed <= h_uniform + 1e-12


# ---------------------------------------------------------------------------
# majorization calculus

def test_rearrangements_pinned():
    assert ent.rearrange_T((0.2, 0.5, 0.3)) == (0.5, 0.3, 0.2)
    assert ent.rearrange_S((0.5, 0.3, 0.2)) == (0.2, 0.5, 0.3)
    assert ent.rearrange_S((0.4, 0.3, 0.2, 0.1)) == (0.2, 0.4, 0.3, 0.1)
    assert ent.rearrange_S((1,)) == (1,)
    assert ent.rearrange_T(()) == ()


def test_shift_add_pinned():
    half = Fraction(1, 2)
    assert ent.shift_add_C((half, half), 1) == (half, 1, half)
    assert ent.shift_add_C((1,), 5) == (1, 0, 0, 0, 0, 1)
    assert ent.shift_add_C((0, 0), 2) == (0, 0, 0, 0)
    with pytest.raises(InvalidParams):
        ent.shift_add_C((1,), 0)


def test_majorized_by_pinned():
    assert ent.majorized_by((Fraction(1, 2), Fraction(1, 2)), (1, 0))
    assert not ent.majorized_by((1, 0), (Fraction(1, 2), Fraction(1, 2)))
    quarter = Fraction(1, 4)
    assert ent.majorized_by((quarter,) * 4, (quarter, Fraction(1, 2), quarter))


def test_majorized_by_rejects_a_negative_entry():
    # majorization is defined on non-negative sequences; this pair printed "true"
    with pytest.raises(InvalidParams, match="negative entry -1"):
        ent.majorized_by((Fraction(1, 2), Fraction(1, 2)), (2, -1))
    with pytest.raises(InvalidParams, match="negative entry -1/3"):  # p's entry comes first
        ent.majorized_by((Fraction(-1, 3), 1), (2, -1))


def random_sequence(rng, max_len=8):
    return tuple(Fraction(rng.randint(0, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(1, max_len)))


def robin_hood_majorant_pair(rng):
    """(p, q) with p majorized by q, via mass transfers from rich to poor."""
    q = tuple(Fraction(rng.randint(0, 9)) for _ in range(rng.randint(2, 8)))
    p = list(ent.rearrange_T(q))
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(len(p)), 2))
        if p[i] > p[j]:
            amount = min(Fraction(rng.randint(0, 2), rng.randint(1, 3)),
                         (p[i] - p[j]) / 2)
            p[i] -= amount
            p[j] += amount
    return tuple(p), q


def test_shifted_sum_majorized_by_symmetric_rearrangement():
    rng = random.Random(1)
    for _ in range(100):
        p = random_sequence(rng)
        for c in (1, -1, 2, -2, 3, -3):
            assert ent.majorized_by(ent.shift_add_C(p, c),
                                    ent.shift_add_C(ent.rearrange_S(p), 1))


def test_symmetric_rearrangement_preserves_majorization_under_shift():
    rng = random.Random(2)
    for _ in range(100):
        p, q = robin_hood_majorant_pair(rng)
        assert ent.majorized_by(p, q)
        assert ent.majorized_by(ent.shift_add_C(ent.rearrange_S(p), 1),
                                ent.shift_add_C(ent.rearrange_S(q), 1))


def test_weighted_bit_sum_laws():
    assert ent.weighted_bit_sum((1, 2)) == (Fraction(1, 4),) * 4
    assert ent.weighted_bit_sum((1, 1)) == \
        (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    law = ent.weighted_bit_sum((1, 1, 1, 1))
    assert law == tuple(Fraction(math.comb(4, a), 16) for a in range(5))
    for coeffs in ((1, 0), (1, -5), (1.5,), (2, "3")):  # (1, -5) raised IndexError, (1.5,) TypeError
        with pytest.raises(InvalidParams, match="positive integers"):
            ent.weighted_bit_sum(coeffs)
    assert ent.weighted_bit_sum(()) == (Fraction(1),)


def test_weighted_bit_sum_counts_every_bit_assignment():
    for d in range(7):
        for coeffs in product((1, 2, 3), repeat=d):
            counts = Counter(sum(c * b for c, b in zip(coeffs, bits))
                             for bits in product((0, 1), repeat=d))
            assert ent.weighted_bit_sum(coeffs) == \
                tuple(Fraction(counts[a], 2**d) for a in range(sum(coeffs) + 1))


def test_weighted_sums_power_bounded_by_equal_coefficients():
    # sum of (g+1)-th powers is maximized by all-distinct equal coefficients
    for d in (1, 2, 3, 4):
        for coeffs in product((1, 2, 3), repeat=d):
            law = ent.weighted_bit_sum(coeffs)
            for g in (1, 2, 3):
                assert sum(x ** (g + 1) for x in law) <= cmax_p_closed(d, g)


def test_cmax_probability_monotone_for_even_h():
    for g in range(1, 5):
        for h in (2, 4, 6, 8):
            for d in range(1, h + 1):
                pd, ph = cmax_p_closed(d, g), cmax_p_closed(h, g)
                assert pd ** (h * (g + 1)) <= ph ** (d * (g + 1))
