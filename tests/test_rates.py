"""Rate formulas against high-precision references and exact cross-checks."""

import hashlib
import json
import math
from fractions import Fraction

import mpmath
import pytest

from bhlab import configurations as conf
from bhlab import rates
from bhlab.entropy import from_probs, uniform_bits
from bhlab.errors import CapExceeded, EmptyFamily, InvalidParams


def mp_binomial_rate(h, denom):
    with mpmath.workdps(60):
        val = mpmath.log(mpmath.mpf(4) ** h / mpmath.binomial(2 * h, h), 2) / denom
        return float(val)


@pytest.mark.parametrize("h", [1, 2, 3, 5, 10, 64])
def test_closed_form_rates_match_mpmath(h):
    assert rates.rate_dr(h).rate == pytest.approx(mp_binomial_rate(h, 2 * h), abs=1e-12)
    assert rates.rate_poltyrev(h).rate == pytest.approx(
        mp_binomial_rate(h, 2 * h - 1), abs=1e-12)


def test_dr_below_poltyrev():
    for h in range(1, 30):
        assert rates.rate_dr(h).rate < rates.rate_poltyrev(h).rate
    with pytest.raises(InvalidParams):
        rates.rate_dr(0)


def test_pinned_small_h_values():
    assert rates.rate_dr(1).rate == pytest.approx(0.5)  # log2(4/2)/2
    assert rates.rate_poltyrev(1).rate == pytest.approx(1.0)
    assert rates.rate_poltyrev(2).rate == pytest.approx(math.log2(16 / 6) / 3)


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
def test_bhg_with_g1_recovers_poltyrev_with_cmax_argmin(h):
    report = rates.rate_bhg(h, 1)
    assert report.argmin == conf.cmax(h, 2)
    assert report.ties == (report.argmin,)
    assert report.rate == pytest.approx(rates.rate_poltyrev(h).rate, abs=1e-12)
    assert len(report.table) == len(conf.enumerate_conf_upto(h, 2))


def test_uniform_distribution_rate_equals_poltyrev():
    # H2 of the h-fold Bernoulli(1/2) sum is exactly log2(4^h / binom(2h,h))
    for h in (1, 2, 3, 5):
        got = rates.rate_distribution(uniform_bits(1), h).rate
        assert got == pytest.approx(rates.rate_poltyrev(h).rate, abs=1e-12)


def test_distribution_rate_blocks():
    # n0 = 2 uniform blocks halve nothing: same rate as n0 = 1 uniform
    got = rates.rate_distribution(uniform_bits(2), 2).rate
    assert got == pytest.approx(2 * rates.rate_poltyrev(2).rate / 2, abs=1e-12)


def test_biased_distribution_rate_is_smaller():
    biased = from_probs([Fraction(3, 4), Fraction(1, 4)])
    for h in (2, 3):
        assert (rates.rate_distribution(biased, h).rate
                < rates.rate_distribution(uniform_bits(1), h).rate)


def test_optimize_exponent_exactness_and_ties():
    family = conf.enumerate_conf_upto(2, 2)
    best, stats, ties = rates.optimize_exponent(family)
    assert best == conf.cmax(2, 2)
    assert stats.p == Fraction(3, 8) and stats.d == 4
    # (a|a) vs itself: duplicate list input keeps a single tie entry per class
    best2, _, ties2 = rates.optimize_exponent(list(family) + list(family))
    assert best2 == best
    with pytest.raises(EmptyFamily):
        rates.optimize_exponent([])


def test_bhg_report_table_is_exact_at_2_3():
    report = rates.rate_bhg(2, 2)
    assert len(report.table) == 8  # |Conf(<=2, 3)|
    by_stats = {(r.d, r.p) for r in report.table}
    assert (5, Fraction(3, 16)) in by_stats
    assert (6, Fraction(5, 32)) in by_stats
    # rate equals the argmin row's exponent
    row = next(r for r in report.table if r.configuration == report.argmin)
    assert report.rate == pytest.approx(row.exponent, abs=1e-15)
    # every other row has an exponent >= the reported rate
    assert all(r.exponent >= report.rate - 1e-12 for r in report.table)


def test_bhg_distribution_report_reduces_to_uniform():
    u = rates.rate_bhg_distribution(2, 1, uniform_bits(1))
    assert u.rate == pytest.approx(rates.rate_bhg(2, 1).rate, abs=1e-12)
    assert u.argmin == rates.rate_bhg(2, 1).argmin


def test_bhg_distribution_reads_a_float_law_as_its_binary_fractions():
    # a float law raised AttributeError: 'float' object has no attribute 'numerator'
    as_float = rates.rate_bhg_distribution(2, 1, from_probs([0.25, 0.75]))
    exact = rates.rate_bhg_distribution(2, 1, from_probs([Fraction(1, 4), Fraction(3, 4)]))
    assert as_float.to_json() == exact.to_json()
    report = rates.rate_bhg_distribution(2, 1, from_probs([0.1, 0.9]))
    assert report.table and all(type(r.p) is Fraction for r in report.table)


def test_bhg_distribution_of_a_float_law_keeps_its_pinned_table():
    # sha256 of json.dumps(report.to_json(), sort_keys=True), recorded while the
    # masses were turned into Fractions before the law was read
    report = rates.rate_bhg_distribution(3, 2, from_probs([0.3, 0.7]))
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "007b13bff6d4fdc2e89db4dcd5a7ace4771ec63c185dd006c5908b99d4f06a6f"


@pytest.mark.parametrize("h,g", [(0, 1), (2, 0), (-1, 2)])
def test_bhg_distribution_rejects_h_or_g_below_1_naming_both(h, g):
    # it used to raise EmptyFamily, "no configurations to optimize over"
    with pytest.raises(InvalidParams, match=f"h = {h}, g = {g}"):
        rates.rate_bhg_distribution(h, g, uniform_bits(1))


def test_bh_sharp_rate_matches_its_family():
    report = rates.rate_bh_sharp(2, 2)
    assert report.table and report.to_json()["vacuous"] is False
    # independent recomputation from the enumerated family
    family = conf.enumerate_conf_sharp(2, 2)
    expected = min(-rates.log2_fraction(conf.conf_stats(c).p) / (c.d - 1)
                   for c in family)
    assert report.rate == pytest.approx(expected, abs=1e-12)
    with pytest.raises(CapExceeded):
        rates.rate_bh_sharp(2, 20)
    for h, d in [(3, 2), (0, 0)]:
        with pytest.raises(InvalidParams):
            rates.rate_bh_sharp(h, d)


def test_special_config_closed_form_matches_enumeration_at_small_h():
    # the block configuration's (p, d) from the closed form vs conf_stats
    for h, g in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        report = rates.poltyrev_special_config(h, g)
        c = rates.special_config_configuration(h, g)
        stats = conf.conf_stats(c)
        assert stats.d == report.d == 2 * h - 1 + g
        assert stats.p == report.p
        assert report.cmax_p == conf.cmax_p_closed(h, g)
        assert report.cmax_exponent == 2.0 ** (rates.log2_fraction(report.cmax_p)
                                               / (report.cmax_d - 1))
    # at (2,2) the special configuration is one of the seven (2,3) classes
    assert rates.special_config_configuration(2, 2) in conf.enumerate_conf(2, 3)


def test_special_config_beats_cmax_only_for_large_h():
    small = rates.poltyrev_special_config(2, 2)
    assert small.exponent < small.cmax_exponent  # cmax still wins at h = 2
    big = rates.poltyrev_special_config(100, 2)
    assert big.exponent > big.cmax_exponent      # and loses at h = 100


def test_suboptimality_pinned_numbers():
    report = rates.poltyrev_special_config(100, 2)
    assert report.exponent == pytest.approx(0.982312, abs=5e-6)
    assert report.cmax_exponent == pytest.approx(0.981414, abs=5e-6)


def test_cmax_exponent_denominators():
    # the d = 2h denominator reproduces the DR-style exponent at g = 1
    for h in (2, 3):
        e = float(conf.cmax_p_closed(h, 1)) ** (1 / (2 * h))
        assert math.log2(e) == pytest.approx(-rates.rate_dr(h).rate, abs=1e-12)
        e1 = rates.cmax_exponent(h, 1)
        assert math.log2(e1) == pytest.approx(-rates.rate_poltyrev(h).rate, abs=1e-12)


def test_report_serialization():
    report = rates.rate_bhg(2, 1)
    rec = report.to_json()
    json.dumps(rec)  # serializable
    assert rec["formula"].startswith("bhg")
    assert len(rec["table"]) == len(report.table)
    csv = report.table_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "configuration,k,l,d,p,exponent"
    assert len(lines) == len(report.table) + 1


def test_log2_fraction_exactness():
    assert rates.log2_fraction(Fraction(1, 8)) == -3.0
    assert rates.log2_fraction(Fraction(2**60)) == 60.0
    with pytest.raises(InvalidParams):
        rates.log2_fraction(Fraction(0))
