"""Achievable-rate formulas and exact exponent optimization.

Every optimizer compares p1^(1/a) with p2^(1/b) by their float logs
log2(p)/a, and through the cross-powered big-rational test p1^b vs p2^a
wherever those are within _EXACT_GAP, far above a float log's error, so
argmins and ties are exact; otherwise floats appear only in the reported rate
values (bits per symbol, base-2 logs throughout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .configurations import (Configuration, _VECTORS, _law_stats, _law_weights, _read_law,
                             canonical, cmax, cmax_p_closed, conf_stats, enumerate_conf_sharp,
                             enumerate_conf_upto, precompute_stats)
from .entropy import Distribution, _as_fraction, hfold, log2_fraction, renyi
from .errors import EmptyFamily, InvalidParams


@dataclass(frozen=True)
class RateRow:
    configuration: Configuration
    d: int
    p: Fraction
    exponent: float  # -log2(p) / (d - 1)


@dataclass(frozen=True)
class RateReport:
    formula: str
    rate: float
    argmin: Configuration | None = None
    table: tuple = ()
    ties: tuple = ()

    def to_json(self):
        return {
            "formula": self.formula,
            "rate": self.rate,
            "vacuous": False,  # constant: benchmark references and pinned digests hash this JSON
            "argmin": None if self.argmin is None else repr(self.argmin),
            "ties": [repr(c) for c in self.ties],
            "table": [{"configuration": repr(r.configuration), "d": r.d,
                       "p": f"{r.p.numerator}/{r.p.denominator}",
                       "exponent": r.exponent} for r in self.table],
        }

    def table_csv(self):
        lines = ["configuration,k,l,d,p,exponent"]
        for r in self.table:
            c = r.configuration
            lines.append(f"{c!r},{c.k},{c.l},{r.d},"
                         f"{r.p.numerator}/{r.p.denominator},{r.exponent:.12f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed-form rates

def _binomial_rate(h, denominator) -> float:
    if h < 1:
        raise InvalidParams("h must be >= 1")
    return log2_fraction(Fraction(4**h, comb(2 * h, h))) / denominator


def rate_dr(h) -> RateReport:
    """log2(4^h / binom(2h,h)) / (2h)."""
    return RateReport(formula="dr", rate=_binomial_rate(h, 2 * h))


def rate_poltyrev(h) -> RateReport:
    """log2(4^h / binom(2h,h)) / (2h - 1)."""
    return RateReport(formula="poltyrev", rate=_binomial_rate(h, 2 * h - 1))


def rate_distribution(dist: Distribution, h) -> RateReport:
    """Collision entropy of the h-fold sum over n0 * (2h - 1)."""
    value = renyi(hfold(dist, h), 2) / (dist.n0 * (2 * h - 1))
    return RateReport(formula="distribution", rate=value)


# ---------------------------------------------------------------------------
# exponent optimization over configuration families

_EXACT_GAP = 1e-9  # log2 p / (d - 1) values closer than this are compared exactly


def optimize_exponent(confs, stats_fn=conf_stats):
    """Argmax of p(C)^(1/(d-1)) with exact tie detection: float exponents
    decide where they differ by more than _EXACT_GAP, the exact test
    p_c^(d_b-1) vs p_b^(d_c-1) elsewhere.

    Returns (argmax configuration, its ConfStats, tuple of tied configs).
    Ties are broken by canonical configuration order.
    """
    confs = sorted(confs, key=_VECTORS)
    if not confs:
        raise EmptyFamily("no configurations to optimize over")
    stats = [stats_fn(c) for c in confs]
    exponents = [log2_fraction(s.p) / (s.d - 1) for s in stats]
    best, ties = 0, [confs[0]]
    for i in range(1, len(confs)):
        gap = exponents[i] - exponents[best]
        if abs(gap) <= _EXACT_GAP:
            # p_c^{1/(d_c-1)} vs p_b^{1/(d_b-1)}  <=>  p_c^(d_b-1) vs p_b^(d_c-1)
            lhs, rhs = stats[i].p ** (stats[best].d - 1), stats[best].p ** (stats[i].d - 1)
            gap = (lhs > rhs) - (lhs < rhs)
        if gap > 0:
            best, ties = i, [confs[i]]
        elif gap == 0:
            ties.append(confs[i])
    return confs[best], stats[best], tuple(ties)


def _family_report(formula, confs, stats_fn=conf_stats) -> RateReport:
    argmin, best_stats, ties = optimize_exponent(confs, stats_fn)
    rows = []
    for c in sorted(confs, key=_VECTORS):
        s = stats_fn(c)
        rows.append(RateRow(configuration=c, d=s.d, p=s.p,
                            exponent=-log2_fraction(s.p) / (s.d - 1)))
    rate = -log2_fraction(best_stats.p) / (best_stats.d - 1)
    return RateReport(formula=formula, rate=rate, argmin=argmin,
                      table=tuple(rows), ties=ties)


def rate_bhg(h, g) -> RateReport:
    """min over Conf(<= h, g+1) of -log2(p) / (d - 1)."""
    if h < 1 or g < 1:
        raise InvalidParams(f"h and g must be >= 1, got h = {h}, g = {g}")
    family = enumerate_conf_upto(h, g + 1)
    precompute_stats(family)
    return _family_report(f"bhg(h={h},g={g})", family)


def rate_bhg_distribution(h, g, dist) -> RateReport:
    """Same minimization with per-block probabilities from `dist`; the rate is
    per n0-bit block, not per bit: `uniform_bits(2)` gives twice `rate_bhg(2, 1)`.
    A float probability is read as the binary fraction it holds, so the table,
    argmin and ties stay exact."""
    if h < 1 or g < 1:
        raise InvalidParams(f"h and g must be >= 1, got h = {h}, g = {g}")
    exact = tuple((a, _as_fraction(p)) for a, p in dist.items)
    family, law = enumerate_conf_upto(h, g + 1), _read_law(exact)
    _law_weights(family, law)
    return _family_report(f"bhg-dist(h={h},g={g})", family, stats_fn=lambda c: _law_stats(c, law))


def rate_bh_sharp(h, d) -> RateReport:
    """min over Conf#(<= h)[d], a family that is never empty for d >= h."""
    if d < h:
        raise InvalidParams(f"d = {d} < h = {h}")
    family = enumerate_conf_sharp(h, d)
    precompute_stats(family)
    return _family_report(f"bhsharp(h={h},d={d})", family)


# ---------------------------------------------------------------------------
# the explicit block configuration beating the all-distinct one

@dataclass(frozen=True)
class SpecialConfigReport:
    h: int
    g: int
    p: Fraction
    d: int
    exponent: float          # p^{1/(d-1)}
    cmax_p: Fraction = field(repr=False, default=None)
    cmax_d: int = 0
    cmax_exponent: float = 0.0


def poltyrev_special_config(h, g) -> SpecialConfigReport:
    """Block configuration with p = binom(2h,h) * 2^-(2h+g-1), d = 2h-1+g,
    compared against the all-distinct configuration of the same shape."""
    if h < 1 or g < 1:
        raise InvalidParams("h and g must be >= 1")
    p = Fraction(comb(2 * h, h), 2 ** (2 * h + g - 1))
    d = 2 * h - 1 + g
    exponent = 2.0 ** (log2_fraction(p) / (d - 1))
    return SpecialConfigReport(h=h, g=g, p=p, d=d, exponent=exponent,
                               cmax_p=cmax_p_closed(h, g), cmax_d=h * (g + 1),
                               cmax_exponent=cmax_exponent(h, g))


def special_config_configuration(h, g) -> Configuration:
    """The block configuration itself, for small h (exact cross-checks)."""
    if h < 1 or g < 1:
        raise InvalidParams("h and g must be >= 1")
    l = g + 1
    vectors = [tuple(1 if j == 0 else 0 for j in range(l)) for _ in range(h)]
    vectors.extend(tuple(0 if j == 0 else 1 for j in range(l)) for _ in range(h - 1))
    vectors.extend(tuple(1 if j == jc else 0 for j in range(l)) for jc in range(1, l))
    return canonical(tuple(vectors))


def cmax_exponent(h, g) -> float:
    """p(cmax(h, g+1))^(1/(d-1)) as a float, with d = h*(g+1)."""
    return 2.0 ** (log2_fraction(cmax_p_closed(h, g)) / (h * (g + 1) - 1))
