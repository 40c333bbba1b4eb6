"""Achievable-rate formulas and exact exponent optimization.

Every optimizer compares p1^(1/a) with p2^(1/b) through the cross-powered
big-rational test p1^b vs p2^a, so argmins and ties are exact; floats appear
only in the reported rate values (bits per symbol, base-2 logs throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .configurations import (Configuration, cmax, cmax_p_closed, conf_stats,
                             conf_stats_general, enumerate_conf_sharp,
                             enumerate_conf_upto)
from .entropy import Distribution, hfold, renyi
from .errors import EmptyFamily, InvalidParams

EXPONENT_DENOMS = ("d-1", "d")


def log2_fraction(x: Fraction) -> float:
    if x <= 0:
        raise InvalidParams("log of non-positive rational")
    return math.log2(x.numerator) - math.log2(x.denominator)


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
    return log2_fraction(Fraction(4**h, comb(2 * h, h))) / denominator


def rate_dr(h) -> RateReport:
    """log2(4^h / binom(2h,h)) / (2h)."""
    if h < 1:
        raise InvalidParams("h must be >= 1")
    return RateReport(formula="dr", rate=_binomial_rate(h, 2 * h))


def rate_poltyrev(h) -> RateReport:
    """log2(4^h / binom(2h,h)) / (2h - 1)."""
    if h < 1:
        raise InvalidParams("h must be >= 1")
    return RateReport(formula="poltyrev", rate=_binomial_rate(h, 2 * h - 1))


def rate_distribution(dist: Distribution, h) -> RateReport:
    """Collision entropy of the h-fold sum over n0 * (2h - 1)."""
    point = dist.support()[0]
    n0 = len(point) if isinstance(point, tuple) else 1
    value = renyi(hfold(dist, h), 2) / (n0 * (2 * h - 1))
    return RateReport(formula="distribution", rate=value)


# ---------------------------------------------------------------------------
# exponent optimization over configuration families

def optimize_exponent(confs, denominator="d-1", stats_fn=conf_stats):
    """Argmax of p(C)^(1/denominator) with exact tie detection.

    Returns (argmax configuration, its ConfStats, tuple of tied configs).
    Ties are broken by canonical configuration order.
    """
    confs = sorted(confs)
    if not confs:
        raise EmptyFamily("no configurations to optimize over")
    stats = {c: stats_fn(c) for c in confs}
    best, ties = None, []
    for c in confs:
        if best is None:
            best, ties = c, [c]
            continue
        pb, db = stats[best].p, _denom_value(best.d, denominator)
        pc, dc = stats[c].p, _denom_value(c.d, denominator)
        # p_c^{1/dc} vs p_b^{1/db}  <=>  p_c^db vs p_b^dc
        lhs, rhs = pc**db, pb**dc
        if lhs > rhs:
            best, ties = c, [c]
        elif lhs == rhs:
            ties.append(c)
    return best, stats[best], tuple(ties)


def _family_report(formula, confs, stats_fn=conf_stats) -> RateReport:
    argmin, best_stats, ties = optimize_exponent(confs, "d-1", stats_fn)
    rows = []
    for c in sorted(confs):
        s = stats_fn(c)
        rows.append(RateRow(configuration=c, d=s.d, p=s.p,
                            exponent=-log2_fraction(s.p) / (s.d - 1)))
    rate = -log2_fraction(best_stats.p) / (best_stats.d - 1)
    return RateReport(formula=formula, rate=rate, argmin=argmin,
                      table=tuple(rows), ties=ties)


def rate_bhg(h, g) -> RateReport:
    """min over Conf(<= h, g+1) of -log2(p) / (d - 1)."""
    return _family_report(f"bhg(h={h},g={g})", enumerate_conf_upto(h, g + 1))


def rate_bhg_distribution(h, g, dist) -> RateReport:
    """Same minimization with per-block probabilities from `dist`."""
    return _family_report(f"bhg-dist(h={h},g={g})", enumerate_conf_upto(h, g + 1),
                          stats_fn=lambda c: conf_stats_general(c, dist.items))


def rate_bh_sharp(h, d) -> RateReport:
    """min over Conf#(<= h)[d], a family that is never empty for d >= h."""
    if d < h:
        raise InvalidParams(f"d = {d} < h = {h}")
    return _family_report(f"bhsharp(h={h},d={d})", enumerate_conf_sharp(h, d))


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
    cp = cmax_p_closed(h, g)
    cd = h * (g + 1)
    c_exponent = 2.0 ** (log2_fraction(cp) / (cd - 1))
    return SpecialConfigReport(h=h, g=g, p=p, d=d, exponent=exponent,
                               cmax_p=cp, cmax_d=cd, cmax_exponent=c_exponent)


def special_config_configuration(h, g) -> Configuration:
    """The block configuration itself, for small h (exact cross-checks)."""
    from .configurations import canonical

    l = g + 1
    vectors = [tuple(1 if j == 0 else 0 for j in range(l)) for _ in range(h)]
    vectors.extend(tuple(0 if j == 0 else 1 for j in range(l)) for _ in range(h - 1))
    vectors.extend(tuple(1 if j == jc else 0 for j in range(l)) for jc in range(1, l))
    return canonical(tuple(vectors))


def cmax_exponent(h, g, denominator="d-1") -> float:
    """p(cmax(h, g+1))^(1/denominator) as a float."""
    p = cmax_p_closed(h, g)
    d = h * (g + 1)
    return 2.0 ** (log2_fraction(p) / _denom_value(d, denominator))


def _denom_value(d, denominator):
    if denominator == "d-1":
        return d - 1
    if denominator == "d":
        return d
    raise InvalidParams(f"denominator must be one of {EXPONENT_DENOMS}")
