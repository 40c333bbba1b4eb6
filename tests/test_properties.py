"""Property tests: the explicit constructions are B_h-sets for every small
(q, h), verified by the oracle in their native ambient and as binary codes;
the configuration engine names classes and counts automorphisms as the
tuple-by-tuple references do; a family's p(C) weights, joined together,
are the ones that folding one class at a time gives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bhlab import algebra, configurations, oracle
from bhlab.constructions import (bose_chowla, field_vectors_to_binary, power_map,
                                 residues_to_binary)
from helpers import automorphism_reference, canonical_reference, coinciding_weight_reference

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)
MULTISET_BUDGET = 2**21  # keeps each example well under a second


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bose_chowla_sets_are_bh(data):
    q = data.draw(st.sampled_from(PRIME_POWERS), label="q")
    h = data.draw(st.integers(2, 16).filter(lambda h: q**h <= 2**16), label="h")
    s = bose_chowla(q, h)
    assert len(s.elements) == q
    assert oracle.verify_bh(list(s.elements), h, add=oracle.residue_add(s.modulus)) is None
    assert oracle.verify_code_bh(residues_to_binary(s), h) is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_map_sets_are_bh(data):
    q = data.draw(st.sampled_from(PRIME_POWERS), label="q")
    p = algebra.make_field(q).p
    h = data.draw(st.integers(1, p - 1).filter(
        lambda h: oracle.multiset_count(q, h) <= MULTISET_BUDGET), label="h")
    s = power_map(q, h)
    # GF(p^e)^h adds coefficientwise mod p: the native ambient is Z_p^(h e)
    elements = [tuple(c for x in vec for c in x.coeffs) for vec in s.elements]
    assert oracle.verify_bh(elements, h, add=oracle.vector_mod_add(p)) is None
    if q == p:
        assert oracle.verify_code_bh(field_vectors_to_binary(s), h) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_engine_batch_matches_the_references(data):
    l = data.draw(st.integers(1, 6), label="l")
    vector = st.tuples(*[st.integers(0, 3)] * l)
    batch = data.draw(st.lists(st.lists(vector, min_size=1, max_size=7).map(tuple),
                               min_size=1, max_size=8), label="batch")
    assert configurations._canonical_all(batch) == [canonical_reference(c) for c in batch]
    for c in batch:
        assert (configurations.automorphism_count(configurations.Configuration(c))
                == automorphism_reference(c))


# (point, integer weight) supports as `conf_stats` and `conf_stats_general` pass
# them: uniform bits, 2-bit blocks of a rational law, a law with no zero point,
# negative coordinates, and a float law, whose weights need Python ints
WEIGHT_LAWS = [
    configurations._UNIFORM_BITS,
    (((0, 0), 1), ((0, 1), 1), ((1, 0), 3), ((1, 1), 3)),
    (((1, 2), 2), ((2, -1), 1), ((3, 3), 3)),
    (((-2,), 1), ((1,), 1), ((3,), 2)),
    configurations._integer_law([(0, 0.3), (1, 0.7)])[0],
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_family_weights_folded_together_match_the_per_class_fold(data):
    support = data.draw(st.sampled_from(WEIGHT_LAWS), label="support")
    family = []
    for l in data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=2), label="ls"):
        vector = st.tuples(*[st.integers(0, data.draw(st.integers(1, 2), label="top"))] * l)
        classes = st.lists(vector, min_size=1, max_size=5).map(lambda c: tuple(sorted(c)))
        family += data.draw(st.lists(classes, min_size=1, max_size=16), label="classes")
    configurations._WEIGHTS.clear()
    folded = configurations._coinciding_weights(family, support)
    assert folded == [coinciding_weight_reference(c, support) for c in family]
