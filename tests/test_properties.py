"""Property tests: the explicit constructions are B_h-sets for every small
(q, h), verified by the oracle in their native ambient and as binary codes;
the configuration engine names classes and counts automorphisms as the
tuple-by-tuple references do."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bhlab import algebra, configurations, oracle
from bhlab.constructions import (bose_chowla, field_vectors_to_binary, power_map,
                                 residues_to_binary)
from helpers import automorphism_reference, canonical_reference

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
