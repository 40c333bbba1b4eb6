"""Explicit constructions checked against an independent sum-collision scan."""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlab import constructions, oracle
from bhlab.errors import (CharacteristicTooSmall, DegenerateModulus, InvalidParams,
                          NonPrimeFieldUnsupported)


def brute_is_bh(elements, h, add):
    """Independent reference: all size-h multiset sums pairwise distinct."""
    seen = {}
    for combo in combinations_with_replacement(range(len(elements)), h):
        acc = elements[combo[0]]
        for i in combo[1:]:
            acc = add(acc, elements[i])
        if acc in seen and seen[acc] != combo:
            return False
        seen[acc] = combo
    return True


def int_add(a, b):
    return a + b


def tuple_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("q,h", [(3, 2), (4, 2), (5, 2), (7, 2), (3, 3)])
def test_bose_chowla_is_bh_in_the_residue_group(q, h):
    s = constructions.bose_chowla(q, h)
    m = q**h - 1
    assert s.modulus == m
    assert len(s.elements) == q
    assert all(0 <= r < m for r in s.elements)
    assert brute_is_bh(list(s.elements), h, lambda a, b: (a + b) % m)


def test_bose_chowla_rejects_degenerate_modulus():
    with pytest.raises(DegenerateModulus):
        constructions.bose_chowla(1, 2)
    for h in (1, 0, -1):  # at h = 1, alpha + x is 0 for x = -alpha
        with pytest.raises(InvalidParams, match="h >= 2"):
            constructions.bose_chowla(3, h)


# (q, h): sha256 of repr(bose_chowla(q, h).elements), recorded from the
# dict-based discrete logs that the numpy ones replaced (commit 8d9c0d1)
PINNED_BOSE_CHOWLA = {
    (257, 2): "17426a7834c26ed9b21b6e587db237248f6b152b9547c9ae78cb987371ae11c8",
    (64, 3): "5745ed0e172ae68c888cae907d3e13f8137338e84bb26fbc4ffc7249a44852b9",
    (31, 4): "22918c5ff68a840a7d407d044c5dafbfeb8d5bee081e590244da7ec1f623ca3d",
    (1024, 2): "02ea71c91be49f7c9e991fe5b1be4a6ca426a400af9221fb0d3ab840e80a8aab",
}


@pytest.mark.parametrize("q,h", sorted(PINNED_BOSE_CHOWLA))
def test_bose_chowla_residues_match_pinned_digests(q, h):
    s = constructions.bose_chowla(q, h)
    assert (s.modulus, len(s.elements)) == (q**h - 1, q)
    assert hashlib.sha256(repr(s.elements).encode()).hexdigest() == PINNED_BOSE_CHOWLA[q, h]


@pytest.mark.parametrize("q,h", [(3, 2), (5, 2), (7, 2), (5, 3), (7, 3), (5, 4)])
def test_power_map_is_bh_in_the_vector_group(q, h):
    s = constructions.power_map(q, h)
    assert len(s.elements) == q
    elems = [tuple(c.to_int() for c in vec) for vec in s.elements]
    assert brute_is_bh(elems, h, lambda a, b: tuple((x + y) % q for x, y in zip(a, b)))


def test_power_map_requires_large_characteristic():
    with pytest.raises(CharacteristicTooSmall):
        constructions.power_map(4, 2)  # char 2 <= h
    with pytest.raises(CharacteristicTooSmall):
        constructions.power_map(9, 3)  # char 3 <= h
    constructions.power_map(9, 2)  # char 3 > 2 is fine


@pytest.mark.parametrize("q,h", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_residue_embedding_preserves_bh(q, h):
    code = constructions.residues_to_binary(constructions.bose_chowla(q, h))
    assert len(code) == q
    # integer word sums, coordinatewise (no wraparound): still collision-free
    assert brute_is_bh(list(code.words), h, tuple_add)


def test_residue_embedding_width():
    s = constructions.BhSetResidues(modulus=48, elements=(0, 1, 46), h=2)
    code = constructions.residues_to_binary(s)
    assert code.n == 6  # representatives 0..46 need 6 bits
    s2 = constructions.BhSetResidues(modulus=3, elements=(0, 2), h=2)
    assert constructions.residues_to_binary(s2).n == 2  # residue 2 bumps width 1 -> 2


@pytest.mark.parametrize("elements", [(1, 7), (1, -1), (0, 5), (1, 1), (2, 0, 2)])
def test_residue_sets_hold_distinct_reduced_residues(elements):
    # (1, 7) and (1, -1) used to embed as ((0,0,1), (1,1,1)) and ((0,1), (1,1)) mod 5,
    # and a repeat was caught by an assert, which python -O drops
    with pytest.raises(InvalidParams):
        constructions.BhSetResidues(modulus=5, elements=elements, h=2)


@pytest.mark.parametrize("elements", [(1.5, 2), (2.0, 3), (Fraction(2), 3), ("1", 2), ([1], 2)])
def test_residue_sets_hold_integers(elements):
    # (1.5, 2) and (2.0, 3) passed the range check and raised TypeError in the embedding
    with pytest.raises(InvalidParams, match="not all integers"):
        constructions.BhSetResidues(modulus=5, elements=elements, h=2)


def test_residue_sets_accept_any_integer_type():
    s = constructions.BhSetResidues(modulus=5, elements=(np.int64(1), np.uint8(2)), h=2)
    plain = constructions.BhSetResidues(modulus=5, elements=(1, 2), h=2)
    assert constructions.residues_to_binary(s) == constructions.residues_to_binary(plain)
    built = constructions.bose_chowla(7, 2)
    assert constructions.BhSetResidues(built.modulus, built.elements, built.h) == built
    assert len(constructions.residues_to_binary(built)) == 7


def test_residues_of_more_than_64_bits_embed():
    s = constructions.BhSetResidues(modulus=2**70 + 1, elements=(1, 2**69 + 3), h=2)
    code = constructions.residues_to_binary(s)
    assert code.n == 70
    assert code.words == tuple(tuple(map(int, format(r, "070b"))) for r in s.elements)


@pytest.mark.parametrize("q,h", [(5, 2), (7, 2), (5, 3)])
def test_field_vector_embedding_preserves_bh(q, h):
    code = constructions.field_vectors_to_binary(constructions.power_map(q, h))
    assert len(code) == q
    assert code.n == h * (q - 1).bit_length()
    assert brute_is_bh(list(code.words), h, tuple_add)


def test_field_vector_embedding_rejects_extension_fields():
    with pytest.raises(NonPrimeFieldUnsupported):
        constructions.field_vectors_to_binary(constructions.power_map(9, 2))


def test_make_binary_code_sorts_and_dedupes():
    code = constructions.make_binary_code([(1, 0), (0, 1), (1, 0)], h=2, source="x")
    assert code.words == ((0, 1), (1, 0))
    assert len(code) == 2 and code.n == 2
    assert code.rate == 0.5
    with pytest.raises(ValueError):
        constructions.make_binary_code([])


def test_make_binary_code_stores_python_int_bits():
    # numpy int8 bits used to reach the oracle unchanged, wrap in its
    # base-(h+1) encoding and yield a false Violation(k=2, ..., sum=-76)
    code = constructions.field_vectors_to_binary(constructions.power_map(7, 2))
    int8 = constructions.make_binary_code(
        [tuple(np.int8(b) for b in w) for w in code.words], h=2)
    assert int8.words == code.words
    assert all(type(b) is int for w in int8.words for b in w)
    assert oracle.verify_code_bh(int8, 2) is None
    with pytest.raises(InvalidParams):
        constructions.make_binary_code([(0, 1), (2, 0)])
    with pytest.raises(InvalidParams):
        constructions.make_binary_code([(0, -1)])


def _tuple_code(words, h, source):
    """The code's words and text as computed on bit-tuples, one bit at a time:
    the reference for the uint8-matrix code."""
    def bit_word(word):
        if not {0, 1}.issuperset(word):
            raise InvalidParams(f"word {tuple(word)!r} has a bit other than 0/1")
        return tuple(map(int, word))
    words = tuple(sorted(set(map(bit_word, words))))
    if not words:
        raise ValueError("empty code")
    if len({len(w) for w in words}) > 1:
        raise InvalidParams("code words must share one length")
    lines = [f"n={len(words[0])} h={h} source={source}"] + ["".join(map(str, w)) for w in words]
    return words, "\n".join(lines) + "\n"


BIT_TYPES = {  # name -> words as bit-tuples of Python ints -> the caller's input
    "int": lambda words: words,
    "bool": lambda words: [tuple(map(bool, w)) for w in words],
    "int8": lambda words: [tuple(np.int8(b) for b in w) for w in words],
    "int8-matrix": lambda words: np.array(words, np.int8).reshape(len(words), -1),
    "bool-matrix": lambda words: np.array(words, bool).reshape(len(words), -1),
    "uint8-matrix": lambda words: np.array(words, np.uint8).reshape(len(words), -1),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=40)),
       st.sampled_from([None, 2, 3]))
def test_matrix_code_and_text_match_the_tuple_code(words, h):
    expected_words, expected_text = _tuple_code(words, "?" if h is None else h, "demo")
    for name, convert in BIT_TYPES.items():
        code = constructions.make_binary_code(convert(words), h=h, source="demo")
        assert code.words == expected_words, name
        assert all(type(b) is int for w in code.words for b in w)
        text = constructions.code_to_text(code)
        assert text == expected_text, name
        assert constructions.code_from_text(text) == code


@pytest.mark.parametrize("words", [
    [], [(0, 2)], [(0, -1)], [(1,), (0, 1)], [(0, 1), (2,)], [(1, 0.5)], [(1.0, 0), (0, 1)],
    [(np.int8(0), np.int8(2))], [(True,), (False, True)], ["01"], [(0, 1), (1, 2**70)],
    np.array([[0, 1], [3, 0]], np.int8), np.array([[0.0, 1.0]]),
], ids=repr)
def test_make_binary_code_raises_as_the_tuple_code(words):
    try:
        expected = _tuple_code(words, 2, "x")[0]
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            constructions.make_binary_code(words, h=2, source="x")
        assert str(got.value) == str(exc)
    else:
        assert constructions.make_binary_code(words, h=2, source="x").words == expected


def test_text_round_trip():
    code = constructions.make_binary_code([(0, 1, 1), (1, 0, 0)], h=3, source="demo")
    text = constructions.code_to_text(code)
    assert text.splitlines()[0] == "n=3 h=3 source=demo"
    assert constructions.code_from_text(text) == code
    anon = constructions.make_binary_code([(0,), (1,)])
    assert constructions.code_from_text(constructions.code_to_text(anon)).h is None


def test_text_parsing_rejects_malformed_input():
    with pytest.raises(ValueError):
        constructions.code_from_text("01\n10\n")  # missing header
    with pytest.raises(ValueError):
        constructions.code_from_text("n=2 h=2 source=x\n012\n")
    with pytest.raises(ValueError):
        constructions.code_from_text("n=2 h=2 source=x\n0\n")


def test_construction_rate_law():
    # rate = log2(q) / width with width = ceil(log2(q^h - 2)); near 1/h for large q
    import math

    for q in (13, 61):
        code = constructions.residues_to_binary(constructions.bose_chowla(q, 2))
        width = max(1, (q**2 - 3).bit_length())
        assert code.n == width
        assert abs(code.rate - math.log2(q) / width) < 1e-12
    assert abs(code.rate - 0.5) < 0.01  # q = 61: log2(61)/12
