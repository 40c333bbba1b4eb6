"""Explicit rate-1/h constructions and binary embeddings.

Two sources of B_h-sets: the discrete-log construction over GF(q^h) and the
power-map construction (x, x^2, ..., x^h) over GF(q)^h.  Both can be pushed
into {0,1}^n through carry-free radix-2 embeddings, preserving the B_h
property because equal coordinatewise integer sums of the binary words force
equal sums in the source group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import algebra
from .algebra import DEFAULT_SIZE_CAP
from .errors import (CharacteristicTooSmall, DegenerateModulus, InvalidParams,
                     NonPrimeFieldUnsupported)


@dataclass(frozen=True)
class BhSetResidues:
    modulus: int
    elements: tuple  # distinct residues, reduced
    h: int

    def __post_init__(self):
        assert len(set(self.elements)) == len(self.elements)


@dataclass(frozen=True)
class BhSetFieldVectors:
    field: algebra.FiniteField
    h: int
    elements: tuple  # tuples of FieldElements, each of length h


@dataclass(frozen=True)
class BinaryCode:
    """A set of equal-length bit-words, the central artifact."""

    n: int
    words: tuple  # sorted tuple of bit-tuples, no duplicates
    h: int | None = None
    source: str = "unknown"

    def __post_init__(self):
        assert all(len(w) == self.n for w in self.words)
        assert len(set(self.words)) == len(self.words)

    def __len__(self):
        return len(self.words)

    @property
    def rate(self):
        return math.log2(len(self.words)) / self.n if self.words else 0.0


def _bit_word(word):
    """A word as a tuple of Python ints; numpy-int bits would wrap in the
    oracle's base-(h+1) encoding."""
    if not {0, 1}.issuperset(word):
        raise InvalidParams(f"word {tuple(word)!r} has a bit other than 0/1")
    return tuple(map(int, word))


def make_binary_code(words, h=None, source="unknown"):
    words = tuple(sorted(set(map(_bit_word, words))))
    if not words:
        raise ValueError("empty code")
    if len({len(w) for w in words}) > 1:
        raise InvalidParams("code words must share one length")
    return BinaryCode(n=len(words[0]), words=words, h=h, source=source)


# ---------------------------------------------------------------------------
# constructions

def bose_chowla(q, h, size_cap=DEFAULT_SIZE_CAP):
    """The B_h-set {d_i} in Z/(q^h-1)Z with alpha^{d_i} = alpha + x_i, x_i in GF(q)."""
    if h < 2:
        raise InvalidParams(f"bose-chowla needs h >= 2, got h = {h} "
                            "(at h = 1, alpha + x is 0 for x = -alpha)")
    m = q**h - 1
    if m < 2:
        raise DegenerateModulus(f"modulus q^h-1 = {m} is degenerate")
    alpha = algebra.find_degree_h_primitive(q, h, size_cap=size_cap)
    targets = [alpha + x for x in algebra.subfield_elements(alpha, q)]
    residues = tuple(sorted(d.representative for d in algebra.discrete_logs(alpha, targets)))
    assert len(residues) == q
    return BhSetResidues(modulus=m, elements=residues, h=h)


def power_map(q, h, size_cap=DEFAULT_SIZE_CAP):
    """The B_h-set {(x, x^2, ..., x^h) : x in GF(q)}; needs char(GF(q)) > h."""
    if h < 1:
        raise InvalidParams("h must be >= 1")
    f = algebra.make_field(q, size_cap=size_cap)
    if f.p <= h:
        raise CharacteristicTooSmall(f"characteristic {f.p} <= h = {h}")
    elements = tuple(tuple(x**i for i in range(1, h + 1)) for x in f)
    return BhSetFieldVectors(field=f, h=h, elements=elements)


# ---------------------------------------------------------------------------
# binary embeddings

def _to_bits(value, width):
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def residues_to_binary(s: BhSetResidues) -> BinaryCode:
    """Big-endian binary words of width ceil(log2(m-1)).

    The width matches the embedding of Z/(q^h-1)Z via representatives
    0..q^h-2; it is bumped when the set actually contains a residue needing
    one more bit (possible only when m-1 is a power of two, e.g. m=3).
    """
    m = s.modulus
    if m < 2:
        raise DegenerateModulus(f"modulus {m} < 2")
    width = max(1, (m - 2).bit_length())
    width = max(width, max(s.elements).bit_length())
    words = [_to_bits(r, width) for r in s.elements]
    return make_binary_code(words, h=s.h, source=f"residues-mod-{m}")


def field_vectors_to_binary(s: BhSetFieldVectors) -> BinaryCode:
    """Per-coordinate radix-2 embedding of GF(q)^h for prime q."""
    f = s.field
    if f.e != 1:
        raise NonPrimeFieldUnsupported("binary embedding defined for prime q only")
    q = f.order
    width = max(1, (q - 1).bit_length())
    words = []
    for vec in s.elements:
        bits = []
        for coord in vec:
            bits.extend(_to_bits(coord.to_int(), width))
        words.append(tuple(bits))
    return make_binary_code(words, h=s.h, source=f"gf{q}-vectors")


# ---------------------------------------------------------------------------
# interchange format: header "n=<n> h=<h> source=<tag>", then one word per line

def code_to_text(code: BinaryCode) -> str:
    h = code.h if code.h is not None else "?"
    lines = [f"n={code.n} h={h} source={code.source}"]
    lines.extend("".join(map(str, w)) for w in code.words)
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> BinaryCode:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("missing interchange header")
    fields = dict(part.split("=", 1) for part in lines[0].split())
    n = int(fields["n"])
    h = None if fields.get("h", "?") == "?" else int(fields["h"])
    source = fields.get("source", "unknown")
    words = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"bad word {ln!r}")
        words.append(tuple(int(c) for c in ln))
    return make_binary_code(words, h=h, source=source)
