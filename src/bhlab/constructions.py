"""Explicit rate-1/h constructions and binary embeddings.

Two sources of B_h-sets: the discrete-log construction over GF(q^h) and the
power-map construction (x, x^2, ..., x^h) over GF(q)^h.  Both can be pushed
into {0,1}^n through carry-free radix-2 embeddings, preserving the B_h
property because equal coordinatewise integer sums of the binary words force
equal sums in the source group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import algebra
from .errors import (CharacteristicTooSmall, DegenerateModulus, InvalidParams,
                     NonPrimeFieldUnsupported)


@dataclass(frozen=True)
class BhSetResidues:
    modulus: int
    elements: tuple  # distinct residues, reduced
    h: int

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise InvalidParams("residues must be distinct")
        for e in self.elements:
            if not 0 <= e < self.modulus:
                raise InvalidParams(f"element {e} is not a residue mod {self.modulus}")


@dataclass(frozen=True)
class BhSetFieldVectors:
    field: algebra.FiniteField
    h: int
    elements: tuple  # tuples of FieldElements, each of length h


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """A set of equal-length bit-words, the central artifact, held as one
    (len, n) uint8 matrix `_bits` of distinct rows in lex order.  `words` is
    the same words as a sorted tuple of bit-tuples, built on first read.
    Codes are equal when their words, n, h and source are."""

    n: int
    _bits: np.ndarray = field(repr=False)
    h: int | None = None
    source: str = "unknown"

    def __post_init__(self):
        assert self._bits.ndim == 2 and self._bits.shape[1] == self.n
        # distinct and sorted: each row is the first copy of itself, in lex order
        assert np.array_equal(_first_rows(self._bits), np.arange(len(self._bits)))

    @cached_property
    def words(self):
        return tuple(map(tuple, self._bits.tolist()))

    def __eq__(self, other):
        if not isinstance(other, BinaryCode):
            return NotImplemented
        return ((self.n, self.h, self.source) == (other.n, other.h, other.source)
                and np.array_equal(self._bits, other._bits))

    def __hash__(self):
        return hash((self.n, self.h, self.source, self._bits.tobytes()))

    def __len__(self):
        return len(self._bits)

    @property
    def rate(self):
        return math.log2(len(self)) / self.n if len(self) else 0.0


def _bit_word(word):
    """A word as a tuple of Python ints, or InvalidParams naming it."""
    if not {0, 1}.issuperset(word):
        raise InvalidParams(f"word {tuple(word)!r} has a bit other than 0/1")
    return tuple(map(int, word))


def _bit_matrix(words):
    """Bit-words (a matrix, or an iterable of sequences of bits of any type
    equal to 0 or 1) as one (m, n) uint8 matrix.  Raises InvalidParams naming
    the first word with another bit, else if the words differ in length."""
    if not isinstance(words, np.ndarray):
        words = list(words)
    try:
        bits = np.asarray(words)
    except ValueError:  # words of unequal length
        bits = np.empty(0)
    if bits.ndim == 2 and bits.dtype.kind in "biu" and ((bits == 0) | (bits == 1)).all():
        return bits.astype(np.uint8, copy=False)
    rows = [_bit_word(w) for w in words]  # names a bad bit; reads bits such as 1.0
    if len({len(w) for w in rows}) > 1:
        raise InvalidParams("code words must share one length")
    return np.array(rows, np.uint8).reshape(len(rows), len(rows[0]) if rows else 0)


def _first_rows(bits):
    """The index of the first copy of each distinct row of a 0/1 matrix, in
    the rows' lex order (the order of sorted bit-tuples)."""
    packed = np.packbits(bits, axis=1)  # big-endian bytes keep the rows' lex order
    if not packed.shape[1]:  # words of no bits: one distinct row at most
        return np.arange(min(len(bits), 1))
    order = np.lexsort(packed.T[::-1])  # stable, so equal rows keep their index order
    rows = packed[order]
    return order[np.append(True, (rows[1:] != rows[:-1]).any(axis=1))]


def make_binary_code(words, h=None, source="unknown"):
    """The code of some bit-words (a matrix or an iterable, as `_bit_matrix`
    reads them), sorted, without duplicates."""
    bits = _bit_matrix(words)
    if not len(bits):
        raise ValueError("empty code")
    bits = bits[_first_rows(bits)]
    return BinaryCode(n=bits.shape[1], _bits=bits, h=h, source=source)


# ---------------------------------------------------------------------------
# constructions

def bose_chowla(q, h):
    """The B_h-set {d_i} in Z/(q^h-1)Z with alpha^{d_i} = alpha + x_i, x_i in GF(q)."""
    if h < 2:
        raise InvalidParams(f"bose-chowla needs h >= 2, got h = {h} "
                            "(at h = 1, alpha + x is 0 for x = -alpha)")
    m = q**h - 1
    if m < 2:
        raise DegenerateModulus(f"modulus q^h-1 = {m} is degenerate")
    alpha = algebra.find_degree_h_primitive(q, h)
    targets = [alpha + x for x in algebra.subfield_elements(alpha, q)]
    residues = tuple(sorted(d.representative for d in algebra.discrete_logs(alpha, targets)))
    assert len(residues) == q
    return BhSetResidues(modulus=m, elements=residues, h=h)


def power_map(q, h):
    """The B_h-set {(x, x^2, ..., x^h) : x in GF(q)}; needs char(GF(q)) > h."""
    if h < 1:
        raise InvalidParams("h must be >= 1")
    f = algebra.make_field(q)
    if f.p <= h:
        raise CharacteristicTooSmall(f"characteristic {f.p} <= h = {h}")
    elements = tuple(tuple(x**i for i in range(1, h + 1)) for x in f)
    return BhSetFieldVectors(field=f, h=h, elements=elements)


# ---------------------------------------------------------------------------
# binary embeddings

def _binary_rows(values, width):
    """The (m, c * width) bit matrix of an (m, c) table of non-negative ints,
    each value big-endian in `width` bits.  Python ints throughout, so a value
    of 64 bits or more embeds."""
    values = np.array(values, dtype=object).reshape(len(values), -1)
    shifts = np.arange(width - 1, -1, -1).astype(object)
    return (values[:, :, None] >> shifts & 1).reshape(len(values), -1).astype(np.uint8)


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
    return make_binary_code(_binary_rows(s.elements, width), h=s.h, source=f"residues-mod-{m}")


def field_vectors_to_binary(s: BhSetFieldVectors) -> BinaryCode:
    """Per-coordinate radix-2 embedding of GF(q)^h for prime q."""
    f = s.field
    if f.e != 1:
        raise NonPrimeFieldUnsupported("binary embedding defined for prime q only")
    q = f.order
    width = max(1, (q - 1).bit_length())
    coords = [[c.to_int() for c in vec] for vec in s.elements]
    return make_binary_code(_binary_rows(coords, width), h=s.h, source=f"gf{q}-vectors")


# ---------------------------------------------------------------------------
# interchange format: header "n=<n> h=<h> source=<tag>", then one word per line

def code_to_text(code: BinaryCode) -> str:
    h = code.h if code.h is not None else "?"
    rows = np.full((len(code), code.n + 1), ord("\n"), np.uint8)  # each word, then "\n"
    rows[:, :-1] = code._bits + ord("0")
    return f"n={code.n} h={h} source={code.source}\n" + rows.tobytes().decode("ascii")


def code_from_text(text: str) -> BinaryCode:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("missing interchange header")
    fields = dict(part.split("=", 1) for part in lines[0].split())
    n = int(fields["n"])
    h = None if fields.get("h", "?") == "?" else int(fields["h"])
    source = fields.get("source", "unknown")
    words = lines[1:]
    for ln in words:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"bad word {ln!r}")
    bits = np.frombuffer("".join(words).encode(), np.uint8) - ord("0")
    return make_binary_code(bits.reshape(len(words), n) if words else [], h=h, source=source)
