"""Exact 2x2 integer matrices, affine maps of Z^2, and word evaluation.

Everything is plain Python int arithmetic, so entries may grow without
overflow.  A word evaluates with its leftmost letter as the leftmost factor;
the corresponding action on points therefore applies the rightmost letter
first (see the action module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .words import Word, _NEXT_LETTERS, concat, invert


class Vec2(NamedTuple):
    """Exact integer point: equals, hashes and unpacks as its pair (x, y),
    but + and * raise TypeError rather than concatenate or repeat.  Residues
    mod q are not points: the mod-q kernels take q as an argument on plain ints."""

    x: int
    y: int

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"

    def __repr__(self) -> str:
        return f"Vec2({self.x}, {self.y})"

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__


class Mat2:
    """2x2 integer matrix of determinant 1, stored row-major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        self.a, self.b, self.c, self.d = a, b, c, d

    def inverse(self) -> Mat2:
        return Mat2(self.d, -self.b, -self.c, self.a)

    def apply(self, p: tuple[int, int]) -> Vec2:
        x, y = p
        return Vec2(self.a * x + self.b * y, self.c * x + self.d * y)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat2)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


class AffineElement:
    """Pair (translation, linear) acting on Z^2 by p -> linear p + translation.

    Its 3x3 block matrix is [[A, v], [0, 1]], so products compose as
    (v, A)(v', A') = (v + A v', A A'), the rule eval_affine follows.
    """

    __slots__ = ("translation", "linear")

    def __init__(self, translation: Vec2, linear: Mat2):
        self.translation = translation
        self.linear = linear

    def inverse(self) -> AffineElement:
        inv = self.linear.inverse()
        x, y = inv.apply(self.translation)
        return AffineElement(Vec2(-x, -y), inv)

    def apply(self, p: tuple[int, int]) -> Vec2:
        x, y = self.linear.apply(p)
        return Vec2(x + self.translation.x, y + self.translation.y)

    def matrix3(self) -> tuple[tuple[int, int, int], ...]:
        m, t = self.linear, self.translation
        return ((m.a, m.b, t.x), (m.c, m.d, t.y), (0, 0, 1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineElement)
            and self.translation == other.translation
            and self.linear == other.linear
        )

    def __hash__(self) -> int:
        return hash((self.translation, self.linear))

    def __repr__(self) -> str:
        return f"AffineElement({self.translation!r}, {self.linear!r})"


U_MAT = Mat2(1, 2, 0, 1)
V_MAT = Mat2(1, 0, 2, 1)
U_AFF = AffineElement(Vec2(0, 1), U_MAT)
V_AFF = AffineElement(Vec2(1, 0), V_MAT)

_CHAR_MAT = {"U": U_MAT, "V": V_MAT, "u": U_MAT.inverse(), "v": V_MAT.inverse()}
_CHAR_AFF = {"U": U_AFF, "V": V_AFF, "u": U_AFF.inverse(), "v": V_AFF.inverse()}


def eval_linear(w: Word) -> Mat2:
    """Product of the letter matrices, leftmost letter leftmost.  The
    product is kept as four plain ints, read off _CHAR_MAT letter by letter,
    and one Mat2 is built at the end."""
    a, b, c, d = 1, 0, 0, 1
    for ch in w.text:
        m = _CHAR_MAT[ch]
        e, f, g, h = m.a, m.b, m.c, m.d
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return Mat2(a, b, c, d)


def eval_affine(w: Word) -> AffineElement:
    """Product of the letter affine elements, leftmost letter leftmost.  The
    product is kept as six plain ints, the linear part and the translation
    (x, y), and one AffineElement is built at the end."""
    a, b, c, d, x, y = 1, 0, 0, 1, 0, 0
    for ch in w.text:
        el = _CHAR_AFF[ch]
        m, t = el.linear, el.translation
        e, f, g, h, tx, ty = m.a, m.b, m.c, m.d, t.x, t.y
        # (v, A)(v', A') = (v + A v', A A')
        x, y = x + a * tx + b * ty, y + c * tx + d * ty
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return AffineElement(Vec2(x, y), Mat2(a, b, c, d))


def cocycle(w: Word) -> Vec2:
    """Translation part of eval_affine(w); vanishing means w fixes the origin."""
    return eval_affine(w).translation


@dataclass(frozen=True)
class FreenessSweepResult:
    """The verdict of freeness_sweep(max_len).

    words_checked counts the nonempty reduced words of length <= max_len
    certified not to be the identity: all 2 * (3^max_len - 1) of them on a
    pass.  On a failure it counts those of length <= min(max_len, 2k - 2),
    where k is the length of the word whose matrix repeated.  products counts
    the matrices actually computed, the identity's included.
    """

    passed: bool
    words_checked: int
    counterexample: Word | None
    products: int


def freeness_sweep(max_len: int) -> FreenessSweepResult:
    """Check that no nonempty reduced word of length <= max_len evaluates to
    the identity matrix, by meet in the middle.

    Every nonempty reduced word w of length l <= max_len splits as w = x y
    with |x| = ceil(l/2) and |y| = floor(l/2), and w is the identity iff
    M(x) = M(y^-1).  x and y^-1 are distinct reduced words, since x y is
    reduced and nonempty.  Conversely, two distinct reduced words x and z
    with M(x) = M(z) give the nonempty reduced relation x z^-1.  So the
    sweep computes the matrices of the reduced words of length <=
    ceil(max_len/2), layer by layer, one product of four plain ints per word,
    and keeps those of length <= floor(max_len/2): a word whose matrix is
    kept already is a relation of at most max_len letters, and none is
    missed.  That is 2 * 3^ceil(max_len/2) - 1 products, against one per
    word certified.

    The letter matrices are read from _CHAR_MAT["U"] and _CHAR_MAT["V"] at
    call time, and the inverse letters are their inverses.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    letters = {}
    for ch in "UV":
        m = _CHAR_MAT[ch]
        inv = m.inverse()
        letters[ch] = (m.a, m.b, m.c, m.d)
        letters[ch.lower()] = (inv.a, inv.b, inv.c, inv.d)
    keep, reach = max_len // 2, (max_len + 1) // 2
    # the kept products, each with the text of the first word that gave it
    seen = {(1, 0, 0, 1): ""}
    layer = [(1, 0, 0, 1, "")]
    products = 1
    for length in range(1, reach + 1):
        store = length <= keep
        nxt = []
        for a, b, c, d, text in layer:
            for ch in _NEXT_LETTERS[text[-1:]]:
                e, f, g, h = letters[ch]
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                products += 1
                word = text + ch
                prev = seen.get(m)
                if prev is not None:
                    relation = concat(Word(prev), invert(Word(word)))
                    certified = 2 * (3 ** min(max_len, 2 * length - 2) - 1)
                    return FreenessSweepResult(False, certified, relation, products)
                if store:
                    seen[m] = word
                if length < reach:
                    nxt.append((*m, word))
        layer = nxt
    return FreenessSweepResult(True, 2 * (3**max_len - 1), None, products)
