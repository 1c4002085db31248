"""Affine maps of Z^2 as six exact ints, and word evaluation.

Everything is plain Python int arithmetic, so entries may grow without
overflow.  A word evaluates with its leftmost letter as the leftmost factor;
the corresponding action on points therefore applies the rightmost letter
first (see the action module).  An AffineElement is the six ints of its
map, the linear part row-major and then the translation.  Its linear part is
its image in K = <U, V>, SL(2, Z) placed block-diagonally: the AffineElement
with the same four ints and zero translation, so the group has one element
type.  _CHAR_AFF is the one table of the four letters, each letter's six
ints as a plain tuple: eval_affine multiplies its entries letter by letter,
and eval_linear and freeness_sweep read their linear parts.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Word, _NEXT_LETTERS, concat, invert


def _no_arithmetic(self, other):
    # a point or a group element is not a tuple to concatenate or repeat
    return NotImplemented


class Vec2(NamedTuple):
    """Exact integer point: equals, hashes and unpacks as its pair (x, y),
    but + and * raise TypeError rather than concatenate or repeat.  That
    holds for + only with a Vec2 on the left: tuple.__add__ takes any tuple,
    so (1, 2) + Vec2(3, 4) is (1, 2, 3, 4), and no __radd__ is consulted.
    Residues mod q are not points: the mod-q kernels take q as an argument
    on plain ints."""

    x: int
    y: int

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"

    def __repr__(self) -> str:
        return f"Vec2({self.x}, {self.y})"

    __add__ = __mul__ = __rmul__ = _no_arithmetic


class AffineElement(NamedTuple):
    """The map p -> A p + t of Z^2 as its six ints: the linear part A
    row-major (a, b, c, d), then the translation t = (x, y).

    Its 3x3 block matrix is [[A, t], [0, 1]], so products compose as
    (t, A)(t', A') = (t + A t', A A'), the rule eval_affine follows.  The
    fields are not checked; linear, the element of K with the same A and
    zero translation, checks that det A = 1.  Like Vec2, + and * raise
    TypeError rather than concatenate or repeat the six ints.
    """

    a: int
    b: int
    c: int
    d: int
    x: int
    y: int

    @property
    def linear(self) -> AffineElement:
        return _checked(self.a, self.b, self.c, self.d, 0, 0)

    @property
    def translation(self) -> Vec2:
        return Vec2(self.x, self.y)

    def inverse(self) -> AffineElement:
        a, b, c, d, x, y = self
        return AffineElement(d, -b, -c, a, b * y - d * x, c * x - a * y)

    def apply(self, p: tuple[int, int]) -> Vec2:
        a, b, c, d, x, y = self
        px, py = p
        return Vec2(a * px + b * py + x, c * px + d * py + y)

    def matrix3(self) -> tuple[tuple[int, int, int], ...]:
        a, b, c, d, x, y = self
        return ((a, b, x), (c, d, y), (0, 0, 1))

    __add__ = __mul__ = __rmul__ = _no_arithmetic


def _checked(a: int, b: int, c: int, d: int, x: int, y: int) -> AffineElement:
    """The AffineElement of these six ints, refused unless det A = 1."""
    if a * d - b * c != 1:
        raise ValueError(f"determinant must be 1, got {a * d - b * c}")
    return AffineElement(a, b, c, d, x, y)


U_AFF = AffineElement(1, 2, 0, 1, 0, 1)
V_AFF = AffineElement(1, 0, 2, 1, 1, 0)
U_MAT = U_AFF.linear
V_MAT = V_AFF.linear

# each letter's six ints as a plain tuple: CPython unpacks an exact tuple
# about three times faster than a NamedTuple, once per letter in eval_affine
_CHAR_AFF = {
    ch: tuple(el)
    for ch, el in (("U", U_AFF), ("V", V_AFF), ("u", U_AFF.inverse()), ("v", V_AFF.inverse()))
}


def eval_affine(w: Word) -> AffineElement:
    """Product of the letter affine elements, leftmost letter leftmost.  The
    product is kept as its six ints, each letter's six are read from
    _CHAR_AFF at call time, and the determinant is checked at the end."""
    letters = _CHAR_AFF
    a, b, c, d, x, y = 1, 0, 0, 1, 0, 0
    for ch in w.text:
        e, f, g, h, tx, ty = letters[ch]
        # (t, A)(t', A') = (t + A t', A A')
        x, y = x + a * tx + b * ty, y + c * tx + d * ty
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return _checked(a, b, c, d, x, y)


def eval_linear(w: Word) -> AffineElement:
    """Product of the letter matrices, leftmost letter leftmost: the linear
    part of eval_affine(w), an element of K with zero translation."""
    return eval_affine(w).linear


def cocycle(w: Word) -> Vec2:
    """Translation part of eval_affine(w); vanishing means w fixes the origin."""
    return eval_affine(w).translation


class FreenessSweepResult(NamedTuple):
    """The verdict of freeness_sweep(max_len), a NamedTuple.

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

    The four letter matrices are the first four ints of the _CHAR_AFF
    entries, read at call time.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    letters = {ch: six[:4] for ch, six in _CHAR_AFF.items()}
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
