"""Exact 2x2 integer matrices, affine maps of Z^2, and word evaluation.

Everything is plain Python int arithmetic, so entries may grow without
overflow.  A word evaluates with its leftmost letter as the leftmost factor;
the corresponding action on points therefore applies the rightmost letter
first (see the action module).
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, _NEXT_LETTERS


def _merge_modulus(m1: int | None, m2: int | None) -> int | None:
    if m1 is not None and m2 is not None and m1 != m2:
        raise ValueError(f"mixing distinct moduli {m1} and {m2}")
    return m1 if m1 is not None else m2


class Vec2:
    """Integer column vector, optionally tagged with a modulus q.

    A tagged vector keeps its coordinates normalised into [0, q).  Combining
    vectors with distinct moduli is a contract violation and raises.
    """

    __slots__ = ("x", "y", "modulus")

    def __init__(self, x: int, y: int, modulus: int | None = None):
        if modulus is not None:
            if modulus < 2:
                raise ValueError(f"modulus must be >= 2, got {modulus}")
            x %= modulus
            y %= modulus
        self.x = x
        self.y = y
        self.modulus = modulus

    def __add__(self, other: Vec2) -> Vec2:
        q = _merge_modulus(self.modulus, other.modulus)
        return Vec2(self.x + other.x, self.y + other.y, q)

    def __neg__(self) -> Vec2:
        return Vec2(-self.x, -self.y, self.modulus)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vec2)
            and self.x == other.x
            and self.y == other.y
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.modulus))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"

    def __repr__(self) -> str:
        if self.modulus is None:
            return f"Vec2({self.x}, {self.y})"
        return f"Vec2({self.x}, {self.y}, modulus={self.modulus})"


class Mat2:
    """2x2 integer matrix of determinant 1, stored row-major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> Mat2:
        return cls(1, 0, 0, 1)

    def inverse(self) -> Mat2:
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, p: Vec2) -> Vec2:
        return Vec2(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y, p.modulus)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat2)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return f"{self.a} {self.b} {self.c} {self.d}"

    def __repr__(self) -> str:
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


class AffineElement:
    """Pair (translation, linear) acting on Z^2 by p -> linear p + translation.

    Composition matches 3x3 block matrices [[A, v], [0, 1]]:
    (v, A)(v', A') = (v + A v', A A').
    """

    __slots__ = ("translation", "linear")

    def __init__(self, translation: Vec2, linear: Mat2):
        if translation.modulus is not None:
            raise ValueError("affine elements carry exact translations, not residues")
        self.translation = translation
        self.linear = linear

    @classmethod
    def identity(cls) -> AffineElement:
        return cls(Vec2(0, 0), Mat2.identity())

    def __mul__(self, other: AffineElement) -> AffineElement:
        return AffineElement(
            self.translation + self.linear.apply(other.translation),
            self.linear * other.linear,
        )

    def inverse(self) -> AffineElement:
        inv = self.linear.inverse()
        return AffineElement(-inv.apply(self.translation), inv)

    def apply(self, p: Vec2) -> Vec2:
        moved = self.linear.apply(p)
        return Vec2(moved.x + self.translation.x, moved.y + self.translation.y, p.modulus)

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
    """Product of the letter matrices, leftmost letter leftmost."""
    out = Mat2.identity()
    for c in w.text:
        out = out * _CHAR_MAT[c]
    return out


def eval_affine(w: Word) -> AffineElement:
    """Product of the letter affine elements, leftmost letter leftmost."""
    out = AffineElement.identity()
    for c in w.text:
        out = out * _CHAR_AFF[c]
    return out


def cocycle(w: Word) -> Vec2:
    """Translation part of eval_affine(w); vanishing means w fixes the origin."""
    return eval_affine(w).translation


@dataclass(frozen=True)
class FreenessSweepResult:
    passed: bool
    words_checked: int
    counterexample: Word | None


def freeness_sweep(max_len: int) -> FreenessSweepResult:
    """Check that no nonempty reduced word of length <= max_len evaluates to
    the identity matrix.  Walks the prefix tree once, one matrix product per
    node, each product kept as four plain ints."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    letters = {c: (m.a, m.b, m.c, m.d) for c, m in _CHAR_MAT.items()}
    checked = 0
    # stack holds (a, b, c, d, text), the row-major product of text's
    # letters; children extend on the right
    stack: list[tuple[int, int, int, int, str]] = [(1, 0, 0, 1, "")] if max_len else []
    while stack:
        a, b, c, d, text = stack.pop()
        # the children of a node one letter short of max_len are leaves
        push = stack.append if len(text) + 1 < max_len else None
        for ch in _NEXT_LETTERS[text[-1:]]:
            e, f, g, h = letters[ch]
            na, nb, nc, nd = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            checked += 1
            if na == 1 and nd == 1 and not nb and not nc:
                return FreenessSweepResult(False, checked, Word(text + ch))
            if push:
                push((na, nb, nc, nd, text + ch))
    return FreenessSweepResult(True, checked, None)
