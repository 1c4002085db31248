"""Stabilizer indices, Nielsen-Schreier ranks, and abelian invariants.

The origin stabilizer N = {w : cocycle(w) = 0} and its mod-q relaxations
N_q = {w : cocycle(w) = 0 mod q} drive everything here: the index of N_q is
the orbit size of (0, 0) mod q, Nielsen-Schreier converts indices to ranks,
and the Smith normal form computes the abelianization of the four-generator
subgroups built from the scaled lattice qZ^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .action import ORIGIN, act
from .linear import U_MAT, V_MAT, Vec2, eval_affine
from .words import Word, enumerate_reduced


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    """Z^free_rank plus cyclic torsion factors in a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError(f"free_rank must be >= 0, got {self.free_rank}")
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError(f"torsion factor {t} must be >= 2")
            if i and t % self.torsion[i - 1]:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")

    @property
    def min_generators(self) -> int:
        return self.free_rank + len(self.torsion)


_MAX_COUNT_MODULUS = 4096


def stabilizer_index(q: int) -> int:
    """Index of the mod-q origin stabilizer = orbit size of (0, 0) mod q.

    Counts whole V-cycles rather than points.  V(x, y) = (x + 1, 2x + y), so
    V^k(0, c) = (k, c + k(k - 1)): the label c = y - x(x - 1) mod q is
    constant along V, and V^q is the identity mod q.  Each V-cycle thus has
    exactly q points, one for each x, and is named by its label.  The orbit
    is closed under V, so it is a union of V-cycles and its size is q * |S|,
    where S is the set of labels it meets.

    S is the closure of {0} under U read on labels.  With a_x = x(x - 1)
    mod q, U sends the point (x, c + a_x) of cycle c to x' = x + 2c + 2a_x,
    which lies on cycle c + 1 + a_x - a_x'.  One comprehension over x gives
    every cycle that U reaches from cycle c, from two rotated tables and no
    reduction mod q per point.

    Following the forward maps U and V alone is enough.  Both are affine
    maps whose linear part has determinant 1, so each is a bijection of the
    finite set (Z/q)^2, and they generate a finite permutation group of it.
    In a finite group every element has finite order, so every inverse is a
    positive power: U^-1 = U^(k-1) when U^k = 1.  The closure of (0, 0)
    under U and V alone is therefore the whole orbit under U, V and their
    inverses.  The loop stops early only once |S| = q: then the orbit is all
    of (Z/q)^2, which is exact.

    The work is at most q^2 label steps in O(q) memory.  Raises ValueError
    for q > _MAX_COUNT_MODULUS, which bounds the time.  build_mod_q's
    four-letter BFS is the independent path the verification run compares
    it against.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if q > _MAX_COUNT_MODULUS:
        raise ValueError(f"q {q} exceeds the guard {_MAX_COUNT_MODULUS}")
    a = [x * (x - 1) % q for x in range(q)]
    b = [(x + 2 * ax) % q for x, ax in enumerate(a)]  # x' = b_x + 2c mod q
    a2 = a + a
    residues = list(range(q)) * 2
    labels = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        t = 2 * c % q
        a_image = a2[t : t + q]  # a_image[b_x] = a_x'
        # shift[j] = (c + 1 + j) mod q for -q < j < q, negative j from the end
        shift = residues[c + 1 : c + 1 + q]
        fresh = {shift[ax - a_image[bx]] for ax, bx in zip(a, b)} - labels
        if fresh:
            labels |= fresh
            if len(labels) == q:
                break
            stack.extend(fresh)
    return q * len(labels)


def nielsen_schreier_rank(index: int, ambient_rank: int) -> int:
    """Rank of a subgroup of the given finite index in a free group."""
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    if ambient_rank < 1:
        raise ValueError(f"ambient_rank must be >= 1, got {ambient_rank}")
    return index * (ambient_rank - 1) + 1


def membership(w: Word, q: int | None = None) -> bool:
    """Does w fix the origin (exactly, or mod q when given)?"""
    if q is not None and q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    start = ORIGIN if q is None else Vec2(0, 0, q)
    end = act(w, start)
    return (end.x, end.y) == (0, 0)


def shortest_origin_stabilizer(max_len: int) -> Word | None:
    """First word in canonical enumeration order that fixes the origin.

    The hit is double-checked through the full 3x3 affine product before
    being returned; None means no stabilizing word of length <= max_len.
    """
    for w in enumerate_reduced(max_len):
        if w.is_identity():
            continue
        if membership(w):
            aff = eval_affine(w)
            if (aff.translation.x, aff.translation.y) != (0, 0):
                raise AssertionError(f"cocycle paths disagree on {w}")
            return w
    return None


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, as a divisibility chain.

    Full pivoting on a smallest nonzero entry keeps the coefficient growth
    mild at these sizes.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows must all have the same length")
    m = [[int(e) for e in r] for r in rows]
    nrows = len(m)
    t = 0
    while t < min(nrows, ncols):
        # pick the smallest nonzero entry of the trailing block as pivot
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        restart = False
        for i in range(t + 1, nrows):
            if m[i][t]:
                f = m[i][t] // m[t][t]
                m[i] = [a - f * b for a, b in zip(m[i], m[t])]
                if m[i][t]:
                    restart = True  # remainder is smaller than the pivot
        for j in range(t + 1, ncols):
            if m[t][j]:
                f = m[t][j] // m[t][t]
                for row in m:
                    row[j] -= f * row[t]
                if m[t][j]:
                    restart = True
        if restart:
            continue
        # pivot must divide the whole trailing block
        fix = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            m[t] = [a + b for a, b in zip(m[t], m[fix])]
            continue
        t += 1
    factors = [abs(m[k][k]) for k in range(t)]
    for i in range(1, len(factors)):
        if factors[i] % factors[i - 1]:
            raise AssertionError(f"invariant factors {factors} broke divisibility")
    return factors


def lattice_relation_matrix(q: int) -> list[list[int]]:
    """Relations (U - I) and (V - I) applied to the basis (q e1, q e2) of the
    scaled lattice, written in that same basis.  One column per image."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    cols = []
    for mat in (U_MAT, V_MAT):
        for basis in (Vec2(q, 0), Vec2(0, q)):
            img = mat.apply(basis)
            dx, dy = img.x - basis.x, img.y - basis.y
            if dx % q or dy % q:
                raise AssertionError("lattice image left the lattice")
            cols.append((dx // q, dy // q))
    return [[c[0] for c in cols], [c[1] for c in cols]]


def abelianization(q: int) -> AbelianGroupDescriptor:
    """Abelianization of the four-generator subgroup spanned by the scaled
    lattice qZ^2 and the two linear generators.

    The free part comes from the two generators' images; the lattice part is
    the cokernel of the relation matrix, read off its Smith normal form.
    """
    factors = smith_normal_form(lattice_relation_matrix(q))
    torsion = tuple(f for f in factors if f > 1)
    lattice_free = 2 - len(factors)
    return AbelianGroupDescriptor(2 + lattice_free, torsion)


def intersection_rank_lower_bound(q: int) -> int:
    """Rank of the mod-q origin stabilizer: every subgroup of the free group
    that surjects onto it (the intersection pattern in question does) needs
    at least this many generators, and the value is >= q + 1.

    The index comes from stabilizer_index, which counts V-cycles mod q.
    """
    return nielsen_schreier_rank(stabilizer_index(q), 2)
