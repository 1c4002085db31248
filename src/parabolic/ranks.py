"""Stabilizer indices, Nielsen-Schreier ranks, and abelian invariants.

The origin stabilizer N = {w : cocycle(w) = 0} and its mod-q relaxations
N_q = {w : cocycle(w) = 0 mod q} drive everything here: the index of N_q is
the orbit size of (0, 0) mod q, Nielsen-Schreier converts indices to ranks,
and the Smith normal form computes the abelianization of the four-generator
subgroups built from the scaled lattice qZ^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .action import act_ints
from .linear import U_MAT, V_MAT
from .words import Word


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


# A word that fixes the origin fixes it mod every modulus.  So membership
# first walks a word mod this prime, with small integers throughout, and
# walks it exactly only when that leaves the origin fixed.  Below 2^28, every
# sum in one step stays below 2^30, a one-digit Python int.
_SIEVE_PRIME = 2**28 - 57


def membership(w: Word, q: int | None = None) -> bool:
    """Does w fix the origin (exactly, or mod q when given)?  The word is
    walked on plain ints by act_ints; no Vec2 is built."""
    if q is not None and q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if q is None and not membership(w, _SIEVE_PRIME):
        return False
    return act_ints(w, 0, 0, q) == (0, 0)


_MAX_SNF_SIDE = 16
_MAX_SNF_ENTRY = 10**100


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, as a divisibility chain.

    Two phases (Newman, Integral Matrices, 1972, ch. II).  Diagonalise: a
    smallest nonzero entry is the pivot, and floor division clears its column
    and then its row.  A remainder left behind is the next, smaller pivot;
    otherwise the pivot is recorded and its row and column are dropped.
    Then the exchange (a, b) -> (gcd, lcm) makes the diagonal a chain.

    Raises ValueError, before any elimination, for more than _MAX_SNF_SIDE
    rows or columns or an entry of absolute value _MAX_SNF_ENTRY or more,
    which bounds the time and keeps every factor printable.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows must all have the same length")
    if len(rows) > _MAX_SNF_SIDE or ncols > _MAX_SNF_SIDE:
        raise ValueError(
            f"matrix of {len(rows)}x{ncols} exceeds the guard of {_MAX_SNF_SIDE} rows and columns"
        )
    m = [[int(e) for e in r] for r in rows]
    if any(abs(e) >= _MAX_SNF_ENTRY for r in m for e in r):
        raise ValueError("matrix entry exceeds the guard |entry| < 10^100")
    factors = []
    while entries := [(abs(e), i, j) for i, r in enumerate(m) for j, e in enumerate(r) if e]:
        _, i, j = min(entries)
        prow, p = m[i], m[i][j]
        m = [r if r is prow else [a - r[j] // p * b for a, b in zip(r, prow)] for r in m]
        for col, e in enumerate(prow):
            if col != j:
                f = e // p
                for r in m:
                    r[col] -= f * r[j]
        if any(r[j] for r in m if r is not prow) or sum(map(bool, prow)) > 1:
            continue  # a remainder is the next, smaller pivot
        factors.append(abs(p))
        m = [r[:j] + r[j + 1 :] for r in m if r is not prow]
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] * factors[b] // g
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
        for bx, by in ((q, 0), (0, q)):
            x, y = mat.apply((bx, by))
            dx, dy = x - bx, y - by
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
