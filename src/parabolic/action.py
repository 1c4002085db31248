"""The affine action of the two generators on the integer plane.

The generator U acts by alpha(x, y) = (x + 2y, y + 1) and V by
beta(x, y) = (x + 1, 2x + y).  A word acts with its rightmost letter first,
so act(w, p) equals eval_affine(w) applied to p.  The whole line x + y = 1
is one orbit of the origin; marked_point(n) = (n, 1 - n) names its points, and
witness_word(n) and witness_sweep build an explicit word reaching each of them
in syllable normal form and act it before returning it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .linear import Vec2
from .words import Word

ORIGIN = Vec2(0, 0)

# the default loop witness (U^-1 V)^2, which fixes every point of the line
DEFAULT_WITNESS = Word("uVuV")


def step(char: str, p: tuple[int, int]) -> Vec2:
    """Apply a single letter to a point.  Reference path for everything else."""
    x, y = p
    if char == "U":
        nx, ny = x + 2 * y, y + 1
    elif char == "u":
        nx, ny = x - 2 * y + 2, y - 1
    elif char == "V":
        nx, ny = x + 1, 2 * x + y
    elif char == "v":
        nx, ny = x - 1, y - 2 * x + 2
    else:
        raise ValueError(f"bad letter {char!r}")
    return Vec2(nx, ny)


def generator_power(gen: str, m: int, p: tuple[int, int]) -> Vec2:
    """Apply the m-th power of one generator to a point in closed form.

    alpha^m(x, y) = (x + 2my + m(m-1), y + m)
    beta^m(x, y)  = (x + m, y + 2mx + m(m-1))
    """
    x, y = p
    if gen == "U":
        nx, ny = x + 2 * m * y + m * (m - 1), y + m
    elif gen == "V":
        nx, ny = x + m, y + 2 * m * x + m * (m - 1)
    else:
        raise ValueError(f"generator must be 'U' or 'V', got {gen!r}")
    return Vec2(nx, ny)


def act_ints(w: Word, x: int, y: int, q: int | None = None) -> tuple[int, int]:
    """The point w sends (x, y) to, as two plain ints, rightmost syllable
    first; reduced mod q after every syllable when q is given.

    Each syllable, a run of one generator, is applied with the closed-form
    power, so a word built from long generator powers costs one step per run.
    """
    for c, m in reversed(w.syllables):
        if c == "U":
            x, y = x + 2 * m * y + m * (m - 1), y + m
        else:
            x, y = x + m, y + 2 * m * x + m * (m - 1)
        if q is not None:
            x %= q
            y %= q
    return x, y


def act(w: Word, p: tuple[int, int]) -> Vec2:
    """Apply a word to a point (x, y), rightmost syllable first: act_ints on
    its coordinates."""
    return Vec2(*act_ints(w, *p))


class MarkedPoint(NamedTuple):
    """The point (n, 1 - n) on the invariant line x + y = 1, named by n."""

    n: int

    @property
    def point(self) -> Vec2:
        return Vec2(self.n, 1 - self.n)


def marked_point(n: int) -> MarkedPoint:
    return MarkedPoint(n)


class WitnessSchedule(NamedTuple):
    """A word that sends the origin to marked_point(n).

    witness_word and witness_sweep make every schedule, and each acts the
    word, or the one syllable it prepends, before returning it, so
    act(word, ORIGIN) equals marked_point(n).point exactly.
    """

    n: int
    word: Word


def _certified(n: int, word: Word, reached: tuple[int, int]) -> WitnessSchedule:
    # the marked point is compared as the plain pair (n, 1 - n)
    if reached != (n, 1 - n):
        # named by its length: a long witness runs to millions of letters
        raise ValueError(
            f"witness of {len(word)} letters for n = {n}"
            f" does not reach marked point {n}"
        )
    return WitnessSchedule(n, word)


# the witnesses where every chain of predecessors ends: U sends the origin
# to (0, 1) and V to (1, 0); u and v are the recurrence powers of 2 and -1
# merged into the witnesses of 0 and 1
_BASE_WITNESSES = {0: Word("U"), 1: Word("V"), 2: Word("u"), -1: Word("v")}


def _predecessor(n: int) -> int:
    """The marked point whose witness the witness of n extends.  The map is
    injective, so each witness is the predecessor of at most one other."""
    return -n if n < 0 else 2 - n


def _power(n: int) -> tuple[str, int]:
    # recurrences: beta^{-2n} sends (n, 1-n) to (-n, 1+n) and
    # alpha^{-2n-2} sends (-n, 1+n) to (n+2, -n-1), both for n >= 0
    # each power is one syllable, nonzero since n is not 0 or 1
    return ("V", 2 * n) if n < 0 else ("U", 2 - 2 * n)


def witness_word(n: int) -> WitnessSchedule:
    """Build and verify a word sending (0, 0) to (n, 1 - n).

    The word is the recurrence powers along the chain of predecessors from
    n, one syllable each, followed by a base witness.  The powers are V for
    n < -1 and U for n > 2, and the chain alternates sign, so no syllable
    merges into the next.  The word has O(n^2) letters but only O(|n|)
    syllables, and it is acted on the origin before being returned.
    """
    powers = []
    k = n
    while k not in _BASE_WITNESSES:
        powers.append(_power(k))
        k = _predecessor(k)
    base = _BASE_WITNESSES[k]
    length = sum(abs(e) for _, e in powers) + len(base)
    word = Word._from_syllables(tuple(powers) + base.syllables, length)
    return _certified(n, word, act(word, ORIGIN))


def witness_length(n: int) -> int:
    """Letter count of witness_word(n) in closed form, without building it:
    n^2 - n - 1, except for n = 0 and 1, whose witnesses are one letter."""
    return 1 if n in (0, 1) else n * n - n - 1


def witness_sweep(n_max: int) -> Iterator[WitnessSchedule]:
    """Yield verified witnesses for n = 0, 1, -1, 2, -2, ..., +-n_max.

    The base witnesses are acted on the origin.  Every other word is its
    predecessor's with the recurrence power prepended, and act composes
    syllables right to left, so only that one syllable is acted, on the
    predecessor's verified endpoint, whatever the word's length.  A
    predecessor is dropped as soon as its one successor is made, so memory
    stays bounded by a few of the longest words instead of the whole sweep.
    Only words are kept: a predecessor p's verified endpoint is the pair
    (p, 1 - p), with no MarkedPoint.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    live: dict[int, Word] = {}  # n -> its verified witness
    for i in range(2 * n_max + 1):
        n = (i + 1) // 2 if i % 2 else -(i // 2)
        if n in _BASE_WITNESSES:
            sched = witness_word(n)
        else:
            p = _predecessor(n)
            pred = live.pop(p)
            gen, e = _power(n)
            if gen == pred.syllables[0][0]:  # it would merge: no normal form
                raise AssertionError(f"power of n = {n} merges into its predecessor")
            syllable = ((gen, e),)
            word = Word._from_syllables(syllable + pred.syllables, abs(e) + pred._len)
            sched = _certified(n, word, act(Word._from_syllables(syllable, abs(e)), (p, 1 - p)))
        live[n] = sched.word
        yield sched


def loop_check(w: Word, p: tuple[int, int]) -> bool:
    """True iff the nonempty word w fixes the point p."""
    if w.is_identity():
        raise ValueError("loop_check needs a nonempty word")
    return act(w, p) == p
