"""The affine action of the two generators on the integer plane.

The generator U acts by alpha(x, y) = (x + 2y, y + 1) and V by
beta(x, y) = (x + 1, 2x + y).  A word acts with its rightmost letter first,
so act(w, p) equals eval_affine(w) applied to p.  The whole line x + y = 1
is one orbit of the origin; marked_point(n) = (n, 1 - n) names its points and
witness_word(n) constructs an explicit word reaching each of them.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterator, NamedTuple

from .linear import Vec2
from .words import Word, concat

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


@dataclass(frozen=True)
class WitnessSchedule:
    """A word certified to send the origin to marked_point(n).

    The word is acted on the origin, unless `pred` is given: a certified
    schedule whose word is this word without its first syllable.  act
    composes syllables right to left, so the origin is then known to reach
    marked_point(pred.n) before that syllable, and only the syllable is
    acted, on that point.  Either way act(word, ORIGIN) equals
    marked_point(n).point exactly.  `pred` is not stored.
    """

    n: int
    word: Word
    pred: InitVar[WitnessSchedule | None] = None

    def __post_init__(self, pred):
        syllables = self.word.syllables
        if pred is not None and syllables[1:] == pred.word.syllables:
            head = Word._from_syllables(syllables[:1], abs(syllables[0][1]))
            reached = act(head, marked_point(pred.n).point)
        else:
            reached = act(self.word, ORIGIN)
        if reached != marked_point(self.n).point:
            # named by its length, as the text of a long witness runs to
            # millions of letters
            raise ValueError(
                f"witness of {len(self.word)} letters for n = {self.n}"
                f" does not reach marked point {self.n}"
            )


# the witnesses of the marked points 0 and 1, where every chain of
# predecessors ends: U sends the origin to (0, 1) and V to (1, 0)
_BASE_WITNESSES = {0: Word("U"), 1: Word("V")}


def _predecessor(n: int) -> int:
    """The marked point whose witness the witness of n extends.  The map is
    injective, so each witness is the predecessor of at most one other."""
    return -n if n < 0 else 2 - n


def _power(n: int) -> tuple[str, int]:
    # recurrences: beta^{-2n} sends (n, 1-n) to (-n, 1+n) and
    # alpha^{-2n-2} sends (-n, 1+n) to (n+2, -n-1), both for n >= 0
    # each power is one syllable, nonzero since n is not 0 or 1
    return ("V", 2 * n) if n < 0 else ("U", 2 - 2 * n)


def _extend_witness(n: int, pred_word: Word) -> Word:
    gen, e = _power(n)
    return concat(Word._from_syllables(((gen, e),), abs(e)), pred_word)


def witness_word(n: int) -> WitnessSchedule:
    """Build and verify a word sending (0, 0) to (n, 1 - n).

    The word is the recurrence powers along the chain of predecessors from
    n, one syllable each, followed by a base witness.  Successive powers
    alternate between V (n < 0) and U (n > 1), so they are already reduced
    and are joined to the base witness by one concat.  The word has O(n^2)
    letters but only O(|n|) syllables, and it is re-evaluated syllable by
    syllable before being returned.
    """
    powers = []
    k = n
    while k not in _BASE_WITNESSES:
        powers.append(_power(k))
        k = _predecessor(k)
    head = Word._from_syllables(tuple(powers), sum(abs(e) for _, e in powers))
    return WitnessSchedule(n, concat(head, _BASE_WITNESSES[k]))


def witness_length(n: int) -> int:
    """Letter count of witness_word(n) in closed form, without building it:
    n^2 - n - 1, except for the base witnesses of 0 and 1."""
    return 1 if n in _BASE_WITNESSES else n * n - n - 1


def witness_sweep(n_max: int) -> Iterator[WitnessSchedule]:
    """Yield verified witnesses for n = 0, 1, -1, 2, -2, ..., +-n_max.

    Each word is its predecessor's with one syllable prepended, so it is
    certified from the predecessor's certificate: one syllable acted on the
    predecessor's endpoint, whatever the word's length (see WitnessSchedule).
    Where the new power merges into a base witness (n = 2 and n = -1) the
    whole word, one syllable long, is acted instead.  A schedule is dropped
    as soon as nothing further depends on it, so memory stays bounded by a
    few of the longest words instead of the whole sweep.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    built: dict[int, WitnessSchedule] = {}
    for i in range(2 * n_max + 1):
        n = (i + 1) // 2 if i % 2 else -(i // 2)
        if n in _BASE_WITNESSES:
            sched = WitnessSchedule(n, _BASE_WITNESSES[n])
        else:
            # the predecessor's only successor is n, so it is dropped here
            pred = built.pop(_predecessor(n))
            sched = WitnessSchedule(n, _extend_witness(n, pred.word), pred)
        built[n] = sched
        yield sched


def loop_check(w: Word, p: tuple[int, int]) -> bool:
    """True iff the nonempty word w fixes the point p."""
    if w.is_identity():
        raise ValueError("loop_check needs a nonempty word")
    return act(w, p) == p
