"""Freely reduced words over the alphabet {U, V, U^-1, V^-1}.

A word is stored in its syllable normal form (Lyndon-Schupp, Combinatorial
Group Theory, ch. I.1): a tuple of (generator, nonzero exponent) runs with
generator "U" or "V", no two adjacent runs on the same generator.  Every
reduced word has exactly one such form, so equality compares syllables, and
a word built from long generator powers costs one entry per run, not per
letter.  The printed form is a string over "UVuv", lowercase marking an
inverse letter; it is a view, built on first access and cached.  The letter
order used everywhere (enumeration, tie-breaking) is U < V < U^-1 < V^-1,
which happens to coincide with ASCII order on "UVuv", so plain string
comparison gives the canonical lexicographic order.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

ALPHABET = "UVuv"
# the letters that may follow each letter ("" at the start) in a reduced
# word, in ALPHABET order: all but the letter's inverse
_NEXT_LETTERS = {"": "UVuv", "U": "UVv", "V": "UVu", "u": "Vuv", "v": "Uuv"}
_RUN = re.compile(r"U+|V+|u+|v+")
_PLAIN = re.compile(r"[UVuv]*")
_CANCELLING_PAIRS = ("Uu", "uU", "Vv", "vV")
# a letter with an optional caret exponent, or any other non-space character
_TOKEN = re.compile(r"([UVuv])(?:\s*\^\s*(-?\d*))?|(\S)")


class WordSyntaxError(ValueError):
    """Raised by parse(); carries the offset of the first bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _first_cancelling(text: str, end: int) -> int:
    """The offset of the first cancelling pair inside text[:end], or -1.
    One str.find per pair, each stopped at the best hit so far, scans
    faster than one regex search for the four pairs."""
    first = -1
    for pair in _CANCELLING_PAIRS:
        i = text.find(pair, 0, end)
        if i >= 0:
            # no other pair starts at i, so later pairs count only before it
            first, end = i, i + 1
    return first


def _run_power(run: str) -> tuple[str, int]:
    c = run[0]
    return (c, len(run)) if c in "UV" else (c.upper(), -len(run))


class _RunPowers(dict):
    """A run of one letter -> its signed generator power, such as "uu" ->
    ("U", -2).  Holds the runs of up to 16 letters, so most lookups build
    nothing; longer runs are computed on each lookup and not kept."""

    def __missing__(self, run: str) -> tuple[str, int]:
        return _run_power(run)


_RUN_POWER = _RunPowers({c * k: _run_power(c * k) for c in ALPHABET for k in range(1, 17)})


# a letter -> its power; a caret token's exponent scales it
_LETTER_POWER = {"U": ("U", 1), "V": ("V", 1), "u": ("U", -1), "v": ("V", -1)}


def _token_power(token: str) -> tuple[str, int]:
    """A chunk of text with no whitespace -> its signed generator power,
    such as "u^-3" -> ("U", 3), when the chunk is exactly one token;
    KeyError otherwise.  It reads letter, caret, optional minus and digits
    with no regex; str.isdecimal() accepts exactly the digits of _TOKEN."""
    c, caret, exponent = token.partition("^")
    g, sign = _LETTER_POWER[c]  # KeyError unless c is one letter
    if not caret:
        return g, sign
    if exponent.lstrip("-").isdecimal():
        try:
            return g, sign * int(exponent)
        except ValueError:  # a second minus, or more digits than int() reads
            pass
    raise KeyError(token)


class _TokenPowers(dict):
    """A token -> its signed generator power, such as "u^-3" -> ("U", 3).
    Holds the 800 tokens of a bare letter or an exponent in -99..99 written
    without leading zeros, so most lookups build nothing; any other token,
    such as U^00007, is computed on each lookup and not kept, so the table
    never grows.  A chunk that is not exactly one token raises KeyError."""

    __missing__ = staticmethod(_token_power)


_TOKEN_POWER = _TokenPowers(
    {t: _token_power(t) for c in ALPHABET for t in (c, *[f"{c}^{e}" for e in range(-99, 100)])}
)


def _runs(text: str) -> Iterator[tuple[str, int]]:
    # the maximal runs of one letter in a text over "UVuv", as signed powers
    return map(_RUN_POWER.__getitem__, _RUN.findall(text))


class Word:
    """An immutable freely reduced word.

    The constructor insists on reduced input; use parse() to reduce free-form
    text.  `syllables` is the canonical state and `text` the printed view.
    """

    __slots__ = ("syllables", "_len", "_text")

    def __init__(self, text: str = ""):
        # a cancelling pair before the first non-letter is the first error
        end = _PLAIN.match(text).end()
        pair = _first_cancelling(text, end)
        if pair >= 0:
            raise ValueError(f"word {text!r} is not freely reduced at position {pair + 1}")
        if end < len(text):
            raise ValueError(f"bad letter {text[end]!r} at position {end}")
        # in a reduced text the maximal runs of one letter are the syllables
        self.syllables = tuple(_runs(text))
        self._len = len(text)
        self._text = text

    @classmethod
    def _from_syllables(cls, syllables: tuple[tuple[str, int], ...], length: int) -> Word:
        # internal fast path: caller guarantees normal form and the letter count
        w = object.__new__(cls)
        w.syllables = syllables
        w._len = length
        w._text = None
        return w

    @property
    def text(self) -> str:
        t = self._text
        if t is None:
            t = self._text = "".join(
                [g * e if e > 0 else g.lower() * -e for g, e in self.syllables]
            )
        return t

    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


EMPTY = Word("")


def parse(text: str) -> Word:
    """Parse free-form input into a reduced word.

    Tokens are U, V, u, v, each optionally followed by a caret exponent such
    as U^3 or V^-2, an optional minus and decimal digits.  Whitespace is
    ignored.  Each token is one syllable, so U^99999999 costs no more than
    U.  Raises WordSyntaxError with the offset of the first bad token.  Text
    of bare letters is read run by run, and when no letter meets its inverse
    its runs are the syllables.  Other text is read one whitespace-separated
    chunk at a time through _TOKEN_POWER, a table of short tokens that never
    grows; if some chunk is not exactly one token (a bad character, a caret
    beside a space or ending the text, two tokens with no space between),
    the text is read again by _tokens, which alone places errors.
    """
    if _PLAIN.fullmatch(text):
        if _first_cancelling(text, len(text)) < 0:
            w = Word._from_syllables(tuple(_runs(text)), len(text))
            w._text = text
            return w
        return _reduce(_runs(text))
    try:
        # str.split splits at exactly the characters \s matches in _TOKEN
        return _reduce(map(_TOKEN_POWER.__getitem__, text.split()))
    except KeyError:
        return _reduce(_tokens(text))


def _tokens(text: str) -> Iterator[tuple[str, int]]:
    """The tokens of free-form text as (generator, exponent), zero allowed."""
    for m in _TOKEN.finditer(text):
        c, digits, bad = m.groups()
        if bad:
            raise WordSyntaxError(f"unexpected character {bad!r}", m.start())
        exponent = 1
        if digits is not None:
            try:
                exponent = int(digits)
            except ValueError:  # no digits, or more than int() reads
                raise WordSyntaxError("malformed exponent", m.start(2)) from None
        yield (c, exponent) if c in "UV" else (c.upper(), -exponent)


def _reduce(tokens: Iterable[tuple[str, int]]) -> Word:
    """The reduced word of a product of generator powers."""
    out: list[tuple[str, int]] = []
    length = 0
    for token in tokens:
        c, exponent = token
        if not exponent:
            continue
        # the token meets only the last syllable; after a full cancellation
        # the new last syllable is on the other generator
        if out and out[-1][0] == c:
            e = out[-1][1]
            merged = e + exponent
            length += abs(merged) - abs(e)
            if merged:
                out[-1] = (c, merged)
            else:
                out.pop()
        else:
            out.append(token)
            length += abs(exponent)
    return Word._from_syllables(tuple(out), length)


def concat(w1: Word, w2: Word) -> Word:
    a, b = w1.syllables, w2.syllables
    if not a:
        return w2
    if not b:
        return w1
    length = w1._len + w2._len
    if a[-1][0] != b[0][0]:
        return Word._from_syllables(a + b, length)
    # both sides already reduced, so cancellation only happens at the junction
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        g, e = a[i - 1]
        f = b[j][1]
        if e + f:
            length += abs(e + f) - abs(e) - abs(f)
            return Word._from_syllables(a[: i - 1] + ((g, e + f),) + b[j + 1 :], length)
        length -= 2 * abs(e)
        i -= 1
        j += 1
    return Word._from_syllables(a[:i] + b[j:], length)


def invert(w: Word) -> Word:
    return Word._from_syllables(tuple([(g, -e) for g, e in w.syllables[::-1]]), w._len)


def enumerate_reduced(max_len: int) -> Iterator[Word]:
    """Yield every reduced word of length <= max_len in length-then-lex order."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    yield EMPTY
    layer = [""]
    for _ in range(max_len):
        nxt = []
        for s in layer:
            for c in _NEXT_LETTERS[s[-1:]]:
                t = s + c
                nxt.append(t)
                yield Word(t)
        layer = nxt
