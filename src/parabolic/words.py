"""Freely reduced words over the alphabet {U, V, U^-1, V^-1}.

A word is held as a string over "UVuv", lowercase marking an inverse letter;
that string is also the canonical printed form.  The letter order used
everywhere (enumeration, tie-breaking) is U < V < U^-1 < V^-1, which happens
to coincide with ASCII order on "UVuv", so plain string comparison gives the
canonical lexicographic order.
"""

from __future__ import annotations

from typing import Iterator

ALPHABET = "UVuv"
_INVERSE_CHAR = {"U": "u", "u": "U", "V": "v", "v": "V"}


class WordSyntaxError(ValueError):
    """Raised by parse(); carries the offset of the first bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _concat_text(a: str, b: str) -> str:
    # both sides already reduced, so cancellation only happens at the junction
    i, j = len(a), 0
    while i > 0 and j < len(b) and b[j] == _INVERSE_CHAR[a[i - 1]]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


class Word:
    """An immutable freely reduced word.

    The constructor insists on reduced input; use parse() to reduce free-form
    text.  Words multiply with *, invert with ~ or .inverse(), and raise to
    integer powers with **.
    """

    __slots__ = ("text",)

    def __init__(self, text: str = ""):
        for i, c in enumerate(text):
            if c not in _INVERSE_CHAR:
                raise ValueError(f"bad letter {c!r} at position {i}")
            if i and text[i - 1] == _INVERSE_CHAR[c]:
                raise ValueError(f"word {text!r} is not freely reduced at position {i}")
        self.text = text

    @classmethod
    def _raw(cls, text: str) -> Word:
        # internal fast path: caller guarantees text is reduced
        w = object.__new__(cls)
        w.text = text
        return w

    def is_identity(self) -> bool:
        return not self.text

    def inverse(self) -> Word:
        return Word._raw(self.text[::-1].swapcase())

    def __invert__(self) -> Word:
        return self.inverse()

    def __mul__(self, other: Word) -> Word:
        return concat(self, other)

    def __pow__(self, m: int) -> Word:
        return power(self, m)

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


EMPTY = Word._raw("")


def parse(text: str) -> Word:
    """Parse free-form input into a reduced word.

    Tokens are U, V, u, v, each optionally followed by a caret exponent such
    as U^3 or V^-2.  Whitespace is ignored.  Raises WordSyntaxError with the
    offset of the first bad token.
    """
    out = ""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c not in _INVERSE_CHAR:
            raise WordSyntaxError(f"unexpected character {c!r}", i)
        i += 1
        exponent = 1
        # peek past whitespace for a caret
        j = i
        while j < n and text[j].isspace():
            j += 1
        if j < n and text[j] == "^":
            j += 1
            while j < n and text[j].isspace():
                j += 1
            start = j
            if j < n and text[j] == "-":
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[start:j]
            if not digits or digits == "-":
                raise WordSyntaxError("malformed exponent", start)
            exponent = int(digits)
            i = j
        if exponent < 0:
            c = _INVERSE_CHAR[c]
            exponent = -exponent
        out = _concat_text(out, c * exponent)
    return Word._raw(out)


def concat(w1: Word, w2: Word) -> Word:
    return Word._raw(_concat_text(w1.text, w2.text))


def invert(w: Word) -> Word:
    return w.inverse()


def power(w: Word, m: int) -> Word:
    if m == 0 or not w.text:
        return EMPTY
    if m < 0:
        return power(w.inverse(), -m)
    s = w.text
    # peel the conjugating shell so the cyclically reduced core repeats cleanly
    i, j = 0, len(s) - 1
    while i < j and s[i] == _INVERSE_CHAR[s[j]]:
        i += 1
        j -= 1
    core = s[i : j + 1]
    return Word._raw(s[:i] + core * m + s[j + 1 :])


def enumerate_reduced(max_len: int) -> Iterator[Word]:
    """Yield every reduced word of length <= max_len in length-then-lex order."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    yield EMPTY
    layer = [""]
    for _ in range(max_len):
        nxt = []
        for s in layer:
            last = s[-1] if s else ""
            for c in ALPHABET:
                if last and c == _INVERSE_CHAR[last]:
                    continue
                t = s + c
                nxt.append(t)
                yield Word._raw(t)
        layer = nxt
