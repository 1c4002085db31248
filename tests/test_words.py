import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic import words
from parabolic.ranks import membership
from parabolic.words import (
    ALPHABET,
    EMPTY,
    Word,
    WordSyntaxError,
    concat,
    enumerate_reduced,
    invert,
    parse,
    _first_cancelling,
    _reduce,
    _tokens,
    _TOKEN,
    _TOKEN_POWER,
)

from oracles import brute_reduce


def _words_up_to(max_len):
    return list(enumerate_reduced(max_len))


def test_parse_examples():
    assert parse("U v").text == "Uv"
    assert parse("U u").text == ""
    assert parse("u V u V") == Word("uVuV")


def test_parse_exponents():
    assert parse("U^-3").text == "uuu"
    assert parse("V^2 U").text == "VVU"
    assert parse("u^-2").text == "UU"
    assert parse("U^0") == EMPTY
    assert parse(" U ^ 3 ") .text == "UUU"
    # any Unicode decimal digit, as int() reads it
    assert parse("V^-\u0661\u0660") == parse("V^-10")


def test_parse_reduces_across_tokens():
    assert parse("U^3 u^2 v V").text == "U"


def test_parse_error_offsets():
    for text, message, offset in [
        ("X", "unexpected character 'X'", 0),
        ("UV^", "malformed exponent", 3),
        ("U^x", "malformed exponent", 2),
        ("UU*V", "unexpected character '*'", 2),
        ("U^-", "malformed exponent", 2),
        ("U^ ", "malformed exponent", 3),
        ("^2", "unexpected character '^'", 0),
        ("U^2^3", "unexpected character '^'", 3),
        ("U^- 3", "malformed exponent", 2),
        (" \tX", "unexpected character 'X'", 2),
        # a superscript is a digit to str.isdigit() but not to int()
        ("U^\u00b2", "malformed exponent", 2),
        # more digits than int() converts
        ("V U^" + "1" * 5000, "malformed exponent", 4),
        # int() reads these, but they are not caret exponents
        ("U^+1", "malformed exponent", 2),
        ("U^1_0", "unexpected character '_'", 3),
        # the bad chunk follows good ones, which are read again for its offset
        ("U^3 V^2 uu X", "unexpected character 'X'", 11),
        ("U^3 V^2 V^ ^2", "malformed exponent", 11),
    ]:
        with pytest.raises(WordSyntaxError) as e:
            parse(text)
        assert e.value.offset == offset
        assert str(e.value) == f"{message} (offset {offset})"


def test_word_constructor_rejects_unreduced():
    for text, message in [
        ("Uu", "word 'Uu' is not freely reduced at position 1"),
        ("aV", "bad letter 'a' at position 0"),
        # a cancelling pair wins over a later bad letter
        ("Uux", "word 'Uux' is not freely reduced at position 1"),
        ("Ux", "bad letter 'x' at position 1"),
        ("xUu", "bad letter 'x' at position 0"),
    ]:
        with pytest.raises(ValueError) as e:
            Word(text)
        assert str(e.value) == message


def test_concat_examples():
    assert concat(Word("UV"), Word("vU")).text == "UU"
    assert concat(Word("UV"), EMPTY) == Word("UV")
    assert concat(Word("UV"), Word("vu")) == EMPTY


def test_concat_matches_brute_reduction():
    words = _words_up_to(4)
    for w1 in words:
        for w2 in words:
            assert concat(w1, w2).text == brute_reduce(w1.text + w2.text)


def test_concat_associative_up_to_len_4():
    words = _words_up_to(4)
    # each pair product is made once; products[i][j] = words[i] * words[j]
    products = [[concat(a, b) for b in words] for a in words]
    for w1, row1 in zip(words, products):
        for w12, row2 in zip(row1, products):
            for w3, w23 in zip(words, row2):
                assert concat(w12, w3) == concat(w1, w23)


def test_invert():
    assert invert(Word("UV")).text == "vu"
    assert invert(EMPTY) == EMPTY
    for w in _words_up_to(6):
        assert invert(invert(w)) == w
        assert concat(w, invert(w)) == EMPTY
        assert concat(invert(w), w) == EMPTY


def test_enumerate_counts():
    assert [w.text for w in enumerate_reduced(0)] == [""]
    assert [w.text for w in enumerate_reduced(1)] == ["", "U", "V", "u", "v"]
    # closed form: 1 + sum_{k<=L} 4 * 3^(k-1)
    for max_len in (2, 3, 6):
        expected = 1 + sum(4 * 3 ** (k - 1) for k in range(1, max_len + 1))
        assert sum(1 for _ in enumerate_reduced(max_len)) == expected


def test_enumerate_reduced_distinct_and_ordered():
    seen = set()
    prev_key = None
    for w in enumerate_reduced(5):
        assert brute_reduce(w.text) == w.text
        assert w.text not in seen
        seen.add(w.text)
        key = (len(w.text), w.text)
        if prev_key is not None:
            assert prev_key < key
        prev_key = key


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_reduced(-1))


def test_operators_and_canonical_form():
    r = Word("uVuV")
    assert invert(r).text == "vUvU"
    assert concat(Word("UV"), Word("vU")).text == "UU"
    assert str(r) == "uVuV"
    assert len(r) == 4
    assert not r.is_identity()
    assert EMPTY.is_identity()


# ---------------------------------------------------------------- syllables


def _expand(syllables):
    return "".join(g * e if e > 0 else g.lower() * -e for g, e in syllables)


# syllable normal forms: nonzero exponents on alternating generators
syllable_forms = st.tuples(
    st.sampled_from("UV"), st.lists(st.integers(-30, 30).filter(bool), max_size=8)
).map(lambda t: tuple(("UV"[("UV".index(t[0]) + k) % 2], e) for k, e in enumerate(t[1])))

# reduced texts, both with mostly short runs and with long syllables
reduced_texts = st.one_of(
    st.lists(st.sampled_from(ALPHABET), max_size=40).map(lambda cs: brute_reduce("".join(cs))),
    syllable_forms.map(_expand),
)

# caret input: letters with optional signed exponents, spaced freely
caret_tokens = st.lists(
    st.tuples(
        st.sampled_from(ALPHABET),
        st.none() | st.integers(-20, 20),
        st.sampled_from(["", " ", "\t", "\u00a0"]),
        st.sampled_from(["", " ", "\t", "\u00a0"]),
    ),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(caret_tokens)
def test_parse_caret_forms_match_brute_reduction(tokens):
    text = "".join(
        c + ("" if e is None else f"{sp}^{sp}{e}") + gap for c, e, sp, gap in tokens
    )
    letters = "".join(
        (c if e is None or e >= 0 else c.swapcase()) * (1 if e is None else abs(e))
        for c, e, _, _ in tokens
    )
    expected = brute_reduce(letters)
    w = parse(text)
    assert w.text == expected
    assert len(w) == len(expected)
    assert w == Word(expected) and hash(w) == hash(Word(expected))


@settings(max_examples=300, deadline=None)
@given(reduced_texts, reduced_texts)
def test_syllable_operations_match_brute_reduction(a, b):
    wa, wb = Word(a), Word(b)
    ab = concat(wa, wb)
    assert ab.text == brute_reduce(a + b) and len(ab) == len(ab.text)
    assert ab == Word(ab.text) and hash(ab) == hash(Word(ab.text))
    assert invert(wa).text == a[::-1].swapcase() and len(invert(wa)) == len(a)
    assert (wa == wb) == (a == b)
    assert wa.is_identity() == (a == "")


@settings(max_examples=300, deadline=None)
@given(syllable_forms)
def test_word_from_syllables_equals_word_from_text(syllables):
    text = _expand(syllables)
    w = Word._from_syllables(syllables, len(text))
    assert Word(text).syllables == syllables
    assert w == Word(text) and hash(w) == hash(Word(text))
    assert w.text == text and len(w) == len(text)
    caret = " ".join(f"{g}^{e}" for g, e in syllables)
    assert parse(caret).syllables == syllables


def test_huge_caret_power_is_one_syllable():
    # U^99999999 as a string would take 100 MB; as one syllable it is a few
    # bytes, and parsing, membership and hashing never build the string
    start = time.monotonic()
    tracemalloc.start()
    try:
        w = parse("U^99999999")
        exact = membership(w)
        mod3 = membership(w, 3)
        h = hash(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1.0
    assert peak < 1_000_000
    assert len(w) == 99999999 and w.syllables == (("U", 99999999),)
    assert h == hash(parse("U^99999998 U"))
    # U^m sends the origin to (m(m - 1), m), and 3 divides m = 99999999
    assert not exact and mod3


# plain text: bare letters, with long runs and letters meeting their inverses
plain_texts = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.integers(1, 40)), max_size=12
).map(lambda runs: "".join(c * k for c, k in runs))


@settings(max_examples=300, deadline=None)
@given(plain_texts)
def test_parse_plain_text_matches_brute_reduction(text):
    # bare letters are read run by run; spaced out, the same text is read
    # token by token
    expected = brute_reduce(text)
    w = parse(text)
    assert w.text == expected and len(w) == len(expected)
    assert w == Word(expected) and w.syllables == Word(expected).syllables
    assert w == parse(" ".join(text))


def test_parse_plain_text_examples():
    assert parse("U" * 40 + "u" * 17).syllables == (("U", 23),)
    assert parse("v" * 20 + "U" + "u" + "V" * 3).syllables == (("V", -17),)
    assert parse("UVuvU").syllables == (("U", 1), ("V", 1), ("U", -1), ("V", -1), ("U", 1))
    assert parse("UuVv").is_identity() and len(parse("UuVv")) == 0
    with pytest.raises(WordSyntaxError) as e:
        parse("UUx")
    assert e.value.offset == 2


_CANCELLING_REGEX = re.compile(r"Uu|uU|Vv|vV")


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet=ALPHABET, max_size=30),
    st.integers(0, 30),
    st.sampled_from(["", "x", " ", "^", "7"]),
)
def test_first_cancelling_pair_matches_regex(text, cut, other):
    # texts with one non-letter inserted (or none): the constructor reports
    # the first cancelling pair before the first non-letter, at the offset
    # a regex search over that prefix finds
    text = text[:cut] + other + text[cut:]
    end = len(text) if not other else min(cut, len(text) - 1)
    pair = _CANCELLING_REGEX.search(text, 0, end)
    assert _first_cancelling(text, end) == (pair.start() if pair else -1)
    if pair:
        with pytest.raises(ValueError) as e:
            Word(text)
        assert str(e.value) == f"word {text!r} is not freely reduced at position {pair.start() + 1}"
    elif other:
        with pytest.raises(ValueError) as e:
            Word(text)
        assert str(e.value) == f"bad letter {other!r} at position {end}"
    else:
        assert Word(text).text == text


# ------------------------------------------------------------ caret layouts

# ASCII, Arabic-Indic and Devanagari digits 0-9
_DECIMAL_DIGITS = ["".join(map(chr, range(zero, zero + 10))) for zero in (0x30, 0x660, 0x966)]

# exponent texts: small and large, with leading zeros, zero, 30 digits and
# Unicode digits
exponent_texts = st.one_of(
    st.integers(-120, 120).map(str),
    st.tuples(st.sampled_from(["", "-"]), st.integers(0, 4), st.integers(0, 10**6)).map(
        lambda t: t[0] + "0" * t[1] + str(t[2])
    ),
    st.tuples(st.sampled_from(["", "-"]), st.integers(10**29, 10**30 - 1)).map(
        lambda t: t[0] + str(t[1])
    ),
    st.tuples(
        st.sampled_from(["", "-"]),
        st.sampled_from(_DECIMAL_DIGITS),
        st.lists(st.integers(0, 9), min_size=1, max_size=4),
    ).map(lambda t: t[0] + "".join(t[1][d] for d in t[2])),
)


@st.composite
def caret_layouts(draw):
    """Caret text in one layout per text.  A tidy layout separates its
    tokens by whitespace, with none around a caret, so the whitespace pass
    reads it to the end unless a stray character stops it."""
    if draw(st.booleans()):
        gaps = draw(st.sampled_from([[" "], ["\t"], ["\n"], [" ", "\t", "\n", "  ", "\u00a0"]]))
        around_caret = [""]
    else:
        gaps, around_caret = [" ", "", "\t"], ["", " ", "\t"]
    malformed = st.sampled_from(["", "-", "--1", "+1", "1_0", "\u00b2"])
    exponents = draw(st.sampled_from([exponent_texts, exponent_texts | malformed]))
    tokens = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ALPHABET),
                st.none() | exponents,
                st.sampled_from(around_caret),
                st.sampled_from(around_caret),
                st.sampled_from(gaps),
            ),
            max_size=12,
        )
    )
    text = "".join(
        c + ("" if e is None else f"{before}^{after}{e}") + gap
        for c, e, before, after, gap in tokens
    )
    # a stray bad character or a bare caret, in half the texts
    stray = draw(st.just("") | st.sampled_from(["x", "^", "*", "-", "\u00b2"]))
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + stray + text[cut:]


def _outcome(read, text):
    try:
        w = read(text)
    except WordSyntaxError as e:
        return str(e), e.offset
    # _len, not len(): a 30-digit exponent is past len()'s index range
    return w.syllables, w._len


@settings(max_examples=600, deadline=None)
@given(caret_layouts())
def test_parse_equals_the_token_scan_in_every_layout(text):
    assert _outcome(parse, text) == _outcome(lambda t: _reduce(_tokens(t)), text)


def test_whitespace_and_digits_agree_with_the_token_regex():
    # parse splits with str.split and reads digits with str.isdecimal where
    # _TOKEN reads \s and \d; the two reads agree only if these classes do
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    split_at = {c for c in chars if not c.split()}
    decimal = {c for c in chars if c.isdecimal()}
    assert split_at == set(re.findall(r"\s", chars, _TOKEN.flags))
    assert decimal == set(re.findall(r"\d", chars, _TOKEN.flags))


def test_token_table_stays_bounded(monkeypatch):
    # 10^4 distinct long tokens, with leading zeros and exponents past 10^5,
    # are each one token: none reaches the token scan, and none is kept
    def no_scan(text):
        raise AssertionError("whitespace-separated tokens fell back to _tokens")

    monkeypatch.setattr(words, "_tokens", no_scan)
    assert len(_TOKEN_POWER) == 800
    tokens = [f"{ALPHABET[k % 4]}^{'-' * (k % 3 == 0)}{'0' * (k % 5)}{100_000 + k}" for k in range(10**4)]
    assert len(set(tokens)) == 10**4
    text = " ".join(tokens)
    assert parse(text) == _reduce(_tokens(text))
    assert parse("U^3 v^-2 u^0 V^007").text == "UUU" + "V" * 9
    assert len(_TOKEN_POWER) == 800
