import itertools

import pytest

from parabolic.words import (
    EMPTY,
    Word,
    WordSyntaxError,
    concat,
    enumerate_reduced,
    invert,
    parse,
    power,
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


def test_parse_reduces_across_tokens():
    assert parse("U^3 u^2 v V").text == "U"


def test_parse_error_offsets():
    with pytest.raises(WordSyntaxError) as e:
        parse("X")
    assert e.value.offset == 0
    with pytest.raises(WordSyntaxError) as e:
        parse("UV^")
    assert e.value.offset == 3
    with pytest.raises(WordSyntaxError) as e:
        parse("U^x")
    assert e.value.offset == 2
    with pytest.raises(WordSyntaxError) as e:
        parse("UU*V")
    assert e.value.offset == 2


def test_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        Word("Uu")
    with pytest.raises(ValueError):
        Word("aV")


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
    for w1, w2, w3 in itertools.product(words, repeat=3):
        assert concat(concat(w1, w2), w3) == concat(w1, concat(w2, w3))


def test_invert():
    assert invert(Word("UV")).text == "vu"
    assert invert(EMPTY) == EMPTY
    for w in _words_up_to(6):
        assert invert(invert(w)) == w
        assert concat(w, invert(w)) == EMPTY
        assert concat(invert(w), w) == EMPTY


def test_power_examples():
    assert power(Word("U"), 3).text == "UUU"
    assert power(Word("UV"), 0) == EMPTY
    assert power(Word("Uv"), -1).text == "Vu"
    assert power(Word("UVu"), 3).text == "UVVVu"


def test_power_matches_repeated_concat():
    for w in _words_up_to(3):
        for m in range(-5, 6):
            expected = EMPTY
            for _ in range(abs(m)):
                expected = concat(expected, w if m > 0 else invert(w))
            assert power(w, m) == expected


def test_power_addition_law():
    for w in _words_up_to(3):
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert power(w, a + b) == concat(power(w, a), power(w, b))


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
    assert (~r).text == "vUvU"
    assert (Word("UV") * Word("vU")).text == "UU"
    assert (Word("U") ** -2).text == "uu"
    assert str(r) == "uVuV"
    assert len(r) == 4
    assert not r.is_identity()
    assert EMPTY.is_identity()
