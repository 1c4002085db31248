import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic import action
from parabolic.action import (
    DEFAULT_WITNESS,
    ORIGIN,
    MarkedPoint,
    act,
    act_ints,
    generator_power,
    loop_check,
    marked_point,
    step,
    witness_length,
    witness_sweep,
    witness_word,
)
from parabolic.linear import U_MAT, Vec2, eval_affine, eval_linear
from parabolic.words import EMPTY, Word, concat, enumerate_reduced, parse

from oracles import act_letterwise, step_point


def _random_word(rng, length):
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    out = []
    for _ in range(length):
        out.append(rng.choice([c for c in "UVuv" if not out or c != inverse[out[-1]]]))
    return Word("".join(out))


def test_step_examples():
    assert step("U", Vec2(0, 0)) == Vec2(0, 1)
    assert step("V", Vec2(0, 0)) == Vec2(1, 0)
    assert step("u", Vec2(0, 1)) == Vec2(0, 0)
    assert step("v", Vec2(1, 0)) == Vec2(0, 0)
    with pytest.raises(ValueError):
        step("X", Vec2(0, 0))


def test_step_matches_oracle():
    rng = random.Random(3)
    for _ in range(500):
        p = Vec2(rng.randint(-100, 100), rng.randint(-100, 100))
        for ch in "UVuv":
            assert step(ch, p) == step_point(ch, *p)


def test_point_maps_agree_on_tuple_and_vec2():
    # a Vec2 is its pair, so each map gives one Vec2 for either
    rng = random.Random(29)
    for _ in range(200):
        w = _random_word(rng, rng.randint(1, 12))
        c, m = rng.choice("UVuv"), rng.randint(-5, 5)
        x, y = rng.randint(-100, 100), rng.randint(-100, 100)
        for f in (
            lambda p: step(c, p),
            lambda p: generator_power(c.upper(), m, p),
            lambda p: act(w, p),
            eval_linear(w).apply,
            eval_affine(w).apply,
        ):
            got = f((x, y))
            assert type(got) is Vec2 and f(Vec2(x, y)) == got
        assert loop_check(w, (x, y)) == loop_check(w, Vec2(x, y))
    assert loop_check(DEFAULT_WITNESS, (0, 1)) and loop_check(DEFAULT_WITNESS, Vec2(0, 1))
    assert U_MAT.apply((1, 1)) == U_MAT.apply(Vec2(1, 1)) == (3, 1)


def test_act_examples():
    assert act(Word("U"), ORIGIN) == Vec2(0, 1)
    assert act(Word("V"), ORIGIN) == Vec2(1, 0)
    assert act(EMPTY, Vec2(5, -2)) == Vec2(5, -2)
    assert act(Word("uVuV"), ORIGIN) == Vec2(-4, 4)


def test_act_applies_rightmost_letter_first():
    w = Word("UV")
    assert act(w, ORIGIN) == step("U", step("V", ORIGIN))
    assert act(w, ORIGIN) == Vec2(1, 1)


def test_act_equals_letterwise_oracle():
    rng = random.Random(17)
    for _ in range(400):
        w = _random_word(rng, rng.randint(0, 40))
        p = Vec2(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        assert act(w, p) == act_letterwise(w.text, *p)


def test_act_equals_letterwise_oracle_mod():
    rng = random.Random(19)
    for _ in range(200):
        q = rng.randint(2, 30)
        w = _random_word(rng, rng.randint(0, 40))
        x, y = rng.randint(0, q - 1), rng.randint(0, q - 1)
        assert act_ints(w, x, y, q) == act_letterwise(w.text, x, y, q)


# syllable normal forms: nonzero exponents on alternating generators
syllable_forms = st.tuples(
    st.sampled_from("UV"), st.lists(st.integers(-40, 40).filter(bool), max_size=10)
).map(lambda t: tuple(("UV"[("UV".index(t[0]) + k) % 2], e) for k, e in enumerate(t[1])))


@settings(max_examples=300, deadline=None)
@given(
    syllable_forms,
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.none() | st.integers(2, 60),
)
def test_act_on_syllables_matches_letterwise_oracle(syllables, x, y, q):
    text = "".join(g * e if e > 0 else g.lower() * -e for g, e in syllables)
    if q is not None:
        x, y = x % q, y % q
    for w in (Word(text), parse(" ".join(f"{g}^{e}" for g, e in syllables))):
        if q is None:
            assert act(w, (x, y)) == act_letterwise(text, x, y)
        else:
            assert act_ints(w, x, y, q) == act_letterwise(text, x, y, q)


def test_act_equals_affine_evaluation():
    for w in enumerate_reduced(6):
        g = eval_affine(w)
        for p in (ORIGIN, Vec2(3, -7), Vec2(-2, 11)):
            assert act(w, p) == g.apply(p)


def test_generator_power_matches_iteration():
    rng = random.Random(29)
    for _ in range(200):
        p = Vec2(rng.randint(-50, 50), rng.randint(-50, 50))
        for gen in "UV":
            m = rng.randint(-30, 30)
            stepped = p
            ch = gen if m >= 0 else gen.lower()
            for _ in range(abs(m)):
                stepped = step(ch, stepped)
            assert generator_power(gen, m, p) == stepped


def test_generator_power_zero():
    assert generator_power("U", 0, Vec2(4, 5)) == Vec2(4, 5)
    with pytest.raises(ValueError):
        generator_power("u", 1, ORIGIN)


def test_marked_point_examples():
    assert marked_point(0).point == Vec2(0, 1)
    assert marked_point(1).point == Vec2(1, 0)
    assert marked_point(-1).point == Vec2(-1, 2)
    assert marked_point(5).point == Vec2(5, -4)


def test_marked_point_is_named_by_n():
    # n is the only field, so no marked point can disagree with its point
    assert MarkedPoint._fields == ("n",)
    for n in range(-50, 51):
        assert marked_point(n) == MarkedPoint(n)
        assert marked_point(n).point == Vec2(n, 1 - n)


def test_witness_word_base_cases():
    assert witness_word(0).word == Word("U")
    assert witness_word(1).word == Word("V")
    assert witness_word(-1).word == Word("v")
    assert witness_word(2).word == Word("u")


def test_witness_word_small_cases():
    assert witness_word(3).word == Word("uuuuv")
    assert witness_word(4).word == Word("uuuuuuvvvvu")
    assert witness_word(-2).word == Word("vvvvu")


def test_witness_words_reach_marked_points():
    for n in range(-60, 61):
        sched = witness_word(n)
        assert sched.n == n
        assert act(sched.word, ORIGIN) == marked_point(n).point


def test_witness_word_matches_the_prepending_chain():
    # the chain of powers down to U or V, joined by concat one at a time, so
    # the merges at n = 2 and n = -1 are made by free reduction and not read
    # from the base witnesses
    for n in range(-300, 301):
        chain = [n]
        while chain[-1] not in (0, 1):
            chain.append(action._predecessor(chain[-1]))
        word = Word("UV"[chain.pop()])
        for k in reversed(chain):
            gen, e = action._power(k)
            word = concat(Word(gen * e if e > 0 else gen.lower() * -e), word)
        single = witness_word(n).word
        assert single.syllables == word.syllables and len(single) == len(word), n


def test_witness_word_certifies_the_whole_word(monkeypatch):
    calls = _record_act(monkeypatch)
    sched = witness_word(40)
    # one act, of every syllable, from the origin
    assert calls == [(len(sched.word.syllables), ORIGIN)]
    real = action._power

    def wrong(n):
        gen, e = real(n)
        return gen, e + 2

    monkeypatch.setattr(action, "_power", wrong)
    with pytest.raises(ValueError, match="does not reach marked point 40$"):
        witness_word(40)


def test_witness_length_growth_is_quadratic():
    for n in range(-100, 101):
        assert len(witness_word(n).word) <= 4 * n * n + 10


def test_witness_length_closed_form():
    for n in range(-200, 201):
        assert witness_length(n) == len(witness_word(n).word)


def test_witness_sweep_matches_single_queries():
    seen = {}
    for sched in witness_sweep(200):
        assert sched.n not in seen
        seen[sched.n] = sched.word
    assert set(seen) == set(range(-200, 201))
    for n, word in seen.items():
        single = witness_word(n).word
        assert single.syllables == word.syllables and len(single) == len(word)


def test_witness_words_reach_marked_points_letter_by_letter():
    # the oracle steps every letter of the printed text, sharing no code with
    # the syllable-wise check in WitnessSchedule
    for n in range(-200, 201):
        text = witness_word(n).word.text
        assert len(text) == witness_length(n)
        assert act_letterwise(text, 0, 0) == (n, 1 - n)


def test_witness_sweep_order():
    indices = [s.n for s in witness_sweep(3)]
    assert indices == [0, 1, -1, 2, -2, 3, -3]


def test_witness_sweep_rejects_negative():
    with pytest.raises(ValueError):
        list(witness_sweep(-1))


def _record_act(monkeypatch):
    # wraps action.act, which witness_word and witness_sweep certify with, to
    # record the syllable count and the start point of every call
    calls = []
    real = action.act

    def counting_act(w, p):
        calls.append((len(w.syllables), p))
        return real(w, p)

    monkeypatch.setattr(action, "act", counting_act)
    return calls


def test_witness_sweep_acts_one_syllable_per_witness(monkeypatch):
    calls = _record_act(monkeypatch)
    n_max = 2000
    scheds = list(witness_sweep(n_max))
    assert len(scheds) == len(calls) == 2 * n_max + 1
    # whole words are acted from the origin only for the base witnesses and
    # for n = 2 and n = -1, where the new power merges into a base witness
    whole = [s.n for s, (_, p) in zip(scheds, calls) if p == ORIGIN]
    assert whole == [0, 1, -1, 2]
    assert all(k <= 2 for k, _ in calls)
    # each other witness is certified on its predecessor's endpoint
    for s, (_, p) in zip(scheds[4:], calls[4:]):
        pred = -s.n if s.n < 0 else 2 - s.n
        assert p == marked_point(pred).point


def _break_power_at(monkeypatch, bad_n):
    # the recurrence power of bad_n two larger, the others as they are
    real = action._power

    def power(n):
        gen, e = real(n)
        return (gen, e + 2) if n == bad_n else (gen, e)

    monkeypatch.setattr(action, "_power", power)


@pytest.mark.parametrize("bad_n, whole_word", [(7, False), (-5, False), (2, True)])
def test_witness_sweep_rejects_a_wrong_power(monkeypatch, bad_n, whole_word):
    if whole_word:
        # 2 is a base witness, acted from the origin: break the word itself
        monkeypatch.setitem(action._BASE_WITNESSES, bad_n, Word("uu"))
    else:
        _break_power_at(monkeypatch, bad_n)
    calls = _record_act(monkeypatch)
    made = []
    with pytest.raises(ValueError, match=f"does not reach marked point {bad_n}$"):
        for sched in witness_sweep(10):
            made.append(sched.n)
    assert bad_n not in made and len(calls) == len(made) + 1
    # the failing certificate took the path under test
    assert (calls[-1][1] == ORIGIN) == whole_word


def test_witness_failure_message_is_short(monkeypatch):
    # the broken witness of 3000 has about 9 million letters; the message
    # names its length, not its text, and so does the verify report
    _break_power_at(monkeypatch, 3000)
    with pytest.raises(ValueError, match="does not reach marked point 3000$") as info:
        for _ in witness_sweep(3000):
            pass
    message = str(info.value)
    assert len(message) < 100 and "n = 3000" in message
    # the helper shortens the leading power by two letters
    assert message.startswith(f"witness of {witness_length(3000) - 2} letters")


def test_witness_sweep_prepends_one_power_to_its_predecessor():
    words = {s.n: s.word for s in witness_sweep(300)}
    for n, word in words.items():
        if n in action._BASE_WITNESSES:
            continue
        pred = words[action._predecessor(n)]
        assert word.syllables == (action._power(n),) + pred.syllables, n
        assert len(word) == abs(action._power(n)[1]) + len(pred), n


def test_witness_sweep_refuses_a_power_that_merges(monkeypatch):
    # U^4 on the witness of 4, the predecessor of -4, which starts with U^-6
    # would merge into it
    real = action._power
    monkeypatch.setattr(action, "_power", lambda n: ("U", 4) if n == -4 else real(n))
    made = []
    with pytest.raises(AssertionError, match="n = -4 merges"):
        for sched in witness_sweep(10):
            made.append(sched.n)
    assert made == [0, 1, -1, 2, -2, 3, -3, 4]


def test_default_witness_fixes_line_points():
    for n in range(-50, 51):
        assert loop_check(DEFAULT_WITNESS, marked_point(n).point)


def test_loop_check_examples():
    assert not loop_check(Word("U"), ORIGIN)
    assert not loop_check(DEFAULT_WITNESS, ORIGIN)
    assert not loop_check(Word("UV"), ORIGIN)


def test_loop_check_matches_direct_action():
    rng = random.Random(31)
    for _ in range(300):
        w = _random_word(rng, rng.randint(1, 20))
        p = Vec2(rng.randint(-20, 20), rng.randint(-20, 20))
        assert loop_check(w, p) == (act(w, p) == p)


def test_loop_check_rejects_empty_word():
    with pytest.raises(ValueError):
        loop_check(EMPTY, ORIGIN)
