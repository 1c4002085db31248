import random

import pytest

from parabolic import linear
from parabolic.linear import (
    AffineElement,
    U_AFF,
    U_MAT,
    V_AFF,
    V_MAT,
    Vec2,
    cocycle,
    eval_affine,
    eval_linear,
    freeness_sweep,
)
from parabolic.words import EMPTY, Word, concat, enumerate_reduced, invert

from oracles import (
    M3_BY_CHAR,
    M3_IDENTITY,
    act_letterwise,
    eval_word_m3,
    freeness_sweep_dfs,
    m3_mul,
    translation_m3,
)

IDENTITY = AffineElement(1, 0, 0, 1, 0, 0)


def _words_up_to(max_len):
    return list(enumerate_reduced(max_len))


def _random_word(rng, length):
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    out = []
    for _ in range(length):
        out.append(rng.choice([c for c in "UVuv" if not out or c != inverse[out[-1]]]))
    return Word("".join(out))


def test_generator_constants():
    assert U_AFF == (1, 2, 0, 1, 0, 1) and V_AFF == (1, 0, 2, 1, 1, 0)
    assert U_MAT == U_AFF.linear and V_MAT == V_AFF.linear
    # the linear generators are elements of K: zero translation, and
    # block-diagonal 3x3 matrices
    assert U_MAT == (1, 2, 0, 1, 0, 0) and V_MAT == (1, 0, 2, 1, 0, 0)
    assert type(U_MAT) is AffineElement and type(V_MAT) is AffineElement
    assert U_MAT.matrix3() == ((1, 2, 0), (0, 1, 0), (0, 0, 1))
    assert V_MAT.matrix3() == ((1, 0, 0), (2, 1, 0), (0, 0, 1))
    assert U_AFF.translation == Vec2(0, 1)
    assert V_AFF.translation == Vec2(1, 0)
    assert U_AFF.matrix3() == ((1, 2, 0), (0, 1, 1), (0, 0, 1))
    assert V_AFF.matrix3() == ((1, 0, 1), (2, 1, 0), (0, 0, 1))


def test_mat2_det_guard():
    # the linear part is the element of K with zero translation, and building
    # it checks the determinant
    with pytest.raises(ValueError, match="^determinant must be 1, got 2$"):
        AffineElement(1, 0, 0, 2, 0, 0).linear


def test_mat2_inverse():
    # an element with zero translation inverts its linear part alone, and
    # its 3x3 block-diagonal matrix checks it
    m = AffineElement(3, 2, 4, 3, 0, 0)
    inv = m.inverse()
    assert inv == AffineElement(3, -2, -4, 3, 0, 0) and inv.linear == inv
    assert m3_mul(m.matrix3(), inv.matrix3()) == M3_IDENTITY
    assert m3_mul(inv.matrix3(), m.matrix3()) == M3_IDENTITY


def test_vec2_is_exact():
    # coordinates are kept as given; a residue is not a point
    v = Vec2(7, -3)
    assert (v.x, v.y) == (7, -3)
    assert v == Vec2(7, -3) and hash(v) == hash(Vec2(7, -3)) and v != Vec2(2, 2)
    with pytest.raises(TypeError):
        Vec2(1, 2, 3)


def test_vec2_is_its_pair():
    # a Vec2 and an (x, y) tuple name one point, in a dict or a set too
    v = Vec2(7, -3)
    assert v == (7, -3) and (7, -3) == v and v != (-3, 7)
    assert hash(v) == hash((7, -3))
    assert {(7, -3): "p"}[v] == "p" and {v: "p"}[(7, -3)] == "p"
    x, y = v
    assert (x, y) == (7, -3) and tuple(v) == (7, -3)
    # a point or a group element is not a tuple to concatenate or repeat
    for g in (v, U_AFF, U_MAT):
        ops = (lambda: g + g, lambda: g + V_MAT, lambda: g + (1, 2), lambda: g * 2, lambda: 2 * g)
        for op in ops:
            with pytest.raises(TypeError, match="unsupported operand"):
                op()
    assert str(v) == "(7, -3)" and repr(v) == "Vec2(7, -3)"


def test_affine_compose_example():
    prod = m3_mul(U_AFF.matrix3(), V_AFF.matrix3())
    assert prod == AffineElement(5, 2, 2, 1, 1, 1).matrix3()
    assert AffineElement(1, 0, 0, 1, 0, 0).matrix3() == M3_IDENTITY


def test_affine_apply_examples():
    origin = Vec2(0, 0)
    assert U_AFF.apply(origin) == Vec2(0, 1)
    assert V_AFF.apply(origin) == Vec2(1, 0)
    assert AffineElement(1, 0, 0, 1, 0, 0).apply(Vec2(9, -4)) == Vec2(9, -4)


def test_affine_inverse():
    lin = AffineElement(3, 2, 4, 3, 0, 0)
    for g in (U_AFF, V_AFF, lin, AffineElement(3, 2, 4, 3, 5, -1)):
        assert type(g.inverse()) is AffineElement and g.inverse().inverse() == g
    for g in (U_AFF, V_AFF, lin, eval_affine(Word("UV")), eval_affine(Word("vU"))):
        assert m3_mul(g.matrix3(), g.inverse().matrix3()) == M3_IDENTITY
        assert m3_mul(g.inverse().matrix3(), g.matrix3()) == M3_IDENTITY


def test_eval_checks_the_determinant(monkeypatch):
    # eval_affine checks the determinant of its product, so a letter table
    # of determinant 2 is refused on every path that evaluates a word
    monkeypatch.setitem(linear._CHAR_AFF, "U", (1, 0, 0, 2, 0, 1))
    for evaluate in (cocycle, eval_linear, eval_affine):
        with pytest.raises(ValueError, match="^determinant must be 1, got 2$"):
            evaluate(Word("U"))


def test_eval_linear_examples():
    assert eval_linear(Word("U")) == U_MAT
    assert eval_linear(EMPTY) == IDENTITY
    assert eval_linear(Word("UV")) == AffineElement(5, 2, 2, 1, 0, 0)


def test_eval_affine_examples():
    assert eval_affine(Word("U")) == U_AFF
    assert eval_affine(EMPTY) == AffineElement(1, 0, 0, 1, 0, 0)
    assert type(eval_affine(Word("uV"))) is AffineElement
    inv = eval_affine(Word("u"))
    assert inv.translation == Vec2(2, -1)
    assert inv.linear == AffineElement(1, -2, 0, 1, 0, 0)


def test_eval_matches_3x3_oracle():
    # every reduced word of length <= 6, and long random words whose entries
    # outgrow one machine word
    rng = random.Random(29)
    words = _words_up_to(6) + [_random_word(rng, rng.randint(0, 300)) for _ in range(200)]
    for w in words:
        m3 = eval_word_m3(w.text)
        assert eval_affine(w).matrix3() == m3
        lin = eval_linear(w)
        assert ((lin.a, lin.b), (lin.c, lin.d)) == (m3[0][:2], m3[1][:2])


def _m3(six):
    """The 3x3 block matrix of a letter's six ints (a, b, c, d, x, y)."""
    a, b, c, d, x, y = six
    return ((a, b, x), (c, d, y), (0, 0, 1))


def test_letter_table_matches_the_3x3_oracle():
    # eval_affine multiplies these six plain ints per letter
    assert set(linear._CHAR_AFF) == set(M3_BY_CHAR)
    for ch, six in linear._CHAR_AFF.items():
        # a plain tuple, which CPython unpacks faster than a NamedTuple
        assert type(six) is tuple, ch
        assert len(six) == 6 and all(type(e) is int for e in six), ch
        assert _m3(six) == M3_BY_CHAR[ch], ch


def test_inverse_letters_are_inverse_matrices():
    for c in "UV":
        el, inv = linear._CHAR_AFF[c], linear._CHAR_AFF[c.lower()]
        assert inv == AffineElement(*el).inverse()
        assert m3_mul(_m3(el), _m3(inv)) == M3_IDENTITY
        assert m3_mul(_m3(inv), _m3(el)) == M3_IDENTITY


def test_eval_homomorphism_exhaustive():
    # the linear block of a product of affine matrices is the product of
    # their linear parts, so one 3x3 product per pair checks both
    # evaluations; the pairs (w1, EMPTY) pin eval_linear(w1) to the linear
    # part of eval_affine(w1)
    words = _words_up_to(5)
    aff = {w.text: eval_affine(w).matrix3() for w in words}
    for w1 in words:
        for w2 in words:
            w = concat(w1, w2)
            m3 = m3_mul(aff[w1.text], aff[w2.text])
            assert eval_affine(w).matrix3() == m3
            lin = eval_linear(w)
            assert ((lin.a, lin.b), (lin.c, lin.d)) == (m3[0][:2], m3[1][:2])


def test_eval_homomorphism_random_longer():
    rng = random.Random(7)
    for _ in range(1000):
        w1 = _random_word(rng, rng.randint(6, 14))
        w2 = _random_word(rng, rng.randint(6, 14))
        w = concat(w1, w2)
        lin = m3_mul(eval_linear(w1).matrix3(), eval_linear(w2).matrix3())
        aff = m3_mul(eval_affine(w1).matrix3(), eval_affine(w2).matrix3())
        assert eval_linear(w).matrix3() == lin
        assert eval_affine(w).matrix3() == aff


def test_eval_inverse_words():
    for w in _words_up_to(6):
        assert eval_affine(invert(w)) == eval_affine(w).inverse()


def test_determinant_stays_one():
    for w in _words_up_to(8):
        m = eval_linear(w)
        assert m.a * m.d - m.b * m.c == 1


def test_apply_composition_associates():
    rng = random.Random(11)
    for _ in range(1000):
        g = eval_affine(_random_word(rng, 6))
        h = eval_affine(_random_word(rng, 6))
        p = Vec2(rng.randint(-50, 50), rng.randint(-50, 50))
        # the last column of (g h) t_p is (g h) applied to p
        t_p = AffineElement(1, 0, 0, 1, *p).matrix3()
        gh_p = m3_mul(m3_mul(g.matrix3(), h.matrix3()), t_p)
        r = g.apply(h.apply(p))
        assert (gh_p[0][2], gh_p[1][2]) == r


def test_cocycle_examples():
    assert cocycle(Word("U")) == Vec2(0, 1)
    assert cocycle(Word("V")) == Vec2(1, 0)
    assert cocycle(EMPTY) == Vec2(0, 0)
    assert cocycle(Word("uVuV")) == Vec2(-4, 4)


def test_cocycle_identity_exhaustive():
    words = _words_up_to(5)
    for w1 in words:
        for w2 in words:
            w = concat(w1, w2)
            c1, moved = cocycle(w1), eval_linear(w1).apply(cocycle(w2))
            assert cocycle(w) == Vec2(c1.x + moved.x, c1.y + moved.y)


def test_cocycle_paths_agree():
    for w in _words_up_to(6):
        assert cocycle(w) == translation_m3(w.text)


def test_cocycle_matches_action_on_origin():
    rng = random.Random(23)
    for _ in range(300):
        w = _random_word(rng, rng.randint(0, 15))
        assert cocycle(w) == act_letterwise(w.text, 0, 0)


def test_freeness_sweep_small():
    res = freeness_sweep(1)
    assert res.passed and res.words_checked == 4 and res.counterexample is None
    res = freeness_sweep(6)
    assert res.passed
    assert res.words_checked == 2 * (3**6 - 1)


def test_freeness_sweep_checks_every_reduced_word():
    # 4 * 3^(k-1) nonempty reduced words of length k, certified by the
    # products of the words of length <= ceil(L/2), the identity's included
    for max_len in range(15):
        res = freeness_sweep(max_len)
        assert res.passed and res.words_checked == 2 * (3**max_len - 1)
        assert res.products == 2 * 3 ** ((max_len + 1) // 2) - 1
    assert freeness_sweep(10).words_checked == 118096
    assert (freeness_sweep(10).products, freeness_sweep(14).products) == (485, 4373)


def test_freeness_sweep_reports_a_relation(monkeypatch):
    # with U replaced by a rotation of order 4, U^4 is the identity; the sweep
    # reads the letter matrices from _CHAR_AFF, so it must find the relation
    _patch_u(monkeypatch, 4)
    res = freeness_sweep(4)
    assert not res.passed and res.counterexample == Word("UUUU")
    assert 0 < res.words_checked <= 2 * (3**4 - 1)


# U replaced by a linear map of finite order, keyed by that order
_FINITE_ORDER_U = {
    3: AffineElement(0, -1, 1, -1, 0, 0),
    4: AffineElement(0, -1, 1, 0, 0, 0),
    6: AffineElement(1, -1, 1, 0, 0, 0),
}


def _patch_u(monkeypatch, order):
    # the sweep and eval_linear both read the linear parts of _CHAR_AFF
    u = _FINITE_ORDER_U[order]
    for ch, el in (("U", u), ("u", u.inverse())):
        monkeypatch.setitem(linear._CHAR_AFF, ch, tuple(el))


@pytest.mark.parametrize("order", [None, 3, 4, 6])
def test_freeness_sweep_matches_reference_sweep(monkeypatch, order):
    if order is not None:
        _patch_u(monkeypatch, order)
    letters = {c: six[:4] for c, six in linear._CHAR_AFF.items()}
    for max_len in range(9):
        res = freeness_sweep(max_len)
        passed, _, _ = freeness_sweep_dfs(max_len, letters)
        assert res.passed == passed, max_len
        if passed:
            assert res.counterexample is None
            continue
        w = res.counterexample
        assert Word(w.text) == w  # Word refuses text that is not reduced
        assert 0 < len(w) <= max_len
        assert eval_linear(w) == IDENTITY
        # the words counted as checked hold no relation
        certified = next(k for k in range(max_len + 1) if 2 * (3**k - 1) == res.words_checked)
        assert certified < len(w) and freeness_sweep_dfs(certified, letters)[0]
    if order is not None:
        # U^order is the shortest relation: no longer one is reported below it
        assert freeness_sweep(order - 1).passed
        assert len(freeness_sweep(order).counterexample) == order


def test_freeness_sweep_rejects_negative():
    with pytest.raises(ValueError):
        freeness_sweep(-1)
