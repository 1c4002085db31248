import random
import time
import tracemalloc

import pytest

from parabolic.action import DEFAULT_WITNESS, witness_word
from parabolic.linear import eval_affine, eval_linear
from parabolic.ranks import (
    _SIEVE_PRIME,
    AbelianGroupDescriptor,
    abelianization,
    intersection_rank_lower_bound,
    lattice_relation_matrix,
    membership,
    nielsen_schreier_rank,
    smith_normal_form,
    stabilizer_index,
)
from parabolic.schreier import build_mod_q
from parabolic.words import EMPTY, Word, concat, enumerate_reduced, invert, parse

from oracles import (
    act_letterwise,
    determinantal_divisors,
    orbit_size_mod_q,
    step_point,
    translation_m3,
)


# ---------------------------------------------------------------- indices


def test_stabilizer_index_small_values():
    assert stabilizer_index(2) == 4
    assert stabilizer_index(3) == 9
    assert stabilizer_index(4) == 8
    assert stabilizer_index(5) == 25
    assert stabilizer_index(8) == 32


def test_stabilizer_index_matches_graph_size():
    # every q to 100, and every 4 | q to 200, where the count stops at q // 2
    for q in list(range(2, 101)) + list(range(104, 201, 4)):
        assert stabilizer_index(q) == len(build_mod_q(q)), q


def test_stabilizer_index_matches_four_letter_oracle():
    # every q in 2..64: the orbit is all of (Z/q)^2, where the kernel stops
    # as soon as every V-cycle is seen, except when 4 | q, where it is half
    # and the kernel stops at q // 2 labels
    for q in range(2, 65):
        assert stabilizer_index(q) == orbit_size_mod_q(q)


def test_stabilizer_index_stop_premise_at_4():
    # the stop at q // 2 labels when 4 | q rests on the orbit mod 4 having 8
    # of its 16 points, found here by the independent four-letter BFS
    assert stabilizer_index(4) == orbit_size_mod_q(4) == 8


@pytest.mark.parametrize("q", [4096, 4092])
def test_stabilizer_index_stop_time_budget(q):
    # 4 | q: the closure ends once it holds q // 2 labels, long before its
    # stack is empty (the full closure takes over a second at these q)
    start = time.perf_counter()
    assert stabilizer_index(q) == q * q // 2
    assert time.perf_counter() - start < 0.25


def _label(x, y, q):
    return (y - x * (x - 1)) % q


def test_v_cycles_have_q_points_and_one_label():
    # the lemma the kernel counts by: V keeps y - x(x - 1) mod q and V^q = 1
    for q in range(2, 61):
        for x in range(q):
            for y in range(q):
                vx, vy = step_point("V", x, y)
                assert _label(vx, vy, q) == _label(x, y, q)
            px, py = x, (3 * x + 1) % q
            visited = set()
            for _ in range(q):
                visited.add((px % q, py % q))
                px, py = step_point("V", px, py)
            assert (px % q, py % q) == (x, (3 * x + 1) % q)
            assert len(visited) == q


def test_u_moves_v_cycles_by_the_label_map():
    # U takes (x, c + a_x) to x' = x + 2c + 2a_x on cycle c + a_x + 1 - a_x'
    for q in range(2, 41):
        a = [x * (x - 1) % q for x in range(q)]
        for c in range(q):
            for x in range(q):
                ux, uy = step_point("U", x, c + a[x])
                assert ux % q == (x + 2 * c + 2 * a[x]) % q
                assert _label(ux, uy, q) == (c + a[x] + 1 - a[ux % q]) % q


def test_stabilizer_index_closed_form():
    # the orbit is all of (Z/q)^2 unless 4 | q, where it is half
    for q in list(range(2, 301)) + [2**12, 3**7, 5**5, 7**4]:
        assert stabilizer_index(q) == (q * q if q % 4 else q * q // 2), q


def test_stabilizer_index_memory_budget():
    # O(q) lists and label sets: no q*q table at the largest q allowed.
    # 4096 stops after a few labels; 4095 (4 does not divide it) meets all
    # q labels, so it covers a full closure
    for q in (4096, 4095):
        tracemalloc.start()
        try:
            assert stabilizer_index(q) == (q * q if q % 4 else q * q // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, q


def test_stabilizer_index_at_least_q():
    for q in range(2, 60):
        assert stabilizer_index(q) >= q


def test_stabilizer_index_rejects_small_q():
    with pytest.raises(ValueError):
        stabilizer_index(1)


def test_stabilizer_index_size_guard():
    with pytest.raises(ValueError, match="exceeds the guard 4096"):
        stabilizer_index(4097)


# ---------------------------------------------------------------- ranks


def test_nielsen_schreier_examples():
    assert nielsen_schreier_rank(1, 2) == 2
    assert nielsen_schreier_rank(4, 2) == 5
    assert nielsen_schreier_rank(6, 2) == 7
    assert nielsen_schreier_rank(5, 3) == 11


def test_nielsen_schreier_guards():
    with pytest.raises(ValueError):
        nielsen_schreier_rank(0, 2)
    with pytest.raises(ValueError):
        nielsen_schreier_rank(3, 0)


def test_rank_lower_bound_values():
    assert intersection_rank_lower_bound(2) == 5
    assert intersection_rank_lower_bound(3) == 10
    assert intersection_rank_lower_bound(4) == 9
    for q in range(2, 60):
        assert intersection_rank_lower_bound(q) >= q + 1


# ---------------------------------------------------------------- membership


def test_membership_examples():
    assert membership(DEFAULT_WITNESS, 2)
    assert membership(DEFAULT_WITNESS, 4)
    assert not membership(DEFAULT_WITNESS, 3)
    assert not membership(DEFAULT_WITNESS)
    assert not membership(Word("U"))
    assert membership(EMPTY)


def test_membership_rejects_small_modulus():
    with pytest.raises(ValueError):
        membership(DEFAULT_WITNESS, 1)
    with pytest.raises(ValueError):
        membership(DEFAULT_WITNESS, 0)


def test_membership_matches_translation_oracle():
    rng = random.Random(47)
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    for _ in range(300):
        out = []
        for _ in range(rng.randint(0, 12)):
            out.append(rng.choice([c for c in "UVuv" if not out or c != inverse[out[-1]]]))
        w = Word("".join(out))
        tx, ty = translation_m3(w.text)
        assert membership(w) == ((tx, ty) == (0, 0))
        for q in (2, 3, 5):
            assert membership(w, q) == (tx % q == 0 and ty % q == 0)


def test_k_membership_is_the_origin_stabilizer():
    # an element of H lies in K = <U, V> iff its translation is zero, that
    # is iff it equals its linear part; so H and K meet in the origin
    # stabilizer, here read on the matrix path against the act_ints path
    members = 0
    for w in enumerate_reduced(8):
        in_k = eval_affine(w) == eval_linear(w)
        assert in_k == membership(w), w
        members += in_k
    assert members == 43


def test_membership_of_words_fixing_the_origin_mod_the_sieve_prime():
    # U^m and V^m send the origin to (m(m - 1), m) and (m, m(m - 1)), which
    # are 0 mod m but not 0; so for m the sieve prime the exact walk decides
    for g in "UVuv":
        w = parse(f"{g}^{_SIEVE_PRIME}")
        assert membership(w, _SIEVE_PRIME)
        assert not membership(w)
    w = parse(f"U^{_SIEVE_PRIME} V^{2 * _SIEVE_PRIME} U^-{_SIEVE_PRIME}")
    assert not membership(w)


def test_membership_of_long_words_matches_letterwise_oracle():
    rng = random.Random(53)
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    for length in (50, 300, 1500):
        out = []
        for _ in range(length):
            out.append(rng.choice([c for c in "UVuv" if not out or c != inverse[out[-1]]]))
        w = Word("".join(out))
        assert membership(w) == (act_letterwise(w.text, 0, 0) == (0, 0))
        for q in (2, 7, 199):
            assert membership(w, q) == (act_letterwise(w.text, 0, 0, q) == (0, 0))
    # products of loops at the origin pass the sieve and are walked exactly
    for n in (-30, -3, 2, 17):
        wn = witness_word(n).word
        loop = concat(invert(wn), concat(DEFAULT_WITNESS, wn))
        product = EMPTY
        for _ in range(5):
            product = concat(product, loop)
        assert membership(loop) and membership(product)
        assert not membership(concat(loop, Word("U")))


# ---------------------------------------------------------------- smith normal form


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 2, 0, 0], [0, 0, 2, 0]]) == [2, 2]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[4, 6]]) == [2]


def test_snf_input_guards():
    with pytest.raises(ValueError):
        smith_normal_form([])
    with pytest.raises(ValueError):
        smith_normal_form([[]])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_snf_size_guard():
    with pytest.raises(ValueError, match="17x1 exceeds the guard of 16"):
        smith_normal_form([[1]] * 17)
    with pytest.raises(ValueError, match="1x17 exceeds the guard of 16"):
        smith_normal_form([[1] * 17])
    for big in (10**100, -(10**100)):
        with pytest.raises(ValueError, match="entry exceeds the guard"):
            smith_normal_form([[1, 2], [3, big]])
    # at the bound: 16 x 16, and entries of 100 digits
    assert smith_normal_form([[1] * 16] * 16) == [1]
    top = 10**100 - 1
    assert smith_normal_form([[top, 0], [0, -top]]) == [top, top]


def test_snf_matches_minor_gcd_oracle():
    # about a third of the entries are zero, so zero rows and columns occur,
    # and so do diagonal matrices that are not yet a divisibility chain; the
    # sizes cover those of the oracle-agreement gate (4 x 6, entries in
    # +-50) and of the queries benchmark (3 x 4, +-9), inside the size guard
    rng = random.Random(53)
    for _ in range(300):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        rows = [
            [0 if rng.random() < 1 / 3 else rng.randint(-50, 50) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert smith_normal_form(rows) == determinantal_divisors(rows)


def test_snf_divisibility_chain():
    rng = random.Random(59)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) * rng.choice([1, 2, 6]) for _ in range(5)] for _ in range(3)]
        factors = smith_normal_form(rows)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


# ---------------------------------------------------------------- abelianization


def test_descriptor_validation():
    d = AbelianGroupDescriptor(2, (2, 2))
    assert d.min_generators == 4
    assert AbelianGroupDescriptor(0, ()).min_generators == 0


def test_lattice_relation_matrix_is_q_independent():
    expected = [[0, 2, 0, 0], [0, 0, 2, 0]]
    for q in (2, 3, 10, 97):
        assert lattice_relation_matrix(q) == expected
    with pytest.raises(ValueError):
        lattice_relation_matrix(1)


def test_abelianization_values():
    for q in range(2, 51):
        d = abelianization(q)
        assert d.free_rank == 2
        assert d.torsion == (2, 2)
        assert d.min_generators == 4
