import hashlib
import random
import tracemalloc

import pytest
from oracles import (
    ball_letterwise,
    core_by_stripping,
    mod_q_letterwise,
    schreier_generators_letterwise,
    step_point,
)

from parabolic.action import DEFAULT_WITNESS, ORIGIN, act, act_ints, marked_point, witness_length
from parabolic.linear import Vec2
from parabolic.schreier import (
    NO_EDGE,
    OrbitalGraph,
    build_ball,
    build_mod_q,
    certified_core,
    certified_core_depths,
    check_edge_consistency,
    core_exact,
    export,
    export_dot,
    export_json,
    is_loop_at_base,
    spanning_tree_generators,
    trace,
)
from parabolic.words import Word, enumerate_reduced


def _random_word(rng, length):
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    out = []
    for _ in range(length):
        out.append(rng.choice([c for c in "UVuv" if not out or c != inverse[out[-1]]]))
    return Word("".join(out))


def _none_for_no_edge(column):
    return [None if t == NO_EDGE else t for t in column]


# ---------------------------------------------------------------- mod q


def test_mod_2_graph():
    g = build_mod_q(2)
    assert len(g) == 4
    assert g.modulus == 2 and g.base == 0 and g.fully_complete
    assert list(g.points) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert {c: list(m) for c, m in g.edges.items()} == {
        "U": [1, 0, 3, 2], "V": [2, 3, 0, 1], "u": [1, 0, 3, 2], "v": [2, 3, 0, 1]
    }


def test_mod_3_graph_covers_whole_plane():
    g = build_mod_q(3)
    assert len(g) == 9
    assert all(g.degree(v) == 4 for v in range(len(g)))


def test_orbit_sizes_small_moduli():
    # the orbit is the whole plane for prime q but not for q = 4 or 8
    assert len(build_mod_q(4)) == 8
    assert len(build_mod_q(5)) == 25
    assert len(build_mod_q(8)) == 32


def test_mod_q_rejects_small_modulus():
    with pytest.raises(ValueError):
        build_mod_q(1)


def test_mod_q_size_guard():
    with pytest.raises(ValueError, match="exceeds the guard 2048"):
        build_mod_q(2049)


def test_mod_q_edges_match_action():
    for q in range(2, 21):
        check_edge_consistency(build_mod_q(q))


def test_vertex_id_reduces_mod_q():
    g = build_mod_q(2)
    assert g.vertex_id((-1, 3)) == g.vertex_id((1, 1)) == 3
    assert g.vertex_id((3, -5)) == 3


def test_mod_q_matches_letterwise_bfs():
    # vertex order is part of the output contract, for every q, not only q = 7
    for q in [*range(2, 31), 64, 211, 256]:
        g = build_mod_q(q)
        points, succ_u, succ_v = mod_q_letterwise(q)
        assert list(g.points) == points, q
        assert list(g.edges["U"]) == succ_u, q
        assert list(g.edges["V"]) == succ_v, q


def test_vertex_id_misses_every_point_off_the_orbit():
    # for q = 4, 8, 12 the orbit is half of (Z/q)^2; the other half are -1
    # slots of the dense id table
    for q, missing in ((4, 8), (8, 32), (12, 72)):
        g = build_mod_q(q)
        on = set(g.points)
        off = [(x, y) for x in range(q) for y in range(q) if (x, y) not in on]
        assert len(off) == missing
        assert all(g.vertex_id(p) is None for p in off)
        assert all(g.vertex_id(p) is None for p in ((x + q, y - 3 * q) for x, y in off))
        assert [g.vertex_id(p) for p in g.points] == list(range(len(g)))


def test_vertex_id_takes_a_vec2_as_its_pair():
    # a Vec2 is its (x, y) pair, so it finds the vertex the tuple finds, or
    # none; a mod-q graph reduces either first
    for g in (build_mod_q(7), build_ball(3)):
        for x in range(-3, 9):
            for y in range(-3, 9):
                assert g.vertex_id(Vec2(x, y)) == g.vertex_id((x, y))
        assert g.vertex_id(Vec2(0, 1)) == 1
        # an indexed read of points is a Vec2
        assert all(g.vertex_id(g.points[vid]) == vid for vid in range(len(g)))


# ---------------------------------------------------------------- balls


def test_ball_depth_zero():
    b = build_ball(0)
    assert len(b) == 1
    assert {c: _none_for_no_edge(m) for c, m in b.edges.items()} == {
        "U": [None], "V": [None], "u": [None], "v": [None]
    }
    assert list(map(bool, b.complete)) == [False]
    assert not b.fully_complete


def test_ball_depth_one():
    b = build_ball(1)
    assert list(b.points) == [(0, 0), (0, 1), (1, 0), (2, -1), (-1, 2)]
    assert list(map(bool, b.complete)) == [True, False, False, False, False]
    assert sorted(b.positive_edges()) == [(0, "U", 1), (0, "V", 2), (3, "U", 0), (4, "V", 0)]
    assert _none_for_no_edge(b.edges["u"]) == [3, 0, None, None, None]
    assert _none_for_no_edge(b.edges["v"]) == [4, None, 0, None, None]
    assert b.degree(0) == 4


def test_ball_sizes():
    assert [len(build_ball(d)) for d in range(7)] == [1, 5, 14, 38, 109, 321, 952]


def test_ball_depth_guards():
    with pytest.raises(ValueError):
        build_ball(-1)
    with pytest.raises(ValueError, match="exceeds the guard 13"):
        build_ball(14)


def test_marked_points_first_appear_at_their_witness_length():
    # the graph distance of marked point n from the origin is witness_length(n)
    # for -2 <= n <= 3; this is the range balls of depth <= 10 certify, and
    # nothing is claimed beyond it
    first = {n: witness_length(n) for n in range(-2, 4)}
    assert first == {-2: 5, -1: 1, 0: 1, 1: 1, 2: 1, 3: 5}
    for d in range(11):
        ball = build_ball(d)
        for n in range(-2, 4):
            assert (ball.vertex_id((n, 1 - n)) is not None) == (d >= first[n]), (d, n)
        assert ball.vertex_id((-3, 4)) is None and ball.vertex_id((4, -3)) is None, d


def test_ball_edges_match_action():
    for d in range(9):
        check_edge_consistency(build_ball(d))


def test_ball_matches_letterwise_bfs():
    # the last layer is filled from the layer before it, so every depth is
    # checked, up to a ball of 25k vertices
    for d in range(10):
        b = build_ball(d)
        points, succ_u, succ_v, complete = ball_letterwise(d)
        assert list(b.points) == points
        assert _none_for_no_edge(b.edges["U"]) == succ_u
        assert _none_for_no_edge(b.edges["V"]) == succ_v
        assert list(map(bool, b.complete)) == complete


def test_every_letter_flips_the_parity_of_x_plus_y():
    # U, V, U^-1, V^-1 change x + y by 2y + 1, 2x + 1, 1 - 2y and 1 - 2x,
    # so the orbital graph is bipartite: build_ball reads its last layer off
    # the layer before it on that ground
    for c in "UVuv":
        for x in range(-3, 4):
            for y in range(-3, 4):
                nx, ny = step_point(c, x, y)
                assert (nx + ny - x - y) % 2 == 1, (c, x, y)
    b = build_ball(9)
    parity = [(x + y) % 2 for x, y in b.points]
    for c, column in b.edges.items():
        for src, tgt in enumerate(column):
            assert tgt < 0 or parity[src] != parity[tgt], (src, c, tgt)


def test_marked_point_graph_distances():
    # the line points sit ever deeper: P(-1)..P(2) at distance 1,
    # P(-2) and P(3) at distance 5, P(-3) and P(4) at distance 11
    balls = {d: build_ball(d) for d in (1, 4, 5, 10, 11)}

    def distance_known(n):
        p = marked_point(n).point
        return next((d for d in sorted(balls) if balls[d].vertex_id(p) is not None), None)

    for n in (-1, 0, 1, 2):
        assert distance_known(n) == 1
    for n in (-2, 3):
        assert distance_known(n) == 5
    for n in (-3, 4):
        assert distance_known(n) == 11


# ---------------------------------------------------------------- walks


def test_trace_follows_action():
    g = build_mod_q(5)
    b = build_ball(6)
    for w in enumerate_reduced(5):
        assert g.points[trace(g, w, g.base)] == act_ints(w, 0, 0, 5)
        t = trace(b, w, b.base)
        if t is not None:
            assert b.points[t] == act(w, ORIGIN)


def _partial_path():
    # 2 -U-> 0 -U-> 1: vertex 1 has no U-edge, and read as index -1 a missing
    # edge would be the last vertex, 2; no vertex is complete
    return OrbitalGraph([(0, 0), (1, 0), (2, 0)], [1, None, 0], [None] * 3, [False] * 3)


def test_readers_skip_missing_edges():
    g = _partial_path()
    assert trace(g, Word("UU"), 0) is None
    assert trace(g, Word("UU"), 2) == 1
    assert [g.degree(v) for v in range(3)] == [2, 1, 1]
    assert g.positive_edges() == [(0, "U", 1), (2, "U", 0)]
    assert _none_for_no_edge(g.edges["u"]) == [2, 0, None]


def test_connectivity_check_skips_missing_edges():
    # vertex 2 has no edge at all, so it is cut off from the base; a missing
    # edge makes no vertex a neighbour
    with pytest.raises(ValueError, match="vertex 2 has no neighbour with a smaller id"):
        OrbitalGraph([(0, 0), (1, 0), (2, 0)], [1, None, None], [None] * 3, [False] * 3)


def test_connected_graph_numbered_out_of_search_order():
    # 0 -U-> 2 -U-> 1 is connected, but vertex 1's only neighbour is 2
    pts = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(ValueError, match="vertex 1 has no neighbour with a smaller id"):
        OrbitalGraph(pts, [2, None, 1], [None] * 3, [False] * 3)
    # the base is vertex 0; there is no option to move it
    with pytest.raises(TypeError):
        OrbitalGraph(pts, [2, None, 1], [None] * 3, [True] * 3, base=1)
    # connected as 0 - 3 - 1 - 2, but both neighbours of vertex 1 are larger
    with pytest.raises(ValueError, match="vertex 1 has no neighbour"):
        OrbitalGraph(
            [(i, 0) for i in range(4)], [None, 2, None, 0], [None, 3, None, None], [False] * 4
        )
    # the same path numbered in search order is accepted
    g = OrbitalGraph([(0, 0), (2, 0), (1, 0)], [1, 2, None], [None] * 3, [False] * 3)
    assert trace(g, Word("UU"), 0) == 2 and g.base == 0


def test_base_is_vertex_0_and_read_only():
    for g in (build_mod_q(3), build_ball(2), _partial_path()):
        assert g.base == 0 and g.points[0] == (0, 0)
        with pytest.raises(AttributeError):
            g.base = 1


def test_trace_leaving_region_returns_none():
    b = build_ball(2)
    assert trace(b, Word("UUU"), b.base) is None
    with pytest.raises(ValueError):
        trace(b, Word("U"), 99)


def test_is_loop_at_base():
    assert is_loop_at_base(build_mod_q(2), DEFAULT_WITNESS)
    assert is_loop_at_base(build_mod_q(4), DEFAULT_WITNESS)
    assert not is_loop_at_base(build_mod_q(3), DEFAULT_WITNESS)
    assert not is_loop_at_base(build_mod_q(2), Word("U"))


def test_is_loop_rejects_partial_graph():
    with pytest.raises(ValueError):
        is_loop_at_base(build_ball(3), DEFAULT_WITNESS)


def test_loops_agree_with_translation_divisibility():
    rng = random.Random(41)
    graphs = {q: build_mod_q(q) for q in (2, 3, 4, 5, 7)}
    for _ in range(200):
        w = _random_word(rng, rng.randint(1, 15))
        c = act(w, ORIGIN)
        for q, g in graphs.items():
            assert is_loop_at_base(g, w) == (c.x % q == 0 and c.y % q == 0)


# ---------------------------------------------------------------- cores


def test_complete_graph_refuses_pendant_vertex():
    # a U-triangle with vertex 3 hanging off vertex 2 by a V-edge
    pts = [(i, 0) for i in range(4)]
    succ_u, succ_v = [1, 2, 0, None], [None, None, 3, None]
    with pytest.raises(ValueError, match="vertex 3 has no U-edge in a fully complete graph"):
        OrbitalGraph(pts, succ_u, succ_v, [True] * 4)
    # flagged incomplete, the pendant is a partial graph, which core_exact refuses
    g = OrbitalGraph(pts, succ_u, succ_v, [True, True, True, False])
    with pytest.raises(ValueError, match="needs a fully complete graph"):
        core_exact(g)


def test_core_exact_self_loop_survives():
    g = OrbitalGraph([(0, 0)], [0], [0], [True])
    assert core_exact(g).core_vertices == frozenset({0})
    with pytest.raises(ValueError, match="vertex 0 has no V-edge"):
        OrbitalGraph([(0, 0)], [0], [None], [True])


def test_complete_graph_refuses_isolated_vertex():
    with pytest.raises(ValueError, match="vertex 0 has no U-edge"):
        OrbitalGraph([(0, 0)], [None], [None], [True])
    with pytest.raises(ValueError, match="vertex 1 has no U-edge"):
        OrbitalGraph([(0, 0), (1, 0)], [0, None], [0, None], [True, True])


def _random_complete_graph(rng, n):
    """U and V successors of a random complete folded graph: random
    permutations of range(n) for U and V, cut to the orbit of 0 and
    relabelled in breadth-first order from 0 (letters U, V, u, v)."""
    perms = {c: rng.sample(range(n), n) for c in "UV"}
    inverse = {c.lower(): [0] * n for c in "UV"}
    for c, perm in perms.items():
        for a, b in enumerate(perm):
            inverse[c.lower()][b] = a
    maps = [perms["U"], perms["V"], inverse["u"], inverse["v"]]
    new_id = {0: 0}
    order = [0]
    for a in order:
        for m in maps:
            if m[a] not in new_id:
                new_id[m[a]] = len(order)
                order.append(m[a])
    succ_u = [new_id[perms["U"][a]] for a in order]
    succ_v = [new_id[perms["V"][a]] for a in order]
    return len(order), succ_u, succ_v


def _positive_edge_list(g):
    return [(a, b) for c in "UV" for a, b in enumerate(g.edges[c]) if b != NO_EDGE]


def test_core_exact_matches_stripping_oracle_on_random_graphs():
    rng = random.Random(2027)
    sizes = set()
    for _ in range(300):
        n, succ_u, succ_v = _random_complete_graph(rng, rng.randint(1, 40))
        g = OrbitalGraph([(i, 0) for i in range(n)], succ_u, succ_v, [True] * n)
        assert core_exact(g).core_vertices == core_by_stripping(n, _positive_edge_list(g))
        sizes.add(n)
    # the orbits of 0 range from a bouquet of self-loops to large ones
    assert 1 in sizes and max(sizes) > 30


def test_core_exact_matches_stripping_oracle_mod_q():
    for q in range(2, 41):
        g = build_mod_q(q)
        assert core_exact(g).core_vertices == core_by_stripping(len(g), _positive_edge_list(g))


def test_core_exact_requires_complete_graph():
    with pytest.raises(ValueError):
        core_exact(build_ball(3))


def test_fully_complete_flag_matches_vertex_flags():
    # only the last vertex is incomplete, so a flag read off one vertex fails
    partial = OrbitalGraph([(0, 0), (1, 0)], [1, 0], [None, None], [True, False])
    for g in (build_ball(4), build_mod_q(6), build_mod_q(8), partial):
        assert g.fully_complete == all(g.complete)
    assert build_mod_q(6).fully_complete and not partial.fully_complete
    with pytest.raises(ValueError):
        is_loop_at_base(partial, Word("U"))
    with pytest.raises(ValueError):
        core_exact(partial)


def test_core_exact_mod_q_is_everything():
    # every vertex of the orbit graph has degree 4, nothing prunes
    for q in (2, 3, 4, 5):
        g = build_mod_q(q)
        rep = core_exact(g)
        assert rep.kind == "exact"
        assert rep.core_vertices == frozenset(range(len(g)))


def test_certified_core_frozen_counts():
    counts = []
    for d in range(2, 13):
        rep = certified_core(build_ball(d), DEFAULT_WITNESS)
        assert rep.kind == "certified-lower-bound"
        counts.append(len(rep.core_vertices))
    assert counts == [0, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6]


def test_certified_core_points_sit_on_the_line():
    b = build_ball(7)
    rep = certified_core(b, DEFAULT_WITNESS)
    pts = sorted(b.points[v] for v in rep.core_vertices)
    assert pts == [(-2, 3), (-1, 2), (0, 1), (1, 0), (2, -1), (3, -2)]
    for n in (0, 1):
        p = marked_point(n).point
        assert b.vertex_id(p) in rep.core_vertices


def test_certified_core_monotone_in_depth():
    prev: frozenset[int] = frozenset()
    prev_pts: set[tuple[int, int]] = set()
    for d in range(2, 13):
        b = build_ball(d)
        pts = {b.points[v] for v in certified_core(b, DEFAULT_WITNESS).core_vertices}
        assert prev_pts <= pts
        prev_pts = pts


def test_certified_core_is_subset_of_exact_core():
    for q in (2, 3, 4, 5, 6):
        g = build_mod_q(q)
        assert certified_core(g, DEFAULT_WITNESS).core_vertices <= core_exact(g).core_vertices


def test_certified_core_useless_witness():
    rep = certified_core(build_ball(6), Word("U"))
    assert rep.core_vertices == frozenset()


def test_certified_core_rejects_empty_witness():
    with pytest.raises(ValueError):
        certified_core(build_ball(3), Word(""))


# witnesses whose certified vertices first appear at one, two and four depths
_DEPTH_WITNESSES = (Word("uVUv"), DEFAULT_WITNESS, Word("VVuVuv"))


def test_certified_core_depths_match_every_smaller_ball():
    balls = [build_ball(d) for d in range(10)]
    for w in _DEPTH_WITNESSES:
        for top, ball in enumerate(balls):
            first = certified_core_depths(ball, top, w)
            for d in range(top + 1):
                expected = certified_core(balls[d], w).core_vertices
                assert {v for v, k in first.items() if k <= d} == expected, (w, top, d)
    # the cores read off ball(9) grow at four distinct depths
    assert sorted({*certified_core_depths(balls[9], 9, Word("VVuVuv")).values()}) == [3, 4, 7, 8]


def test_ball_is_an_id_prefix_of_every_deeper_ball():
    # the rule certified_core_depths relies on: ball(d) is the first n_d
    # vertices of ball(D) with the edges between them, and a vertex is
    # complete in ball(d) iff it and its four neighbours have ids below n_d
    balls = [build_ball(d) for d in range(9)]
    for big in balls:
        n = len(big)
        cols = [big.edges[c] for c in "UVuv"]
        mx = [max(v, *[col[v] for col in cols]) if big.complete[v] else n for v in range(n)]
        for small in balls:
            k = len(small)
            if k > n:
                break
            assert list(small.points) == list(big.points)[:k]
            for c in "UVuv":
                assert list(small.edges[c]) == [t if t < k else NO_EDGE for t in big.edges[c][:k]]
            assert list(small.complete) == [int(m < k) for m in mx[:k]]


def test_certified_core_depths_refuses_other_graphs():
    ball = build_ball(6)
    for depth in (-1, 0, 5, 7):
        with pytest.raises(ValueError, match="is not the ball of depth"):
            certified_core_depths(ball, depth, DEFAULT_WITNESS)
    # a graph as large as ball(6) whose vertex 1 is incomplete
    tampered = OrbitalGraph(
        list(ball.points),
        _none_for_no_edge(ball.edges["U"]),
        _none_for_no_edge(ball.edges["V"]),
        [v != 1 and c for v, c in enumerate(ball.complete)],
    )
    with pytest.raises(ValueError, match="is not the ball of depth 6"):
        certified_core_depths(tampered, 6, DEFAULT_WITNESS)
    with pytest.raises(ValueError, match="nonempty witness"):
        certified_core_depths(ball, 6, Word(""))
    assert certified_core_depths(build_ball(0), 0, DEFAULT_WITNESS) == {}


# ---------------------------------------------------------------- schreier generators


def test_spanning_tree_generators_mod_2():
    gens = spanning_tree_generators(build_mod_q(2))
    assert [w.text for w in gens] == ["UU", "uvUV", "VV", "vUVU", "uVVU"]


def test_spanning_tree_generator_count_is_index_plus_one():
    for q in range(2, 13):
        g = build_mod_q(q)
        assert len(spanning_tree_generators(g)) == len(g) + 1


def test_spanning_tree_generators_are_loops():
    for q in (2, 3, 4, 5, 9):
        g = build_mod_q(q)
        for w in spanning_tree_generators(g):
            assert not w.is_identity()
            assert is_loop_at_base(g, w)
            c = act(w, ORIGIN)
            assert c.x % q == 0 and c.y % q == 0


def test_spanning_tree_generators_match_letterwise_assembly():
    for q in [*range(2, 31), 31, 40, 50]:
        g = build_mod_q(q)
        gens = spanning_tree_generators(g)
        expected = [Word(t) for t in schreier_generators_letterwise(g.edges, g.base)]
        # Word equality compares syllables, so an unmerged junction fails here
        assert gens == expected, q
        assert [len(w) for w in gens] == [len(w) for w in expected], q


def test_spanning_tree_generators_bouquet():
    g = OrbitalGraph([(0, 0)], [0], [0], [True])
    assert [w.text for w in spanning_tree_generators(g)] == ["U", "V"]


def test_spanning_tree_requires_complete_graph():
    with pytest.raises(ValueError):
        spanning_tree_generators(build_ball(2))


# ---------------------------------------------------------------- construction guards


def test_graph_rejects_bad_shapes():
    v = [(0, 0), (1, 1)]
    with pytest.raises(ValueError):
        OrbitalGraph(v, [None], [None], [True, True])
    with pytest.raises(ValueError):
        OrbitalGraph(v, [1, 0], [None], [True, True])
    with pytest.raises(ValueError, match="target 5 out of range"):
        OrbitalGraph(v, [5, 0], [None, None], [True, True])
    with pytest.raises(ValueError, match="target -1 out of range"):
        OrbitalGraph(v, [1, 0], [None, -1], [True, True])
    with pytest.raises(ValueError, match="duplicate vertex points"):
        OrbitalGraph([(0, 0), (0, 0)], [1, 0], [None, None], [False, False])


def test_ball_hands_its_index_to_the_graph():
    ball = build_ball(5)
    assert type(ball._index) is dict
    assert list(ball._index.values()) == list(range(len(ball)))
    assert all(ball.vertex_id(p) == i for i, p in enumerate(ball.points))
    path = ([1, None], [None, None], [False, False])
    assert OrbitalGraph({(0, 0): 0, (0, 1): 1}, *path).vertex_id((0, 1)) == 1
    for bad in ({(0, 0): 0, (0, 1): 2}, {(0, 1): 1, (0, 0): 0}, {(0, 0): 1, (0, 1): 0}):
        with pytest.raises(ValueError, match="must number its points 0..n-1 in order"):
            OrbitalGraph(bad, *path)
    with pytest.raises(ValueError, match="must number its points 0..n-1 in order"):
        OrbitalGraph({(0, 0): 0, (0, 1): 1}, *path, modulus=3)


def test_graph_refuses_empty_graph():
    with pytest.raises(ValueError, match="needs its base vertex 0"):
        OrbitalGraph([], [], [], [])
    with pytest.raises(ValueError, match="needs its base vertex 0"):
        OrbitalGraph([], [], [], [], modulus=3)


def test_graph_rejects_wrong_vertex_modulus():
    with pytest.raises(ValueError, match="not reduced mod 3"):
        OrbitalGraph([(0, 0), (3, 1)], [1, 0], [None, None], [True, True], modulus=3)
    with pytest.raises(ValueError, match="not reduced mod 3"):
        OrbitalGraph([(0, 0), (1, -1)], [1, 0], [None, None], [True, True], modulus=3)


def test_graph_refuses_points_other_than_pairs():
    for bad, modulus in (([0, 0], None), ([0, 0], 3), ((0, 0, 0), None)):
        with pytest.raises(ValueError, match="not an"):
            OrbitalGraph([bad], [None], [None], [True], modulus=modulus)
    # a Vec2 is a pair: a graph of Vec2 points is the graph of their tuples
    for modulus in (None, 3):
        g = OrbitalGraph([Vec2(0, 0), (1, 2)], [1, 0], [None] * 2, [False] * 2, modulus=modulus)
        assert list(g.points) == [(0, 0), (1, 2)]
        assert g.vertex_id((0, 0)) == 0 and g.vertex_id(Vec2(1, 2)) == 1


def test_graph_refuses_modulus_past_the_guard():
    # the q^2 id table is never allocated for such a modulus
    with pytest.raises(ValueError, match="exceeds the guard 2048"):
        OrbitalGraph([(0, 0)], [None], [None], [True], modulus=10**9)


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="vertex 1 has no neighbour"):
        OrbitalGraph([(0, 0), (1, 1)], [None, None], [None, None], [False, False])


def test_graph_rejects_unfolded():
    pts = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(ValueError, match="two U-edges enter vertex 2"):
        OrbitalGraph(pts, [2, 2, None], [None, None, None], [True] * 3)
    with pytest.raises(ValueError, match="two V-edges enter vertex 2"):
        OrbitalGraph(pts, [None, None, None], [2, 2, None], [True] * 3)


# ---------------------------------------------------------------- memory


@pytest.mark.parametrize("build, arg, budget", [(build_ball, 9, 300), (build_mod_q, 211, 240)])
def test_build_peak_bytes_per_vertex(build, arg, budget):
    tracemalloc.start()
    try:
        g = build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(g) < budget


@pytest.mark.parametrize("build, arg, budget", [(build_ball, 9, 240), (build_mod_q, 211, 48)])
def test_retained_bytes_per_vertex(build, arg, budget):
    # a mod-q graph is int columns and its id table; a ball adds its dict of
    # point tuples
    tracemalloc.start()
    try:
        g = build(arg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(g) < budget


def test_vertex_reads_keep_no_vec2():
    # build_ball(9) has about 25k vertices; a kept Vec2 list would be about 2 MB
    b = build_ball(9)
    tracemalloc.start()
    try:
        for i in range(len(b.vertices)):
            assert (b.vertices[i].x, b.vertices[i].y) == b.points[i]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_vertices_is_an_indexed_view():
    g = build_mod_q(7)
    assert len(g.vertices) == len(g)
    assert g.vertices is g.points and type(g.vertices[1]) is Vec2
    # iteration yields the plain pairs the exports unpack
    assert {type(p) for p in g.points} == {tuple}
    with pytest.raises(TypeError):
        g.vertices[0:2]


# ---------------------------------------------------------------- export


@pytest.mark.parametrize(
    "build, digest",
    [
        (
            lambda: export_json(build_mod_q(7)),
            "a9eb0c633431a469e98b636a08e17d6dcfa2e9111277fee693d65fde898b8afa",
        ),
        (
            lambda: export_dot(build_ball(4)),
            "cb9b2f5c9baae567feb540bd96d6a480a346c33661f1a736b750587c29cedbc8",
        ),
        (
            lambda: export_json(build_ball(3)),
            "921945057801b93c34a8f2ac202288766aa81502c6d14a31629212310d8baa1e",
        ),
        (
            lambda: export_json(build_ball(9)),
            "801affb21414593dd209e3f34aa6bcab63602ab2d8b162d2be1f2fc1952adbb2",
        ),
        (
            lambda: export_json(build_mod_q(64)),
            "ff1584a0dcd15d0994b028203bdbcb7559630be5c7ae1e19208d8bfc34de9951",
        ),
        (
            lambda: export_json(build_mod_q(211)),
            "0db7f27d306bc8fba6fe5c8db2f807b2b85cd9e11599d023a870bf3841f96e10",
        ),
    ],
    ids=["json-mod-7", "dot-ball-4", "json-ball-3", "json-ball-9", "json-mod-64", "json-mod-211"],
)
def test_export_bytes_are_pinned(build, digest):
    # vertex ids and edge order are part of the output contract
    assert hashlib.sha256(build().encode()).hexdigest() == digest


def test_dot_output_shape():
    dot = export_dot(build_ball(1))
    assert dot.startswith("digraph orbital {")
    assert dot.count("style=dashed") == 4
    assert dot.count("peripheries=2") == 1
    assert dot.count("->") == 4
    assert dot.endswith("}\n")


def test_export_dispatch():
    g = build_mod_q(2)
    assert export(g, "dot") == export_dot(g)
    assert export(g, "json") == export_json(g)
    with pytest.raises(ValueError):
        export(g, "svg")


def test_edge_consistency_catches_tampering():
    g = build_mod_q(2)
    bad = list(g.edges["U"])
    # U-loops at vertices 2 and 3 instead of the U-edges between them; each
    # still has a V-edge to a smaller vertex, so the graph stays in search
    # order and fully complete, and only the audit sees the wrong edges
    bad[2], bad[3] = bad[3], bad[2]
    h = OrbitalGraph(g.points, bad, g.edges["V"], g.complete, modulus=2)
    assert h.fully_complete
    with pytest.raises(AssertionError, match="edge 2 -U-> 2 disagrees"):
        check_edge_consistency(h)


def test_edge_consistency_audits_the_inverse_columns():
    # the last layer's edges are written from the inverse side, so a wrong
    # u entry of a last-layer vertex must be caught as well
    g = build_ball(4)
    check_edge_consistency(g)
    inner = len(build_ball(3))
    vid = next(v for v in range(inner, len(g)) if g.edges["u"][v] >= 0)
    # the base lies at distance 4 from every last-layer vertex
    g.edges["u"][vid] = 0
    with pytest.raises(AssertionError, match=f"edge {vid} -u-> 0 disagrees"):
        check_edge_consistency(g)
