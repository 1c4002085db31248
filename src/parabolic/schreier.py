"""Orbital Schreier graphs of the affine action, exact and partial.

Vertices are points of an orbit, numbered in search order from the base, 0:
every vertex but 0 has a neighbour with a smaller id, so the graph is
connected.  A graph is stored in flat int columns, as with the per-letter
arrays of Kapovich-Myasnikov, J. Algebra 248 (2002): edges["U"][v] and
edges["V"][v] are where the generators lead from v, and edges["u"] and
edges["v"] are their inverse maps, so an inverse letter walks an edge
backwards.  Each is an array('i') with NO_EDGE (-1) for
a missing edge, so every reader tests `< 0` before it indexes.  The points
are two array('i') columns, xs and ys, and `complete` is a bytearray.  A
mod-q graph finds a point through a dense table of q^2 ids keyed by
x * q + y (-1 off the orbit); a ball keeps a dict keyed by (x, y) tuples.
Points are (x, y) pairs in and out, tuples or Vec2 alike: the constructor
and `vertex_id` take either, and `points` is a read-only view making one
Vec2 per indexed read, residues on a mod-q graph, and yielding plain tuples
when iterated; `vertices` is another name for it.  Exports list the
positive (U, V) edges only.  Two builders are provided: the full orbit of
(0, 0) modulo q, and the exact ball of given radius around (0, 0) in the
infinite orbit.  A vertex of a partial graph is flagged complete when all
four of its neighbours lie in the explored region, which is what core
certification relies on; a graph whose vertices are all flagged complete
has every edge.
"""

from __future__ import annotations

import json
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat

from .action import step
from .linear import Vec2
from .words import Word

NO_EDGE = -1

_GEN_CHARS = ("U", "V")
_MAX_BALL_DEPTH = 13
_MAX_GRAPH_MODULUS = 2048

_DOT_COLORS = {"U": "#1f77b4", "V": "#d62728"}

# bytes.translate table from a count of edges met to a complete flag:
# 4 -> 1, anything else -> 0
_MET_FOUR_TIMES = bytes(i == 4 for i in range(256))


class _PointView:
    """Read-only view of a graph's points: len, an indexed read makes one
    Vec2 and keeps none, and iteration yields plain (x, y) tuples."""

    __slots__ = ("_xs", "_ys")

    def __init__(self, xs: array, ys: array):
        self._xs = xs
        self._ys = ys

    def __len__(self) -> int:
        return len(self._xs)

    def __getitem__(self, vid: int) -> Vec2:
        i = operator.index(vid)
        return Vec2(self._xs[i], self._ys[i])

    def __iter__(self):
        return zip(self._xs, self._ys)


def _columns(points, modulus: int | None) -> tuple[array, array]:
    """The points as xs and ys columns.  Each must be an (x, y) pair, a tuple
    or a Vec2, and a point of a mod-q graph must lie in [0, q)^2.  A
    _PointView hands over its columns as they are."""
    if type(points) is _PointView:
        xs, ys = points._xs, points._ys
    else:
        if not ({*map(type, points)} <= {tuple, Vec2} and {*map(len, points)} <= {2}):
            bad = next(p for p in points if type(p) not in (tuple, Vec2) or len(p) != 2)
            raise ValueError(f"point {bad!r} is not an (x, y) pair")
        # a letter takes m = max(|x|, |y|) to at most 3m + 2, so m + 1 at
        # most triples and a ball point has |x|, |y| <= 3^depth - 1; at
        # depth 13 that is 1,594,322, far below 2^31.  Past 32 bits array
        # raises OverflowError rather than wrapping.
        xs = array("i", map(operator.itemgetter(0), points))
        ys = array("i", map(operator.itemgetter(1), points))
    if modulus is not None and not (
        0 <= min(xs) and max(xs) < modulus and 0 <= min(ys) and max(ys) < modulus
    ):
        x, y = next(p for p in zip(xs, ys) if not (0 <= p[0] < modulus and 0 <= p[1] < modulus))
        raise ValueError(f"point ({x}, {y}) is not reduced mod {modulus}")
    return xs, ys


def _with_inverse(succ, n: int, gen: str, has_lower: bytearray) -> tuple[array, array, int]:
    """succ as an edge column, its inverse column and the count of missing
    edges, in one pass that refuses a target out of range and a second edge
    into one vertex.  It also sets has_lower[v] for the larger end v of
    every edge that is not a self-loop."""
    fwd = array("i", [NO_EDGE]) * n
    back = array("i", [NO_EDGE]) * n
    missing = 0
    for src, tgt in enumerate(succ):
        if tgt is None:
            missing += 1
            continue
        if not 0 <= tgt < n:
            raise ValueError(f"edge target {tgt} out of range")
        if back[tgt] >= 0:
            raise ValueError(f"two {gen}-edges enter vertex {tgt}; graph is not folded")
        back[tgt] = src
        fwd[src] = tgt
        if src < tgt:
            has_lower[tgt] = 1
        elif tgt < src:
            has_lower[src] = 1
    return fwd, back, missing


class OrbitalGraph:
    """Immutable labeled graph: edges[c][v] is where letter c leads from v,
    or NO_EDGE.  Only the U and V successors are passed in, as sequences with
    None for a missing edge, and u and v are filled as their inverses; per
    generator each vertex has at most one outgoing and one incoming edge, as
    in a folded Stallings graph.  points are (x, y) pairs in and out.
    build_ball alone passes a dict as points, its own point -> id index in
    discovery order, which the graph keeps instead of building another.

    Vertex 0 is the base, and vertices are numbered in search order: every
    vertex but 0 must have a neighbour with a smaller id, which makes the
    graph connected.  When every vertex is flagged complete, every vertex
    must have a U-edge and a V-edge; folding then makes u and v total too.
    """

    __slots__ = ("points", "modulus", "complete", "fully_complete", "edges", "_index")

    base = 0

    def __init__(self, points, succ_u, succ_v, complete, modulus: int | None = None):
        n = len(points)
        if not (len(succ_u) == len(succ_v) == len(complete) == n):
            raise ValueError("points, succ_u, succ_v and complete must have equal length")
        if n == 0:
            raise ValueError("a graph needs its base vertex 0")
        if modulus is not None and modulus > _MAX_GRAPH_MODULUS:
            raise ValueError(f"modulus {modulus} exceeds the guard {_MAX_GRAPH_MODULUS}")
        xs, ys = _columns(points, modulus)
        has_lower = bytearray(n)
        fwd_u, back_u, missing_u = _with_inverse(succ_u, n, "U", has_lower)
        fwd_v, back_v, missing_v = _with_inverse(succ_v, n, "V", has_lower)
        self.complete = bytearray(map(bool, complete))
        # read by every loop query, so computed once here, not per call
        self.fully_complete = 0 not in self.complete
        if self.fully_complete and (missing_u or missing_v):
            gen, succ = ("U", succ_u) if missing_u else ("V", succ_v)
            vid = list(succ).index(None)
            raise ValueError(f"vertex {vid} has no {gen}-edge in a fully complete graph")
        # a vertex with a smaller neighbour reaches 0 by induction
        vid = has_lower.find(0, 1)
        if vid >= 0:
            raise ValueError(
                f"vertex {vid} has no neighbour with a smaller id; vertices must be"
                " numbered in search order from 0"
            )
        self.points = _PointView(xs, ys)
        self.edges = {"U": fwd_u, "V": fwd_v, "u": back_u, "v": back_v}
        self.modulus = modulus
        if type(points) is dict:
            # build_ball's own index: its keys are the points, so they are
            # distinct, and it is kept once its ids are checked to number
            # them 0..n-1 in insertion order
            if modulus is not None or not all(map(operator.eq, points.values(), range(n))):
                raise ValueError("a point index must number its points 0..n-1 in order")
            self._index = points
        elif modulus is None:
            # keyed by the caller's own pairs, one kept per point
            self._index = dict(zip(points, range(n)))
            if len(self._index) != n:
                raise ValueError("duplicate vertex points")
        else:
            # id of the point x * q + y, or -1 off the orbit
            self._index = index = array("i", [-1]) * (modulus * modulus)
            for vid, x, y in zip(range(n), xs, ys):
                code = x * modulus + y
                if index[code] >= 0:
                    raise ValueError("duplicate vertex points")
                index[code] = vid

    @property
    def vertices(self) -> _PointView:
        """Another name for points, which bench/workload_graphs.py reads."""
        return self.points

    def __len__(self) -> int:
        return len(self.points)

    def vertex_id(self, point: tuple[int, int]) -> int | None:
        """Id of the point (x, y), a tuple or a Vec2, reduced mod q on a mod-q
        graph; None if the point is not a vertex."""
        x, y = point
        q = self.modulus
        if q is None:
            return self._index.get((x, y))
        vid = self._index[x % q * q + y % q]
        return None if vid < 0 else vid

    def degree(self, vid: int) -> int:
        return sum(m[vid] >= 0 for m in self.edges.values())

    def positive_edges(self) -> list[tuple[int, str, int]]:
        return [
            (src, c, t)
            for src in range(len(self.points))
            for c in _GEN_CHARS
            if (t := self.edges[c][src]) >= 0
        ]


def _orbit_mod_q(q: int) -> tuple[_PointView, list[int], list[int]]:
    """Breadth-first closure of the orbit of (0, 0) mod q.

    Returns (points in discovery order, U-successor ids, V-successor ids);
    the points are a view over int columns, so no tuple is made per vertex.
    Neighbours are visited in letter order U, V, U^-1, V^-1, and that
    discovery order fixes the vertex ids of build_mod_q.  Orbit sizes alone
    come from ranks.stabilizer_index.  Raises ValueError for
    q > _MAX_GRAPH_MODULUS before the q*q id table is allocated; at the
    guard the table has 2^22 slots.

    The search keeps each point only as its code x * q + y, in discovery
    order, and the xs and ys columns are decoded from those codes once,
    after it, as code // q and code % q.  Each letter moves one coordinate
    by +-1 and the other by an amount that depends on the first alone, so
    its code comes from two tables indexed by that coordinate: for U, adding
    u_shift[y] = 2y * q and reducing mod q^2 moves x to x + 2y mod q, and
    adding u_step[y] = (y + 1) mod q - y then moves y to y + 1 mod q; for V,
    v_row[x] = (x + 1 mod q) * q is the new row and y + v_shift[x] = y + 2x,
    reduced mod q, the new column.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if q > _MAX_GRAPH_MODULUS:
        raise ValueError(f"q {q} exceeds the guard {_MAX_GRAPH_MODULUS}")
    qq = q * q
    u_shift = [2 * y * q for y in range(q)]
    u_step = [(y + 1) % q - y for y in range(q)]
    back_u_shift = [(2 - 2 * y) * q % qq for y in range(q)]
    back_u_step = [(y - 1) % q - y for y in range(q)]
    v_row = [(x + 1) % q * q for x in range(q)]
    v_shift = [2 * x % q for x in range(q)]
    back_v_row = [(x - 1) % q * q for x in range(q)]
    back_v_shift = [(2 - 2 * x) % q for x in range(q)]
    # lists during the search, as CPython indexes them fastest; order grows
    # while it is read, and the read reaches every point appended
    ids = [-1] * qq
    ids[0] = 0
    order = [0]
    succ_u: list[int] = []
    succ_v: list[int] = []
    for code in order:
        y = code % q
        x = code // q
        a = (code + u_shift[y]) % qq + u_step[y]
        b = v_row[x] + (y + v_shift[x]) % q
        c = (code + back_u_shift[y]) % qq + back_u_step[y]
        d = back_v_row[x] + (y + back_v_shift[x]) % q
        t = ids[a]
        if t < 0:
            t = ids[a] = len(order)
            order.append(a)
        succ_u.append(t)
        t = ids[b]
        if t < 0:
            t = ids[b] = len(order)
            order.append(b)
        succ_v.append(t)
        if ids[c] < 0:
            ids[c] = len(order)
            order.append(c)
        if ids[d] < 0:
            ids[d] = len(order)
            order.append(d)
    # the constructor builds its own id table, so this one goes first, to
    # lower the peak
    del ids
    xs = array("i", map(operator.floordiv, order, repeat(q)))
    ys = array("i", map(operator.mod, order, repeat(q)))
    return _PointView(xs, ys), succ_u, succ_v


def build_mod_q(q: int) -> OrbitalGraph:
    """Orbital graph of the action on (Z/qZ)^2, complete by construction."""
    points, succ_u, succ_v = _orbit_mod_q(q)
    return OrbitalGraph(points, succ_u, succ_v, b"\x01" * len(points), modulus=q)


def build_ball(depth: int) -> OrbitalGraph:
    """Every orbit point within graph distance `depth` of (0, 0), exactly.

    Edges are recorded whenever both endpoints were explored; a vertex is
    complete iff all four neighbours were explored.

    Every letter changes x + y by an odd amount: U by 2y + 1, V by 2x + 1,
    U^-1 by 1 - 2y and V^-1 by 1 - 2x.  So the orbital graph is bipartite
    and no edge joins two points of one distance layer: each edge of the
    last layer leads back into the layer before it.  The search of that
    layer keeps the ids of all four neighbours of each point, and the last
    layer's edges and complete flags are read off them, with no lookup of
    their own; a last-layer vertex is complete iff four such edges meet it.
    The last layer is about two thirds of the ball.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > _MAX_BALL_DEPTH:
        raise ValueError(f"depth {depth} exceeds the guard {_MAX_BALL_DEPTH}")
    index = {(0, 0): 0}
    add = index.setdefault
    succ_u: list[int | None] = []
    succ_v: list[int | None] = []
    # points are read in discovery order, one distance layer at a time from
    # its first id; each layer before the last adds all four neighbours
    # (letter order U, V, U^-1, V^-1), so its vertices are complete and by
    # the time the last layer is reached every point of the ball is known.
    # setdefault gives a neighbour's id, numbering it next when it is new;
    # back_u and back_v keep the U^-1 and V^-1 ids of the layer searched,
    # and stay empty at depth 0.
    first = 0
    back_u = back_v = array("i")
    for _ in range(depth):
        first = len(succ_u)
        back_u = array("i")
        back_v = array("i")
        for x, y in list(islice(index, first, None)):
            succ_u.append(add((x + 2 * y, y + 1), len(index)))
            succ_v.append(add((x + 1, 2 * x + y), len(index)))
            back_u.append(add((x - 2 * y + 2, y - 1), len(index)))
            back_v.append(add((x - 1, y - 2 * x + 2), len(index)))
    # layer depth - 1 has the ids first..last-1.  A last-layer edge
    # t -U-> s is found there as U^-1(s) = t, and likewise for V; for an
    # inner t that is the edge already stored.  met counts the edges of
    # layer depth - 1 meeting each vertex.  The writes go to the layers on
    # either side, so the layer's own successors are read in place, and
    # its ids come off the index, so the edges share its int objects.
    last = len(succ_u)
    n = len(index)
    succ_u.extend(repeat(None, n - last))
    succ_v.extend(repeat(None, n - last))
    met = bytearray(n)
    layer = islice(index.values(), first, last)
    for s, a, b, c, d in zip(
        layer, islice(succ_u, first, last), islice(succ_v, first, last), back_u, back_v
    ):
        succ_u[c] = s
        succ_v[d] = s
        met[a] += 1
        met[b] += 1
        met[c] += 1
        met[d] += 1
    complete = bytearray(b"\x01") * last + met[last:].translate(_MET_FOUR_TIMES)
    # the graph keeps this index, keyed by the point tuples in discovery
    # order, as its own instead of building a second dict over them; the
    # search's own columns go first, to lower the peak
    del back_u, back_v, met
    return OrbitalGraph(index, succ_u, succ_v, complete)


def trace(g: OrbitalGraph, w: Word, start: int) -> int | None:
    """Endpoint of the path labeled w from start, rightmost letter first;
    None if the path leaves the explored region."""
    if not 0 <= start < len(g.points):
        raise ValueError(f"start {start} out of range")
    cur = start
    edges = g.edges
    for c in reversed(w.text):
        cur = edges[c][cur]
        if cur < 0:
            return None
    return cur


def is_loop_at_base(g: OrbitalGraph, w: Word) -> bool:
    if not g.fully_complete:
        raise ValueError("loop queries need a fully complete graph")
    # the base is vertex 0; a constant reads faster than the class attribute
    return trace(g, w, 0) == 0


@dataclass(frozen=True)
class CoreReport:
    """Result of a core computation.

    kind is "exact" when the whole graph was available, so the core is every
    vertex, or "certified-lower-bound" when membership was certified vertex
    by vertex with a witness loop inside the complete region.
    """

    kind: str
    core_vertices: frozenset[int]
    witness: Word | None


def core_exact(g: OrbitalGraph) -> CoreReport:
    """The Stallings core of a fully complete graph, which is every vertex.

    Such a graph has every edge, so each vertex has degree 4 (a self-loop
    counts twice) and there is no hanging tree to prune.  Partial graphs are
    rejected.
    """
    if not g.fully_complete:
        raise ValueError("core_exact needs a fully complete graph")
    return CoreReport("exact", frozenset(range(len(g.points))), None)


def certified_core(g: OrbitalGraph, witness: Word) -> CoreReport:
    """Vertices whose witness loop closes up inside the complete region.

    Sound for partial graphs: every certified vertex lies on a nontrivial
    reduced loop of the full orbital graph, so the true core contains all of
    them.  The count can only grow as the explored region grows.
    """
    if witness.is_identity():
        raise ValueError("certified_core needs a nonempty witness word")
    seq = [g.edges[c] for c in reversed(witness.text)]
    found = []
    complete = g.complete
    for v in range(len(g.points)):
        cur = v
        for m in seq:
            if not complete[cur]:
                cur = NO_EDGE
                break
            cur = m[cur]
            if cur < 0:
                break
        if cur == v:
            found.append(v)
    return CoreReport("certified-lower-bound", frozenset(found), witness)


def certified_core_depths(g: OrbitalGraph, depth: int, witness: Word) -> dict[int, int]:
    """The certified cores of build_ball(d) for every d <= depth, read off
    g = build_ball(depth) in one walk per vertex: each vertex certified at
    some depth maps to the smallest such d, so the core of ball(d), as
    certified_core(build_ball(d), witness) finds it, is the ids mapped to at
    most d.

    Breadth-first discovery makes ball(d) the first n_d vertices of g, and
    its edges are g's edges between them.  Every vertex of ball(d - 1) is
    complete in g, so n_0 = 1 and n_d = 1 + the largest neighbour id of the
    first n_(d-1) vertices; a g with n_depth != n, or with an incomplete
    vertex among the first n_(depth-1), is not the ball of that depth and is
    refused.  A vertex v of ball(d) is complete there iff v and its four
    neighbours have ids below n_d.  So the witness loop from v closes in
    ball(d) iff it closes in g and the largest of those five ids, over every
    vertex it steps from, is below n_d; that is worked out for the few loops
    that close in g.
    """
    if witness.is_identity():
        raise ValueError("certified_core_depths needs a nonempty witness word")
    n = len(g.points)
    edges = g.edges
    cols = list(edges.values())
    complete = g.complete
    sizes = [1]
    for _ in range(depth):
        k = sizes[-1]
        sizes.append(1 + max([max(col[:k]) for col in cols]))
    inner = sizes[depth - 1] if depth > 0 else 0
    if depth < 0 or sizes[-1] != n or 0 in complete[:inner]:
        raise ValueError(f"a graph of {n} vertices is not the ball of depth {depth}")
    seq = [edges[c] for c in reversed(witness.text)]
    first = {}
    for v in range(n):
        cur = v
        for m in seq:
            if not complete[cur]:
                break
            cur = m[cur]
            if cur < 0:
                break
        else:
            if cur == v:
                top = 0
                for m in seq:
                    top = max(top, cur, *[col[cur] for col in cols])
                    cur = m[cur]
                first[v] = bisect_right(sizes, top)
    return first


def spanning_tree_generators(g: OrbitalGraph) -> list[Word]:
    """Schreier generators read off a breadth-first spanning tree.

    Tree edges are chosen in letter order U, V, U^-1, V^-1, then discovery
    order.  Every positive non-tree edge (p, g, p') contributes the loop
    invert(t_p') g t_p at the base, and for a complete graph on n vertices
    exactly n + 1 words come out.  Each tree word t_v is kept as a syllable
    tuple next to the tuple of its inverse, both extended by one syllable,
    or one merge, when v is reached; each loop is then three tuples joined
    with one syllable merge per junction.  The one-syllable tuples
    ((G, e),) and ((G, -e),) of each letter are built once and shared by
    every tree step that adds a syllable, so a step allocates only the two
    joined tuples.
    """
    if not g.fully_complete:
        raise ValueError("spanning_tree_generators needs a fully complete graph")
    # such a graph has every edge, and it is connected, so the tree spans it
    n = len(g.points)
    edges = g.edges
    # tree[v]: syllables of the tree word t_v; inv[v]: those of its inverse;
    # via[v]: the letter of the tree edge into v, which is the first letter
    # of t_v
    tree: list[tuple[tuple[str, int], ...] | None] = [None] * n
    inv: list[tuple[tuple[str, int], ...] | None] = [None] * n
    size = [0] * n
    via: list[str | None] = [None] * n
    tree[g.base] = inv[g.base] = ()
    # (letter, column, generator, exponent, ((generator, exponent),),
    # ((generator, -exponent),)): the last two start a tree word and end
    # its inverse when the step adds a syllable
    letters = []
    for c, m in edges.items():
        gen = c.upper()
        e = 1 if c == gen else -1
        letters.append((c, m, gen, e, ((gen, e),), ((gen, -e),)))
    queue = [g.base]
    for p in queue:
        word = tree[p]
        back = inv[p]
        first = word[0] if word else (None, 0)
        grown = size[p] + 1
        for c, m, gen, e, head, tail in letters:
            t = m[p]
            if tree[t] is not None:
                continue
            # word starts with the letter into p, whose inverse leads back to
            # p's parent, which is already in the tree; so this merge adds,
            # and so does the mirror merge at the end of the inverse
            if first[0] == gen:
                tree[t] = ((gen, first[1] + e),) + word[1:]
                inv[t] = back[:-1] + ((gen, back[-1][1] - e),)
            else:
                tree[t] = head + word
                inv[t] = back + tail
            size[t] = grown
            via[t] = c
            queue.append(t)
    out = []
    for p, (tu, tv) in enumerate(zip(edges["U"], edges["V"])):
        # the edge p -c-> t is in the tree when it was walked forward into t
        # or backward into p
        into = via[p]
        if via[tu] != "U" and into != "u":
            out.append(_loop(inv[tu], "U", tree[p], p, tu, size[tu] + 1 + size[p]))
        if via[tv] != "V" and into != "v":
            out.append(_loop(inv[tv], "V", tree[p], p, tv, size[tv] + 1 + size[p]))
    return out


def _loop(head: tuple, c: str, tail: tuple, p: int, t: int, length: int) -> Word:
    # the word t_t^-1 c t_p of the non-tree edge p -c-> t, with c merged into
    # the syllable it meets at either junction
    e = 1
    if head and head[-1][0] == c:
        e += _junction(head[-1][1], p, c, t)
        head = head[:-1]
    if tail and tail[0][0] == c:
        e += _junction(tail[0][1], p, c, t)
        tail = tail[1:]
    return Word._from_syllables(head + ((c, e),) + tail, length)


def _junction(exponent: int, p: int, c: str, t: int) -> int:
    # a syllable meeting the letter c of a non-tree edge; in a folded graph
    # it is a positive power of c, since c^-1 there would make the edge p -c-> t
    # a tree edge
    if exponent < 0:
        raise AssertionError(f"generator of edge {p} -{c}-> {t} cancels at a junction")
    return exponent


def export(g: OrbitalGraph, fmt: str) -> str:
    if fmt == "dot":
        return export_dot(g)
    if fmt == "json":
        return export_json(g)
    raise ValueError(f"format must be 'dot' or 'json', got {fmt!r}")


def export_dot(g: OrbitalGraph) -> str:
    """Graphviz rendering: base doubly circled, incomplete vertices dashed,
    U-edges and V-edges in distinct colors."""
    lines = ["digraph orbital {", "  rankdir=LR;", '  node [shape=circle, fontsize=10];']
    for i, (x, y) in enumerate(g.points):
        attrs = [f'label="({x}, {y})"']
        if i == g.base:
            attrs.append("peripheries=2")
        if not g.complete[i]:
            attrs.append("style=dashed")
        lines.append(f"  v{i} [{', '.join(attrs)}];")
    for src, gen, tgt in g.positive_edges():
        lines.append(f'  v{src} -> v{tgt} [label="{gen}", color="{_DOT_COLORS[gen]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: OrbitalGraph) -> str:
    obj = {
        "modulus": g.modulus,
        "base": g.base,
        "vertices": [
            {"id": i, "x": x, "y": y, "complete": bool(g.complete[i])}
            for i, (x, y) in enumerate(g.points)
        ],
        "edges": [{"from": s, "to": t, "gen": gen} for s, gen, t in g.positive_edges()],
    }
    return json.dumps(obj, indent=2) + "\n"


def check_edge_consistency(g: OrbitalGraph) -> None:
    """Audit that every stored edge, in all four letter columns, matches the
    affine action, and that a complete vertex has all four incident edges.
    Each point is stepped exactly by action.step, and the image reduced mod q
    on a mod-q graph.  Raises on any mismatch."""
    points, q = g.points, g.modulus
    for vid, p in enumerate(points):
        for c in "UVuv":
            x, y = step(c, p)
            image = (x, y) if q is None else (x % q, y % q)
            tgt = g.edges[c][vid]
            if tgt >= 0 and points[tgt] != image:
                raise AssertionError(
                    f"edge {vid} -{c}-> {tgt} disagrees with the action at {p}"
                )
        if g.complete[vid] and g.degree(vid) != 4:
            raise AssertionError(f"complete vertex {vid} is missing incident edges")
