"""Orbital Schreier graphs of the affine action, exact and partial.

Vertices are points of an orbit, numbered in search order from the base, 0:
every vertex but 0 has a neighbour with a smaller id, so the graph is
connected.  A graph is stored in flat int columns, as with the per-letter
arrays of Kapovich-Myasnikov, J. Algebra 248 (2002): edges["U"][v] and
edges["V"][v] are where the generators lead from v, and edges["u"] and
edges["v"] are their inverse maps, so an inverse letter walks an edge
backwards.  Each is an array('i') with NO_EDGE (-1) for a missing edge, so
a reader of a partial graph tests `< 0` before it indexes; the same four
arrays sit in edges_by_byte at the codes of their letters, for the walk of
`trace` on a fully complete graph, which has no missing edge to test for.
The graph keeps what its builder filled: the U and V columns, the bytearray
`complete`, and as `points` the point store, _PointView: the point -> id
index of the search, a dense table of q^2 ids keyed by x * q + y (-1 off
the orbit) for a mod-q graph and a dict keyed by the one-int code
x * 2^22 + y for a ball, with the codes of the points in id order and the
modulus read off it.  No point is kept decoded: an indexed read of `points`
decodes one code into a Vec2, residues on a mod-q graph, and iteration
yields plain tuples; `vertex_id` takes any (x, y) pair of ints, and
`vertices` is another name for `points`.
Exports list the positive (U, V) edges only.  Two builders are provided:
the full orbit of (0, 0) modulo q, and the exact ball of given radius
around (0, 0) in the infinite orbit.  A vertex of a partial graph is
flagged complete when all four of its neighbours lie in the explored
region, which is what core certification relies on; a graph whose vertices
are all flagged complete has every edge.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from itertools import compress, count, islice, repeat
from math import isqrt
from typing import NamedTuple

from .action import step
from .linear import Vec2
from .words import Word

NO_EDGE = -1

_MAX_BALL_DEPTH = 13
_MAX_GRAPH_MODULUS = 2048

# build_ball keys a point by the code x * 2^22 + y, one int; |y| < 2^21 in
# every ball up to the depth guard, so distinct points get distinct codes
_BALL_SHIFT = 1 << 22
_BALL_HALF = 1 << 21

_DOT_COLORS = {"U": "#1f77b4", "V": "#d62728"}

# bytes.translate table from a count of edges met to a complete flag:
# 4 -> 1, anything else -> 0
_MET_FOUR_TIMES = bytes(i == 4 for i in range(256))


class _PointView:
    """A builder's point store: the point -> id index its search filled and
    the codes of its points in id order, from which every point is decoded
    on read.  For build_ball the index is a dict keyed by the codes
    x * 2^22 + y, and the codes are read off its keys into an array('q');
    for _orbit_mod_q it is a table of q^2 ids keyed by x * q + y, handed
    over with the search's order array, its codes in id order, and the
    modulus is isqrt(len(table)).  A ball's code is decoded by divmod of
    code + 2^21 with 2^22, a mod-q code by divmod with q.  The index must
    number its points 0..n-1: a dict by int64 keys, a table with every code
    in [0, q^2).  An indexed read makes one Vec2 and keeps none; iteration
    yields tuples."""

    __slots__ = ("_codes", "_index", "modulus")

    def __init__(self, index: dict | array, order: array | None = None):
        if order is None:
            try:
                codes = array("q", index)
            except (TypeError, OverflowError):
                raise ValueError(
                    "a ball's point index must be keyed by int64 codes x * 2**22 + y"
                ) from None
            ok = all(map(operator.eq, index.values(), count()))
            q = None
        else:
            q = isqrt(len(index))
            if q > _MAX_GRAPH_MODULUS:
                raise ValueError(f"modulus {q} exceeds the guard {_MAX_GRAPH_MODULUS}")
            ok = q * q == len(index) == len(order) + index.count(-1)
            ok = ok and 0 <= min(order, default=0) and max(order, default=0) < len(index)
            ok = ok and all(map(operator.eq, map(index.__getitem__, order), count()))
            codes = order
        if not ok:
            raise ValueError("a point index must number its points 0..n-1 in order")
        self._codes = codes
        self._index = index
        self.modulus = q

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, vid: int) -> Vec2:
        code = self._codes[operator.index(vid)]
        q = self.modulus
        if q is None:
            x, y = divmod(code + _BALL_HALF, _BALL_SHIFT)
            return Vec2(x, y - _BALL_HALF)
        return Vec2(*divmod(code, q))

    def __iter__(self):
        q = self.modulus
        if q is not None:
            return map(divmod, self._codes, repeat(q))
        return _ball_points(self._codes)


def _ball_points(codes):
    """The (x, y) tuples of the ball codes x * 2^22 + y, in order."""
    half = _BALL_HALF
    shift = _BALL_SHIFT
    for code in codes:
        x, y = divmod(code + half, shift)
        yield x, y - half


def _inverse(col: array, gen: str, has_lower: bytearray) -> array:
    """The inverse of the edge column col, in one pass that refuses a target
    other than NO_EDGE outside [0, len(col)) and a second edge into one
    vertex.  It also sets has_lower[v] for the larger end v of every edge
    that is not a self-loop."""
    n = len(col)
    back = array("i", [NO_EDGE]) * n
    for src, tgt in enumerate(col):
        if not 0 <= tgt < n:
            if tgt == NO_EDGE:
                continue
            raise ValueError(f"edge target {tgt} out of range")
        if back[tgt] >= 0:
            raise ValueError(f"two {gen}-edges enter vertex {tgt}; graph is not folded")
        back[tgt] = src
        if src < tgt:
            has_lower[tgt] = 1
        elif tgt < src:
            has_lower[src] = 1
    return back


class OrbitalGraph:
    """Immutable labeled graph: edges[c][v] is where letter c leads from v,
    or NO_EDGE.  It keeps what its builder filled, with no copy: the point
    store, a _PointView, whose index and modulus it reads; the array('i')
    columns succ_u and succ_v, NO_EDGE for a missing edge, as edges["U"] and
    edges["V"]; and the bytearray of 0/1 complete flags.  It builds only u
    and v, their inverses.  Per generator each vertex has at most one
    outgoing and one incoming edge, as in a folded Stallings graph.
    edges_by_byte is a list of 128 slots holding the four columns of edges,
    the same arrays, at ord("U"), ord("V"), ord("u") and ord("v"), and None
    elsewhere, so a walk indexes it by the bytes of a word's text.

    Vertex 0 is the base, and vertices are numbered in search order: every
    vertex but 0 must have a neighbour with a smaller id, which makes the
    graph connected.  When every vertex is flagged complete, every vertex
    must have a U-edge and a V-edge; folding then makes u and v total too:
    an injective map of the n vertices into themselves is onto, so its
    inverse column has no NO_EDGE either.
    """

    __slots__ = (
        "points", "modulus", "complete", "fully_complete", "edges", "edges_by_byte", "_index"
    )

    base = 0

    def __init__(self, points, succ_u, succ_v, complete):
        if type(points) is not _PointView:
            raise TypeError(f"points must be a builder's point store, not {type(points).__name__}")
        if not all(type(col) is array and col.typecode == "i" for col in (succ_u, succ_v)):
            raise TypeError("succ_u and succ_v must be array('i') columns")
        if type(complete) is not bytearray:
            raise TypeError(f"complete must be a bytearray, not {type(complete).__name__}")
        n = len(points)
        if not (len(succ_u) == len(succ_v) == len(complete) == n):
            raise ValueError("points, succ_u, succ_v and complete must have equal length")
        if n == 0:
            raise ValueError("a graph needs its base vertex 0")
        if complete.translate(None, b"\x00\x01"):
            raise ValueError("complete flags must be 0 or 1")
        has_lower = bytearray(n)
        back_u = _inverse(succ_u, "U", has_lower)
        back_v = _inverse(succ_v, "V", has_lower)
        self.complete = complete
        # read by every loop query, so computed once here, not per call
        self.fully_complete = 0 not in complete
        if self.fully_complete:
            for gen, col in (("U", succ_u), ("V", succ_v)):
                if NO_EDGE in col:
                    vid = col.index(NO_EDGE)
                    raise ValueError(f"vertex {vid} has no {gen}-edge in a fully complete graph")
        # a vertex with a smaller neighbour reaches 0 by induction
        vid = has_lower.find(0, 1)
        if vid >= 0:
            raise ValueError(
                f"vertex {vid} has no neighbour with a smaller id; vertices must be"
                " numbered in search order from 0"
            )
        self.points = points
        self._index = points._index
        self.edges = {"U": succ_u, "V": succ_v, "u": back_u, "v": back_v}
        by_byte = [None] * 128
        for c, col in self.edges.items():
            by_byte[ord(c)] = col
        self.edges_by_byte = by_byte
        self.modulus = points.modulus

    @property
    def vertices(self) -> _PointView:
        """Another name for points, which bench/workload_graphs.py reads."""
        return self.points

    def __len__(self) -> int:
        return len(self.points)

    def vertex_id(self, point: tuple[int, int]) -> int | None:
        """Id of the point (x, y), a tuple or a Vec2 of ints, reduced mod q on
        a mod-q graph; None if the point is not a vertex.  On a ball the
        point's code x * 2^22 + y is looked up; a y outside [-2^21, 2^21),
        or a code that is no int, such as that of x = 2^-22, would alias
        another point's code and is None."""
        x, y = point
        q = self.modulus
        if q is None:
            code = x * _BALL_SHIFT + y
            if type(code) is int and -_BALL_HALF <= y < _BALL_HALF:
                return self._index.get(code)
            return None
        vid = self._index[x % q * q + y % q]
        return None if vid < 0 else vid

    def degree(self, vid: int) -> int:
        return sum(m[vid] >= 0 for m in self.edges.values())


def _orbit_mod_q(q: int) -> tuple[_PointView, array, array]:
    """Breadth-first closure of the orbit of (0, 0) mod q.

    Returns (the point store, U-successor ids, V-successor ids), which the
    graph keeps as they are.  The search keeps each point only as its code
    x * q + y, and the store keeps its id table and its order array, the
    codes in discovery order, so no tuple is made per vertex.  Neighbours
    are visited in letter order U, V, U^-1, V^-1, and that discovery order
    fixes the vertex ids of build_mod_q.  Orbit sizes alone come from
    ranks.stabilizer_index.  Raises ValueError for q > _MAX_GRAPH_MODULUS
    before the q*q id table is allocated; at the guard it has 2^22 slots.

    Each letter moves one coordinate by +-1 and the other by an amount that
    depends on the first alone, so its code comes from two tables indexed by
    that coordinate: for U, adding u_shift[y] = 2y * q and reducing mod q^2
    moves x to x + 2y mod q, and adding u_step[y] = (y + 1) mod q - y then
    moves y to y + 1 mod q; for V, v_row[x] = (x + 1 mod q) * q is the new
    row and y + v_shift[x] = y + 2x, reduced mod q, the new column.
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
    # ids, order and the successors are array('i'), one C int per entry, where
    # a list would keep an int object per vertex for its id and its code.
    # order grows while it is read, and the read reaches every point appended
    ids = array("i", [-1]) * qq
    order = array("i", [0])
    succ_u = array("i")
    succ_v = array("i")
    ids[0] = 0
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
    return _PointView(ids, order), succ_u, succ_v


def build_mod_q(q: int) -> OrbitalGraph:
    """Orbital graph of the action on (Z/qZ)^2, complete by construction."""
    points, succ_u, succ_v = _orbit_mod_q(q)
    return OrbitalGraph(points, succ_u, succ_v, bytearray(b"\x01") * len(points))


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
    The last layer is about two thirds of the ball.  The graph keeps the
    columns filled here, and a point store made from the search's dict.

    The dict keys each point by one int, its code x * 2^22 + y, so no tuple
    is made per point.  Each letter at most triples m + 1, for
    m = max(|x|, |y|), so up to the depth guard |x|, |y| <= 3^13 - 1 < 2^21:
    y + 2^21 lies in [0, 2^22), and the code is injective and decodes by
    divmod of code + 2^21 with 2^22.  A layer's points are decoded when it
    is searched, and the last layer, which is never searched, is not.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > _MAX_BALL_DEPTH:
        raise ValueError(f"depth {depth} exceeds the guard {_MAX_BALL_DEPTH}")
    index = {0: 0}
    add = index.setdefault
    shift = _BALL_SHIFT
    half = _BALL_HALF
    # with t = 2y * 2^22, U adds t + 1 to a code, U^-1 adds 2 * 2^22 - 1 - t,
    # V adds 2^22 + 2x and V^-1 adds 2 - 2^22 - 2x
    shift2 = 2 * shift
    back_u_add = 2 * shift - 1
    back_v_add = 2 - shift
    succ_u = array("i")
    succ_v = array("i")
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
        for code in list(islice(index, first, None)):
            x, y = divmod(code + half, shift)
            t = (y - half) * shift2
            x2 = x + x
            succ_u.append(add(code + t + 1, len(index)))
            succ_v.append(add(code + x2 + shift, len(index)))
            back_u.append(add(code - t + back_u_add, len(index)))
            back_v.append(add(code - x2 + back_v_add, len(index)))
    # layer depth - 1 has the ids first..last-1.  A last-layer edge
    # t -U-> s is found there as U^-1(s) = t, and likewise for V; for an
    # inner t that is the edge already stored.  met counts the edges of
    # layer depth - 1 meeting each vertex.  The writes go to the layers on
    # either side, so the layer's own successors are read in place.
    last = len(succ_u)
    n = len(index)
    succ_u += array("i", [NO_EDGE]) * (n - last)
    succ_v += array("i", [NO_EDGE]) * (n - last)
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
    # the search's own columns go first, to lower the peak
    del back_u, back_v, met
    return OrbitalGraph(_PointView(index), succ_u, succ_v, complete)


def trace(g: OrbitalGraph, w: Word, start: int) -> int | None:
    """Endpoint of the path labeled w from start, rightmost letter first;
    None if the path leaves the explored region.

    On a fully complete graph every column is total (the constructor
    refuses a missing U- or V-edge there, and u and v are the inverses of
    total injective columns), so the walk reads the bytes of w.text through
    g.edges_by_byte with no missing-edge test.  On a partial graph it reads
    w.text letter by letter through g.edges and stops at the first
    NO_EDGE."""
    if not 0 <= start < len(g.complete):
        raise ValueError(f"start {start} out of range")
    cur = start
    if g.fully_complete:
        cols = g.edges_by_byte
        for c in reversed(w.text.encode()):
            cur = cols[c][cur]
        return cur
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


class CoreReport(NamedTuple):
    """Result of a core computation, a NamedTuple.

    kind is "exact" when the whole graph was available, so the core is every
    vertex and core_vertices is range(n), which holds no int per vertex; or
    "certified-lower-bound" when membership was certified vertex by vertex
    with a witness loop inside the complete region, and core_vertices is the
    frozenset of the certified ids.  Both answer len, `in` and iteration.
    """

    kind: str
    core_vertices: range | frozenset[int]
    witness: Word | None


def core_exact(g: OrbitalGraph) -> CoreReport:
    """The Stallings core of a fully complete graph, which is every vertex,
    returned as range(n).

    Such a graph has every edge, so each vertex has degree 4 (a self-loop
    counts twice) and there is no hanging tree to prune.  Partial graphs are
    rejected.
    """
    if not g.fully_complete:
        raise ValueError("core_exact needs a fully complete graph")
    return CoreReport("exact", range(len(g.points)), None)


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
    # a walk from an incomplete vertex stops before its first step
    for v in compress(range(len(g.points)), complete):
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
    for v in compress(range(n), complete):
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


def _positive_edges(g: OrbitalGraph):
    """(src, gen, tgt) of every U- and V-edge, by src, then U before V: the
    order the exports list edges in.  The U and V columns are walked as the
    rows are written, so no tuple is kept per edge."""
    for src, tu, tv in zip(count(), g.edges["U"], g.edges["V"]):
        if tu >= 0:
            yield src, "U", tu
        if tv >= 0:
            yield src, "V", tv


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
    for src, gen, tgt in _positive_edges(g):
        lines.append(f'  v{src} -> v{tgt} [label="{gen}", color="{_DOT_COLORS[gen]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_list(rows: list[str]) -> str:
    """A list of preformatted rows as json.dumps(..., indent=2) lays out the
    value of a top-level key, in one join: "[]" when empty."""
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def export_json(g: OrbitalGraph) -> str:
    """The bytes json.dumps(..., indent=2) prints for the graph's vertices
    and positive edges, with each row written by one f-string rather than
    a dict per row encoded value by value."""
    flag = ("false", "true")
    vertices = _json_list([
        f'    {{\n      "id": {i},\n      "x": {x},\n      "y": {y},\n'
        f'      "complete": {flag[c]}\n    }}'
        for i, ((x, y), c) in enumerate(zip(g.points, g.complete))
    ])
    edges = _json_list([
        f'    {{\n      "from": {s},\n      "to": {t},\n      "gen": "{c}"\n    }}'
        for s, c, t in _positive_edges(g)
    ])
    modulus = "null" if g.modulus is None else g.modulus
    head = f'{{\n  "modulus": {modulus},\n  "base": {g.base},\n'
    return f'{head}  "vertices": {vertices},\n  "edges": {edges}\n}}\n'


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
