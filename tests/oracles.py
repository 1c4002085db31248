"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the raw definitions (3x3 integer
matrices, letterwise stepping, brute-force minors) and shares no code with
the package beyond the letter alphabet.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

M3_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
M3_U = ((1, 2, 0), (0, 1, 1), (0, 0, 1))
M3_V = ((1, 0, 1), (2, 1, 0), (0, 0, 1))
M3_U_INV = ((1, -2, 2), (0, 1, -1), (0, 0, 1))
M3_V_INV = ((1, 0, -1), (-2, 1, 2), (0, 0, 1))
M3_BY_CHAR = {"U": M3_U, "V": M3_V, "u": M3_U_INV, "v": M3_V_INV}


def m3_mul(a, b):
    """The 3x3 product, each entry written out as its row-by-column sum."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (
            a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
        ),
        (
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
        ),
        (
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22,
        ),
    )


def eval_word_m3(text: str):
    """Leftmost letter leftmost, as a 3x3 affine block matrix."""
    out = M3_IDENTITY
    for c in text:
        out = m3_mul(out, M3_BY_CHAR[c])
    return out


def translation_m3(text: str) -> tuple[int, int]:
    m = eval_word_m3(text)
    return (m[0][2], m[1][2])


def freeness_sweep_dfs(max_len: int, letters: dict):
    """The reference freeness sweep: walk the prefix tree of reduced words
    depth first, one 2x2 product per nonempty word, and stop at the first
    word whose product is the identity.  letters maps each of "UVuv" to its
    matrix as (a, b, c, d), row-major.

    Returns (passed, words checked, the identity word's text or None).
    """
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    checked = 0
    stack = [(1, 0, 0, 1, "")] if max_len else []
    while stack:
        a, b, c, d, text = stack.pop()
        for ch in "UVuv":
            if text and ch == inverse[text[-1]]:
                continue
            e, f, g, h = letters[ch]
            na, nb, nc, nd = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            checked += 1
            if (na, nb, nc, nd) == (1, 0, 0, 1):
                return False, checked, text + ch
            if len(text) + 1 < max_len:
                stack.append((na, nb, nc, nd, text + ch))
    return True, checked, None


def step_point(char: str, x: int, y: int) -> tuple[int, int]:
    if char == "U":
        return x + 2 * y, y + 1
    if char == "u":
        return x - 2 * y + 2, y - 1
    if char == "V":
        return x + 1, 2 * x + y
    if char == "v":
        return x - 1, y - 2 * x + 2
    raise ValueError(char)


def act_letterwise(text: str, x: int, y: int, q: int | None = None) -> tuple[int, int]:
    """Rightmost letter first, one step at a time."""
    for c in reversed(text):
        x, y = step_point(c, x, y)
        if q is not None:
            x %= q
            y %= q
    return x, y


def orbit_size_mod_q(q: int) -> int:
    """Size of the orbit of (0, 0) mod q: set closure under all four letters."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for x, y in frontier:
            for c in "UVuv":
                px, py = step_point(c, x, y)
                p = (px % q, py % q)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def ball_letterwise(depth: int):
    """The ball of radius depth around (0, 0) in the infinite orbit, by
    breadth-first search with step_point in letter order U, V, u, v.

    Returns (points in discovery order, U-successor ids, V-successor ids,
    complete flags); a successor is None when it lies outside the ball, and a
    vertex is complete when all four neighbours lie inside it.
    """
    ids = {(0, 0): 0}
    points = [(0, 0)]
    frontier = [(0, 0)]
    for _ in range(depth):
        nxt = []
        for x, y in frontier:
            for c in "UVuv":
                p = step_point(c, x, y)
                if p not in ids:
                    ids[p] = len(points)
                    points.append(p)
                    nxt.append(p)
        frontier = nxt
    succ_u = [ids.get(step_point("U", x, y)) for x, y in points]
    succ_v = [ids.get(step_point("V", x, y)) for x, y in points]
    complete = [all(step_point(c, x, y) in ids for c in "UVuv") for x, y in points]
    return points, succ_u, succ_v, complete


def mod_q_letterwise(q: int):
    """The orbit of (0, 0) mod q, by breadth-first search with step_point
    reduced mod q, in letter order U, V, u, v.

    Returns (points in discovery order, U-successor ids, V-successor ids);
    the orbit is finite, so every successor is a vertex.
    """
    ids = {(0, 0): 0}
    points = [(0, 0)]
    for x, y in points:
        for c in "UVuv":
            px, py = step_point(c, x, y)
            p = (px % q, py % q)
            if p not in ids:
                ids[p] = len(points)
                points.append(p)
    succ = {}
    for c in "UV":
        succ[c] = []
        for x, y in points:
            px, py = step_point(c, x, y)
            succ[c].append(ids[(px % q, py % q)])
    return points, succ["U"], succ["V"]


def core_by_stripping(n: int, edges) -> set[int]:
    """The core of the undirected multigraph on range(n) with the given
    (a, b) edges: strip every vertex of degree <= 1, recount from the edge
    list, and repeat until none is left to strip.  A self-loop (a, a) adds 2
    to the degree of a."""
    alive = set(range(n))
    while True:
        deg = dict.fromkeys(alive, 0)
        for a, b in edges:
            if a in alive and b in alive:
                deg[a] += 1
                deg[b] += 1
        leaves = {v for v, d in deg.items() if d <= 1}
        if not leaves:
            return alive
        alive -= leaves


def schreier_generators_letterwise(edges: dict, base: int) -> list[str]:
    """Spanning-tree Schreier generators as strings, from the letter maps of
    a complete folded graph (edges[c][v] for c in "UVuv").

    The tree is read breadth-first in letter order U, V, u, v; each vertex
    gets the string of its tree path, rightmost letter first.  Every U or V
    edge p -> p' off the tree, taken by source then letter, gives the free
    reduction of inverse(t_p') + letter + t_p.
    """
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    n = len(edges["U"])
    word = [None] * n
    word[base] = ""
    tree = set()
    queue = [base]
    for p in queue:
        for c in "UVuv":
            t = edges[c][p]
            if t is not None and word[t] is None:
                word[t] = c + word[p]
                # name the edge by its positive letter and source
                tree.add((p, c) if c in "UV" else (t, inverse[c]))
                queue.append(t)
    out = []
    for p in range(n):
        for c in "UV":
            t = edges[c][p]
            if t is not None and (p, c) not in tree:
                inv = "".join(inverse[a] for a in reversed(word[t]))
                out.append(brute_reduce(inv + c + word[p]))
    return out


def brute_reduce(text: str) -> str:
    """Free reduction by repeated full scans."""
    inverse = {"U": "u", "u": "U", "V": "v", "v": "V"}
    changed = True
    while changed:
        changed = False
        for i in range(len(text) - 1):
            if text[i + 1] == inverse[text[i]]:
                text = text[:i] + text[i + 2 :]
                changed = True
                break
    return text


def det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        total += term if j % 2 == 0 else -term
    return total


def determinantal_divisors(rows) -> list[int]:
    """Invariant factors via gcds of k x k minors: d_k = g_k / g_{k-1}."""
    nrows, ncols = len(rows), len(rows[0])
    gs = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        if g == 0:
            break
        gs.append(g)
    out = []
    prev = 1
    for g in gs:
        out.append(g // prev)
        prev = g
    return out
