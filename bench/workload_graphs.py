"""`graphs`: desk-scale orbital graphs, built and then read.

For each graph in SPECS (balls of the infinite orbit and full orbits mod q,
with q both a multiple of 4 and prime) the run builds it, takes its core and
answers a seeded stream of read queries on it: `trace` of a word from a
vertex, `is_loop_at_base` (mod q only, where the graph is complete) and
`vertex_id`.  One graph is alive at a time; the largest has about 7 * 10^5
vertices, far beyond the CPU caches, so `schreier` does nearly all the work.

Build sizes are fixed, so the build side repeats exactly across seeds; the
seed drives the reads.  Each read kind a graph supports gets an equal share:
`trace` and `vertex_id` on balls, and also `is_loop_at_base` on mod-q graphs,
the only complete ones.  Each expected answer comes from the letter-by-letter
action in tests/oracles.py:

- trace: words of 1 to TRACE_LETTERS letters; on a ball the start point is
  reached by a word of length <= depth - L for a word of length L, so the
  path stays inside;
- loops: products of words known to fix the origin, and random words;
- vertex_id: points reached by random words; on balls every second one is
  moved far outside the ball, so half of them miss.

Each build, and each stretch of about common.SEGMENT_S seconds of reads, is
a timed segment, scaled by the host speed sampled during it.
"""

from __future__ import annotations

import gc
import random

from common import (
    LINE_LOOP,
    SEGMENT_S,
    Outcome,
    free_reduce,
    median,
    origin_loop,
    random_reduced,
    tail,
)

# the host speed probe that tracks this workload: reads are memory-bound
PROBE = "chase"

SPECS = {
    "full": (("ball", 11), ("mod_q", 211), ("mod_q", 499), ("ball", 12), ("mod_q", 1000)),
    "tiny": (("ball", 6), ("mod_q", 7), ("mod_q", 12), ("ball", 7)),
}
# reads of each kind per graph for each second of --seconds.  One
# is_loop_at_base on each mod-q graph takes 4.8 ms in all on the reference
# host (it scans the graph for completeness), so the reads last about half
# of --seconds, about as long as the builds.
READS_PER_SECOND = 100
# longest trace word on every graph: on the depth-11 ball a start point of
# depth <= 3 keeps the path inside.  One length range for all graphs keeps
# the traces one cluster of latencies, so the median read does not sit on
# the edge between two clusters.
TRACE_LETTERS = 8
# vertices of certified cores checked against the reference action
CORE_SAMPLE = 200


def _ball_queries(rng, oracles, depth: int, count: int) -> list[tuple]:
    act = oracles.act_letterwise
    out = []
    for i in range(count):
        length = rng.randint(1, min(TRACE_LETTERS, depth))
        start = act(random_reduced(rng, rng.randint(0, depth - length)), 0, 0)
        word = random_reduced(rng, length)
        out.append(("trace", word, start, act(word, *start)))
        if i % 2:
            point = (10**9 + rng.randint(0, 10**6), rng.randint(-(10**6), 10**6))
            out.append(("vertex_id", None, point, None))
        else:
            point = act(random_reduced(rng, rng.randint(0, depth)), 0, 0)
            out.append(("vertex_id", None, point, point))
    rng.shuffle(out)
    return out


def _mod_q_queries(rng, oracles, q: int, count: int) -> list[tuple]:
    act = oracles.act_letterwise
    loops = [origin_loop(n) for n in range(-6, 8)]
    out = []
    for i in range(count):
        start = act(random_reduced(rng, rng.randint(0, 24)), 0, 0, q)
        word = random_reduced(rng, rng.randint(1, TRACE_LETTERS))
        out.append(("trace", word, start, act(word, *start, q)))
        if i % 2:
            word = free_reduce("".join(rng.choice(loops) for _ in range(rng.randint(1, 2))))
        else:
            word = random_reduced(rng, rng.randint(1, 48))
        out.append(("loop", word, None, act(word, 0, 0, q) == (0, 0)))
        point = act(random_reduced(rng, rng.randint(0, 24)), 0, 0, q)
        out.append(("vertex_id", None, point, point))
    rng.shuffle(out)
    return out


def _check_core(oracles, g, kind: str, core, rng) -> str | None:
    """Soundness of the core; returns a failure note or None."""
    if kind == "mod_q":
        # every vertex of a full mod-q orbital graph has degree 4, so nothing prunes
        if len(core.core_vertices) != len(g):
            return f"core_exact kept {len(core.core_vertices)} of {len(g)} vertices"
        return None
    for pt in ((0, 1), (1, 0)):
        if g.vertex_id(pt) not in core.core_vertices:
            return f"line point {pt} not certified"
    members = sorted(core.core_vertices)
    for vid in rng.sample(members, min(CORE_SAMPLE, len(members))):
        v = g.vertices[vid]
        if oracles.act_letterwise(LINE_LOOP, v.x, v.y) != (v.x, v.y):
            return f"certified vertex {vid} is not fixed by the witness"
    return None


def run(P, oracles, out: Outcome, seed: int, seconds: float, scale: str, tracer) -> None:
    build_s = 0.0
    vertices = 0
    per_kind = max(1, int(READS_PER_SECOND * seconds))
    certified_counts = []
    for i, (kind, size) in enumerate(SPECS[scale]):
        rng = random.Random(seed * 1000 + i)
        out.attempted += 2
        gc.collect()  # every build starts from the same heap state
        out.speed.open()
        t0 = out.speed.now()
        g = P.build_ball(size) if kind == "ball" else P.build_mod_q(size)
        t1 = out.speed.now()
        build_s += (t1 - t0) * out.speed.close()
        core = P.certified_core(g, P.DEFAULT_WITNESS) if kind == "ball" else P.core_exact(g)
        vertices += len(g)
        if kind == "mod_q" and len(g) < size:
            out.fail(f"orbit mod {size} has {len(g)} < q points")
        note = _check_core(oracles, g, kind, core, rng)
        if note:
            out.fail(f"{kind} {size}: {note}")
        if kind == "ball":
            certified_counts.append(len(core.core_vertices))
        del core

        # queries: expected answers and start vertices are prepared untimed
        make = _ball_queries if kind == "ball" else _mod_q_queries
        pool = []
        for op, word, point, expected in make(rng, oracles, size, per_kind):
            if op == "trace":
                start = g.vertex_id(point)
                if start is None:
                    out.attempted += 1
                    out.fail(f"{kind} {size}: start point {point} missing")
                    continue
                pool.append((P.trace, (g, P.Word(word), start), op, expected))
            elif op == "loop":
                pool.append((P.is_loop_at_base, (g, P.Word(word)), op, expected))
            else:
                pool.append((g.vertex_id, (point,), op, expected))
        results = []
        out.speed.open()
        segment_end = out.speed.now() + SEGMENT_S
        for fn, args, _, _ in pool:
            t0 = out.speed.now()
            try:
                res = fn(*args)
            except Exception as exc:
                res = exc
            t1 = out.speed.now()
            out.wall.append(t1 - t0)
            results.append(res)
            if t1 >= segment_end:
                out.settle()
                segment_end = out.speed.now() + SEGMENT_S
        out.settle()
        out.attempted += len(pool)
        for (_, _, op, expected), res in zip(pool, results):
            if isinstance(res, Exception):
                out.fail(f"{op} raised {type(res).__name__}: {res}")
            elif op == "loop" or expected is None:
                if res != expected:
                    out.fail(f"{op} on {kind} {size}: got {res}, expected {expected}")
            elif res is None or (g.vertices[res].x, g.vertices[res].y) != expected:
                out.fail(f"{op} on {kind} {size}: got vertex {res}, expected point {expected}")
        del g, pool, results
    if any(a > b for a, b in zip(certified_counts, certified_counts[1:])):
        out.fail(f"certified core counts decreased: {certified_counts}")
    # vertices per reference second of build calls
    out.throughput = vertices / build_s
    p_tail, label = tail(out.latencies)
    out.named["graph_build_vertices_per_s"] = (out.throughput, "1/s")
    out.named["graph_query_p50_us"] = (median(out.latencies) * 1e6, "us")
    out.named[f"graph_query_{label}_us"] = (p_tail * 1e6, "us")
