"""`queries`: a seeded stream of one-shot CLI requests, each run in process
through `parabolic.cli.main(argv)` with stdout and stderr captured, in a
closed loop with one client.

A run serves REQUESTS_PER_SECOND * --seconds requests.  The mix gives each
request kind an equal share: in every block of DECK (21 requests, shuffled
by the seed) orbit, member, rank and core come 4 times each, snf and
abelianization, which share one kind, 2 times each, and one malformed
request, the smallest whole share.  Inputs rarely repeat.  Sizes follow the
defaults of `parabolic verify`:

- orbit --n: |n| heavy-tailed, P(|n| >= k) = 1/k, capped at n_max = 1000;
- member --word, with and without --q: plain-letter and caret words whose
  length is log-uniform up to 2 * 10^4 letters, so parse cost per letter
  shows; half are products of words known to fix the origin (mod q or
  exactly), half random;
- rank --q and member --q: q log-uniform from 2 to q_max = 200;
- core --q: q log-uniform from 2 to 32, kept small, so the
  graph has at most q^2 <= 1024 vertices and schreier sees only small
  graphs; at q = 200 one core request took 0.25 s, and cores took 72% of
  the serving time;
- these sizes, and the choices that change a request's cost, are drawn
  stratified (_Stratified), so the mix varies little between seeds;
- snf of small random matrices, abelianization;
- malformed requests, which must exit 2.

Each answer is checked right after the request, outside the timed region,
against tests/oracles.py: the letter-by-letter action (orbit endpoints,
membership, orbit sizes and cores by a reference breadth-first search) and
determinantal divisors (snf, abelianization).  Requests are timed in
segments of about common.SEGMENT_S seconds, each scaled by the host speed
sampled during it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from common import (
    SEGMENT_S,
    Outcome,
    caret_form,
    free_reduce,
    inverse,
    median,
    origin_loop,
    random_reduced,
    random_runs,
    tail,
)

# the host speed probe that tracks this workload (common.Speed)
PROBE = "bfs"

DECK = ["orbit", "member", "rank", "core"] * 4 + ["snf", "abelianization"] * 2 + ["malformed"]
LIMITS = {
    "full": {"orbit_n": 1000, "word": 20000, "q": 200, "core_q": 32},
    "tiny": {"orbit_n": 40, "word": 400, "q": 12, "core_q": 8},
}
# A run serves a fixed number of requests, so every run of a seed gets the
# same inputs and traced counts repeat.  The reference host serves about 140
# requests per wall second, checks included, so a run lasts about --seconds.
REQUESTS_PER_SECOND = 140
STRATA = 16


class _Reference:
    """Expected answers from tests/oracles.py, cached per input.  Only
    small results are kept, so the cache adds little to peak RSS."""

    def __init__(self, oracles):
        self.o = oracles
        self._index: dict[int, int] = {}
        self._core: dict[int, frozenset] = {}
        self._loops = [origin_loop(n) for n in range(-12, 13)]

    def _orbit(self, q: int) -> tuple[list, list]:
        """Points of the orbit of (0, 0) mod q and their U, V successors."""
        step = self.o.step_point
        index = {(0, 0): 0}
        points = [(0, 0)]
        succ = []
        i = 0
        while i < len(points):
            x, y = points[i]
            i += 1
            row = []
            for c in "UVuv":
                nx, ny = step(c, x, y)
                p = (nx % q, ny % q)
                if p not in index:
                    index[p] = len(points)
                    points.append(p)
                row.append(index[p])
            succ.append(row[:2])
        return points, succ

    def index(self, q: int) -> int:
        if q not in self._index:
            self._index[q] = len(self._orbit(q)[0])
        return self._index[q]

    def core_points(self, q: int) -> frozenset:
        """Vertices left after repeatedly deleting vertices of degree <= 1,
        a self-loop counting twice."""
        if q in self._core:
            return self._core[q]
        points, succ = self._orbit(q)
        nbrs = [[] for _ in points]
        for v, row in enumerate(succ):
            for t in row:
                nbrs[v].append(t)
                nbrs[t].append(v)
        deg = [len(a) for a in nbrs]
        alive = [True] * len(points)
        stack = [v for v in range(len(points)) if deg[v] <= 1]
        while stack:
            v = stack.pop()
            if not alive[v]:
                continue
            alive[v] = False
            for t in nbrs[v]:
                if alive[t]:
                    deg[t] -= 1
                    if deg[t] <= 1:
                        stack.append(t)
        self._core[q] = frozenset(points[v] for v in range(len(points)) if alive[v])
        return self._core[q]

    def abelianization(self) -> tuple[int, list[int]]:
        """(free rank, torsion) from the relations (A - I) applied to the
        scaled lattice, A the linear parts of U and V."""
        cols = []
        for m in (self.o.M3_U, self.o.M3_V):
            for e in ((1, 0), (0, 1)):
                cols.append(tuple(m[i][0] * e[0] + m[i][1] * e[1] - e[i] for i in range(2)))
        factors = self.o.determinantal_divisors([[c[0] for c in cols], [c[1] for c in cols]])
        return 2 + (2 - len(factors)), [f for f in factors if f > 1]

    def loop_word(self, rng, letters: int, q: int | None) -> str:
        """Product of words fixing the origin (mod q when q is given)."""
        parts = []
        size = 0
        while size < letters:
            if q is not None and rng.random() < 0.5:
                r = random_reduced(rng, rng.randint(0, 20))
                part = r + rng.choice("UV") * q + inverse(r)
            else:
                part = rng.choice(self._loops)
            parts.append(part)
            size += len(part)
        return "".join(parts)


class _Stratified:
    """Uniform draws in [0, 1), one stream per named choice.  Each round of
    STRATA draws of a stream hits each of STRATA equal strata once, in a
    seeded order, so the mix of request sizes varies little between seeds."""

    def __init__(self, rng):
        self.rng = rng
        self.rounds: dict[str, list[int]] = {}

    def __call__(self, name: str) -> float:
        todo = self.rounds.get(name)
        if not todo:
            todo = self.rounds[name] = list(range(STRATA))
            self.rng.shuffle(todo)
        return (todo.pop() + self.rng.random()) / STRATA


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _make(rng, u: _Stratified, kind: str, lim: dict, ref: _Reference) -> tuple[list[str], tuple]:
    """One request: (argv, expectation).  Sizes and the choices that change
    a request's cost come from u."""
    fmt = ["--format", "json"] if u(f"{kind}.format") < 0.3 else []
    if kind == "orbit":
        a = min(lim["orbit_n"], int(1 / (1 - u("orbit.n"))))
        n = a if u("orbit.sign") < 0.5 else 1 - a
        return ["orbit", "--n", str(n), *fmt], (kind, n, bool(fmt))
    if kind == "member":
        q = _log_uniform(u("member.q"), 2, lim["q"] + 1) if u("member.has_q") < 0.5 else None
        letters = _log_uniform(u("member.letters"), 8, lim["word"])
        plain = u("member.plain") < 0.5
        if u("member.loop") < 0.5:
            text = ref.loop_word(rng, letters, q)
        else:
            text = random_reduced(rng, letters) if plain else random_runs(rng, letters)
        member = ref.o.act_letterwise(text, 0, 0, q) == (0, 0)
        word = text if plain else caret_form(rng, text)
        qarg = ["--q", str(q)] if q is not None else []
        return ["member", "--word", word, *qarg, *fmt], (kind, text, q, member, bool(fmt))
    if kind in ("rank", "core"):
        q = _log_uniform(u(f"{kind}.q"), 2, lim["q" if kind == "rank" else "core_q"] + 1)
        return [kind, "--q", str(q), *fmt], (kind, q, bool(fmt))
    if kind == "snf":
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        sep = rng.choice((" ", ", "))
        matrix = "; ".join(sep.join(map(str, r)) for r in rows)
        return ["snf", "--matrix", matrix, *fmt], (kind, rows, bool(fmt))
    if kind == "abelianization":
        q = rng.randint(2, 10**6)
        return ["abelianization", "--q", str(q), *fmt], (kind, q, bool(fmt))
    bad = rng.choice(
        (
            ["member", "--word", random_reduced(rng, 12) + "x" + random_reduced(rng, 5)],
            ["member", "--word", rng.choice(("U^", "V^-", "u^ ^2"))],
            ["rank", "--q", str(rng.randint(-5, 1))],
            ["orbit", "--n", "abc"],
            ["snf", "--matrix", "1 2; 3"],
            ["core", "--q", "3", "--depth", "4"],
            ["abelianization", "--q", "1"],
            ["frobnicate"],
        )
    )
    return bad, ("malformed",)


def _lines(out: str) -> dict[str, str]:
    d = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            d[key] = value
    return d


def _check(rc, out: str, expect: tuple, ref: _Reference) -> str | None:
    """None when the answer is right, else a note saying what is wrong."""
    kind = expect[0]
    if kind == "malformed":
        return None if rc == 2 and out == "" else f"exit {rc}, stdout {out[:60]!r}"
    if rc != 0:
        return f"exit {rc}"
    if kind == "orbit":
        _, n, as_json = expect
        if as_json:
            d = json.loads(out)
            word, length, end = d["word"], d["length"], tuple(d["endpoint"])
            ok = d["n"] == n and d["verified"] is True
        else:
            d = _lines(out)
            word, length = d["word"], int(d["length"])
            end = tuple(int(t) for t in d["endpoint"].strip("()").split(","))
            ok = d["n"] == str(n)
        reached = ref.o.act_letterwise(word, 0, 0)
        if ok and reached == (n, 1 - n) and end == reached and length == len(word):
            return None
        return f"orbit {n}: reached {reached}, endpoint {end}, length {length}"
    if kind == "member":
        _, text, q, member, as_json = expect
        if as_json:
            d = json.loads(out)
            ok = d == {"word": free_reduce(text), "modulus": q, "member": member}
        else:
            ok = out == ("true\n" if member else "false\n")
        return None if ok else f"member mod {q}: expected {member}"
    if kind == "rank":
        _, q, as_json = expect
        index = ref.index(q)
        want = {"q": q, "index": index, "rank": index + 1, "guaranteed_minimum": q + 1}
        if as_json:
            ok = json.loads(out) == want
        else:
            ok = out == f"q = {q}\nindex = {index}\nrank = {index + 1}\nrank >= {q + 1}\n"
        return None if ok else f"rank {q}: expected index {index}"
    if kind == "core":
        _, q, as_json = expect
        core = ref.core_points(q)
        if as_json:
            d = json.loads(out)
            shown = [tuple(p) for p in d["vertices"]]
            ok = d["kind"] == "exact" and d["count"] == len(core) and set(shown) == core
        else:
            d = _lines(out)
            listed = d["vertices"].split(" ...")[0]
            shown = [
                tuple(int(t) for t in p.split(","))
                for p in listed.strip("()").split("), (")
                if p
            ]
            ok = d["kind"] == "exact" and int(d["count"]) == len(core)
            ok = ok and len(shown) == min(12, len(core)) and set(shown) <= core
        return None if ok else f"core {q}: expected {len(core)} vertices"
    if kind == "snf":
        _, rows, as_json = expect
        factors = ref.o.determinantal_divisors(rows)
        if as_json:
            ok = json.loads(out) == {"invariant_factors": factors}
        else:
            ok = out == (" ".join(map(str, factors)) if factors else "(none)") + "\n"
        return None if ok else f"snf {rows}: expected {factors}"
    if kind == "abelianization":
        _, q, as_json = expect
        free, torsion = ref.abelianization()
        if as_json:
            want = {"q": q, "free_rank": free, "torsion": torsion,
                    "min_generators": free + len(torsion)}
            ok = json.loads(out) == want
        else:
            parts = " x ".join(f"Z/{t}" for t in torsion) or "trivial"
            ok = out == (
                f"q = {q}\nabelianization = Z^{free} x {parts}\n"
                f"min_generators = {free + len(torsion)}\n"
            )
        return None if ok else f"abelianization {q}"
    raise ValueError(kind)


def run(P, oracles, out: Outcome, seed: int, seconds: float, scale: str, tracer) -> None:
    rng = random.Random(seed)
    u = _Stratified(rng)
    lim = LIMITS[scale]
    ref = _Reference(oracles)
    cli = P.cli
    requests = int(REQUESTS_PER_SECOND * seconds)
    segment_end = out.speed.now() + SEGMENT_S
    deck: list[str] = []
    while out.attempted < requests:
        if not deck:
            deck = list(DECK)
            rng.shuffle(deck)
        argv, expect = _make(rng, u, deck.pop(), lim, ref)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = out.speed.now()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:
                rc = exc
            t1 = out.speed.now()
        out.attempted += 1
        out.wall.append(t1 - t0)
        try:
            note = _check(rc, stdout.getvalue(), expect, ref)
        except (ValueError, KeyError, TypeError) as exc:
            note = f"unreadable output: {type(exc).__name__}: {exc}"
        if note is not None:
            out.fail(f"{' '.join(a[:40] for a in argv)}: {note}")
        if out.speed.now() >= segment_end:
            out.settle()
            segment_end = out.speed.now() + SEGMENT_S
    out.settle()
    # requests per reference second of serving time, excluding the client's own work
    out.throughput = out.attempted / sum(out.latencies)
    p_tail, label = tail(out.latencies)
    out.named["query_p50_ms"] = (median(out.latencies) * 1e3, "ms")
    out.named[f"query_{label}_ms"] = (p_tail * 1e3, "ms")
    out.named["queries_per_s"] = (out.throughput, "1/s")
