"""The verification run: each desk-scale claim re-derived by one check of
CHECKS.  The report serializes to byte-identical JSON across runs with
equal parameters.

The paths each check's values are computed on, independently of each other:

    check                paths
    -------------------  ---------------------------------------------------
    freeness-sweep       the meet-in-the-middle sweep of matrix products
    orbit-witnesses      act, one syllable on each predecessor's endpoint
    line-loops           act; the six ints of the affine maps eval_affine
                         multiplies out, applied to each marked point
    core-growth,         certified_core_depths; at the top depth also
    core-line-points     certified_core, on the same ball
    abelianization       the Smith normal form of the relation matrix,
                         against the closed form Z^2 x (Z/2)^2
    stabilizer-index,    the V-cycle label count stabilizer_index, which
    rank-bound           stops at q labels, or at q // 2 when 4 | q (the
                         orbit mod 4 bounds it); for q <= 50 also the
                         breadth-first orbit mod q, whose spanning tree
                         schreier-generators counts
    schreier-generators  the spanning-tree count against the label count;
                         each generator walked mod q by membership
    membership-oracle    a loop at the base of the mod-q graph, whose
                         stored edges are first audited against action.step;
                         the vanishing of the translation cocycle

Some checks still rest on one path: stabilizer-index and rank-bound for
50 < q <= q_max, orbit-witnesses, freeness-sweep, and core-growth below
the top depth (and core-line-points, which reads the same evidence).
"""

from __future__ import annotations

import gc
import json
import random
from collections import Counter
from itertools import accumulate
from typing import NamedTuple

from .action import DEFAULT_WITNESS, act, loop_check, witness_sweep
from .linear import cocycle, eval_affine, freeness_sweep
from .ranks import (
    _MAX_COUNT_MODULUS,
    abelianization,
    membership,
    nielsen_schreier_rank,
    stabilizer_index,
)
from .schreier import (
    _MAX_BALL_DEPTH,
    build_ball,
    build_mod_q,
    certified_core,
    certified_core_depths,
    check_edge_consistency,
    is_loop_at_base,
    spanning_tree_generators,
)
from .words import Word, _NEXT_LETTERS

REPORT_SCHEMA_VERSION = 1
_RNG_SEED = 0x5EED
_ORACLE_MODULI = (2, 3, 4, 5, 10)
# the largest q for which a check builds a graph or a Smith normal form per q
_Q_SMALL = 50
# the freeness sweep certifies 2 * (3^L - 1) words, about 9.6e6 at L = 14,
# from 2 * 3^ceil(L/2) - 1 matrix products: 4,373 at L = 14
_MAX_SWEEP_LEN = 14
# the witness sweep acts one syllable per witness and copies its
# predecessor's syllables once, about n_max^2 pointers in all: 0.012 s at
# 1000, 0.81 s at 10,000 (best of 15 and of 5 on a shared 2-core Xeon VM,
# Python 3.11.7)
_MAX_N_MAX = 10_000


class CheckResult(NamedTuple):
    id: str
    claim: str
    anchor: str
    status: str
    details: str


class VerificationReport(NamedTuple):
    """The run's parameters and its CheckResults in report order, both
    NamedTuples."""

    parameters: dict
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def summary(self) -> dict:
        passed = sum(c.status == "pass" for c in self.checks)
        return {"total": len(self.checks), "passed": passed, "failed": len(self.checks) - passed}

    def to_json(self) -> str:
        obj = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "parameters": self.parameters,
            "checks": [c._asdict() for c in self.checks],
            "summary": self.summary(),
        }
        return json.dumps(obj, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{c.status.upper():4} {c.id}: {c.claim} [{c.details}]" for c in self.checks]
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines) + "\n"


def _random_reduced_word(rng: random.Random, length: int) -> Word:
    out = [""]
    for _ in range(length):
        out.append(rng.choice(_NEXT_LETTERS[out[-1]]))
    return Word("".join(out))


def _core_evidence(depth: int) -> tuple[list[int], list[tuple[int, tuple[int, int]]]]:
    """Certified core counts of the balls 4..depth, and the (depth, point)
    pairs from depth 5 on where a base marked point is not certified.

    Only the ball of the top depth is built: every smaller ball is a prefix
    of its vertex ids, so certified_core_depths reads the core of each off
    it in one walk.  certified_core, the path the CLI takes, is run on the
    same ball and must find the top depth's core, or the evidence fails."""
    ball = build_ball(depth)
    first = certified_core_depths(ball, depth, DEFAULT_WITNESS)
    core = certified_core(ball, DEFAULT_WITNESS).core_vertices
    if core != first.keys():
        raise AssertionError(
            f"certified_core finds {len(core)} core vertices at depth {depth},"
            f" the per-depth walk {len(first)}"
        )
    # counts[d] is the size of the core of ball(d): the vertices first
    # certified at a depth <= d
    per_depth = Counter(first.values())
    counts = list(accumulate(per_depth[d] for d in range(depth + 1)))
    uncertified = [
        (d, pt)
        for d in range(5, depth + 1)
        for pt in ((0, 1), (1, 0))
        if first.get(ball.vertex_id(pt), depth + 1) > d
    ]
    return counts[4:], uncertified


def _indices(q_max: int) -> dict[int, int]:
    return {q: stabilizer_index(q) for q in range(2, q_max + 1)}


def _shared(ev: dict, build, arg: int):
    """build(arg), computed on first use and kept in ev for the run.  An
    exception is kept too, so every check that reads it fails with it."""
    if build not in ev:
        try:
            ev[build] = build(arg)
        except Exception as exc:
            ev[build] = exc
    if isinstance(ev[build], Exception):
        raise ev[build]
    return ev[build]


def _freeness(p: dict, ev: dict) -> str:
    res = freeness_sweep(p["sweep_len"])
    if not res.passed:
        raise AssertionError(f"identity at {res.counterexample}")
    return f"{res.words_checked} words of length <= {p['sweep_len']} checked"


def _witnesses(p: dict, ev: dict) -> str:
    # witness_sweep acts each word, or the syllable it prepends, before yielding it
    lengths = [len(sched.word) for sched in witness_sweep(p["n_max"])]
    return f"{len(lengths)} witness words verified, longest {max(lengths)} letters"


def _line_loops(p: dict, ev: dict) -> str:
    # two paths: act walks each word's syllables on the point, and the
    # affine map eval_affine multiplies out of the letters is applied to it.
    # The marked point n is the plain pair (n, 1 - n), and its image under
    # U^-1 V is (1 - n, n)
    n_max = p["n_max"]
    swap = Word("uV")
    sa, sb, sc, sd, sx, sy = eval_affine(swap)
    la, lb, lc, ld, lx, ly = eval_affine(DEFAULT_WITNESS)
    for n in range(-n_max, n_max + 1):
        m = 1 - n
        pt = (n, m)
        image = (m, n)
        if act(swap, pt) != image:
            raise AssertionError(f"U^-1 V at marked point {n}")
        if (sa * n + sb * m + sx, sc * n + sd * m + sy) != image:
            raise AssertionError(f"affine map of U^-1 V at marked point {n}")
        if not loop_check(DEFAULT_WITNESS, pt):
            raise AssertionError(f"witness loop open at marked point {n}")
        if (la * n + lb * m + lx, lc * n + ld * m + ly) != pt:
            raise AssertionError(f"affine map of the witness loop moves marked point {n}")
    return f"checked marked points |n| <= {n_max}"


def _core_growth(p: dict, ev: dict) -> str:
    counts, _ = _shared(ev, _core_evidence, p["depth"])
    if any(c <= 0 for c in counts):
        raise AssertionError(f"empty certified core in {counts}")
    if any(a > b for a, b in zip(counts, counts[1:])):
        raise AssertionError(f"certified counts decreased: {counts}")
    return "counts at depths 4..%d: %s" % (p["depth"], counts)


def _core_points(p: dict, ev: dict) -> str:
    _, uncertified = _shared(ev, _core_evidence, p["depth"])
    if uncertified:
        d, pt = uncertified[0]
        raise AssertionError(f"marked point {pt} not certified at depth {d}")
    return f"depths 5..{p['depth']} contain both base marked points"


def _abelianization(p: dict, ev: dict) -> str:
    q_small = min(p["q_max"], _Q_SMALL)
    for q in range(2, q_small + 1):
        desc = abelianization(q)
        if desc.free_rank != 2 or desc.torsion != (2, 2) or desc.min_generators != 4:
            raise AssertionError(f"descriptor {desc} at q={q}")
    return f"Z^2 x (Z/2)^2 with 4 minimal generators for 2 <= q <= {q_small}"


def _stabilizer_index(p: dict, ev: dict) -> str:
    indices = _shared(ev, _indices, p["q_max"])
    for q, idx in indices.items():
        if idx < q:
            raise AssertionError(f"index {idx} < q at q={q}")
    margin_q = min(indices, key=lambda q: indices[q] - q)
    return f"2 <= q <= {p['q_max']}; tightest at q={margin_q} with index {indices[margin_q]}"


def _rank_bound(p: dict, ev: dict) -> str:
    for q, idx in _shared(ev, _indices, p["q_max"]).items():
        bound = nielsen_schreier_rank(idx, 2)
        if bound != idx + 1 or bound < q + 1:
            raise AssertionError(f"bound {bound} at q={q} (index {idx})")
    return f"rank = index + 1 >= q + 1 for 2 <= q <= {p['q_max']}"


def _schreier_generators(p: dict, ev: dict) -> str:
    indices = _shared(ev, _indices, p["q_max"])
    q_small = min(p["q_max"], _Q_SMALL)
    for q in range(2, q_small + 1):
        g = build_mod_q(q)
        gens = spanning_tree_generators(g)
        if len(gens) != indices[q] + 1:
            raise AssertionError(f"{len(gens)} generators at q={q}, index {indices[q]}")
        for w in gens:
            if not membership(w, q):
                raise AssertionError(f"generator {w} escapes the stabilizer mod {q}")
    return f"generator count = index + 1 and all fix the origin mod q, 2 <= q <= {q_small}"


def _membership_oracle(p: dict, ev: dict) -> str:
    rng = random.Random(_RNG_SEED)
    graphs = {q: build_mod_q(q) for q in _ORACLE_MODULI}
    # every stored edge must match the action before a loop is read off it
    for g in graphs.values():
        check_edge_consistency(g)
    trials = 0
    for q, g in graphs.items():
        for _ in range(200):
            w = _random_reduced_word(rng, rng.randint(0, 20))
            via_graph = is_loop_at_base(g, w)
            c = cocycle(w)
            via_cocycle = c.x % q == 0 and c.y % q == 0
            if via_graph != via_cocycle:
                raise AssertionError(f"oracles disagree on {w} mod {q}")
            trials += 1
    return f"{trials} random words agreed across moduli {list(_ORACLE_MODULI)}"


# (id, claim template formatted with the run parameters, anchor, check), in report order
CHECKS = (
    (
        "freeness-sweep",
        "no nonempty reduced word of length <= {sweep_len} evaluates to the identity matrix",
        "the two unipotent generators span a free group of rank 2",
        _freeness,
    ),
    (
        "orbit-witnesses",
        "every marked point (n, 1-n) with |n| <= {n_max} is reached from the origin"
        " by an explicit verified word",
        "the orbit of the origin contains the whole line x + y = 1",
        _witnesses,
    ),
    (
        "line-loops",
        "U^-1 V swaps the marked points n and 1-n, and (U^-1 V)^2 fixes every marked point",
        "the invariant line carries a loop through each of its points",
        _line_loops,
    ),
    (
        "core-growth",
        "certified core counts are positive and non-decreasing at ball depths 4..{depth}",
        "every vertex of the invariant line lies on a short witness loop, so deeper"
        " exploration certifies more core vertices",
        _core_growth,
    ),
    (
        "core-line-points",
        "the marked points (0, 1) and (1, 0) are certified core vertices from depth 5 on",
        "their witness loops stay within two steps of the origin",
        _core_points,
    ),
    (
        "abelianization",
        "each four-generator subgroup built from the scaled lattice abelianizes to"
        " Z^2 x (Z/2)^2, so all four generators are necessary",
        "(U - I) and (V - I) send the scaled lattice onto its doubled sublattices",
        _abelianization,
    ),
    (
        "stabilizer-index",
        "the mod-q origin stabilizer has index >= q for 2 <= q <= {q_max}",
        "the orbit of the origin mod q has at least q points",
        _stabilizer_index,
    ),
    (
        "rank-bound",
        "the mod-q stabilizer rank index + 1 is at least q + 1, unbounded in q",
        "Nielsen-Schreier turns growing index into growing rank",
        _rank_bound,
    ),
    (
        "schreier-generators",
        "spanning-tree generators number exactly index + 1 and all fix the origin mod q",
        "a breadth-first spanning tree of the orbital graph reads off a free basis",
        _schreier_generators,
    ),
    (
        "membership-oracle",
        "graph loops at the base coincide with vanishing of the translation cocycle",
        "the orbital graph is the coset graph of the origin stabilizer",
        _membership_oracle,
    ),
)


def run_verification(
    n_max: int = 1000, q_max: int = 200, depth: int = 10, sweep_len: int = 10
) -> VerificationReport:
    """Re-derive every desk-scale claim and collect pass/fail evidence.

    Parameter guards raise up front; failures of individual checks, and of
    the evidence they share, are recorded in the report and never abort
    the run.

    The run pauses the cyclic garbage collector.  What it allocates, such
    as syllable tuples, points and edge columns, holds no reference cycle,
    and a run leaves 0 unreachable objects behind, so collections would
    trace it and free nothing.  The caller's collector state is restored
    on the way out, also when a check raises.
    """
    if not 1 <= n_max <= _MAX_N_MAX:
        raise ValueError(f"n_max must be in [1, {_MAX_N_MAX}], got {n_max}")
    if not 2 <= q_max <= _MAX_COUNT_MODULUS:
        raise ValueError(f"q_max must be in [2, {_MAX_COUNT_MODULUS}], got {q_max}")
    # below depth 5, core-line-points has no depth to check and core-growth
    # one count to call non-decreasing
    if not 5 <= depth <= _MAX_BALL_DEPTH:
        raise ValueError(f"depth must be in [5, {_MAX_BALL_DEPTH}], got {depth}")
    if not 1 <= sweep_len <= _MAX_SWEEP_LEN:
        raise ValueError(f"sweep_len must be in [1, {_MAX_SWEEP_LEN}], got {sweep_len}")

    params = {"n_max": n_max, "q_max": q_max, "depth": depth, "sweep_len": sweep_len}
    checks = []
    evidence: dict = {}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for check_id, claim, anchor, check in CHECKS:
            try:
                details = check(params, evidence)
                status = "pass"
            except Exception as exc:  # an honest failure beats an aborted run
                details = f"{type(exc).__name__}: {exc}"
                status = "fail"
            checks.append(CheckResult(check_id, claim.format(**params), anchor, status, details))
    finally:
        if was_enabled:
            gc.enable()
    return VerificationReport(params, checks)
