"""Command line front end: one-shot computations plus the full verification run.

Every command is deterministic; the verification report serializes to
byte-identical JSON across runs with equal parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field

from .action import (
    DEFAULT_WITNESS,
    act,
    loop_check,
    marked_point,
    witness_sweep,
    witness_word,
)
from .linear import cocycle, freeness_sweep
from .ranks import (
    abelianization,
    membership,
    nielsen_schreier_rank,
    smith_normal_form,
    stabilizer_index,
)
from .schreier import (
    _MAX_BALL_DEPTH,
    _MAX_COUNT_MODULUS,
    build_ball,
    build_mod_q,
    certified_core,
    core_exact,
    export,
    is_loop_at_base,
    spanning_tree_generators,
)
from .words import ALPHABET, Word, _INVERSE_CHAR, parse

OUTPUT_DIR_ENV = "PARABOLIC_OUT_DIR"
REPORT_SCHEMA_VERSION = 1
_RNG_SEED = 0x5EED
_ORACLE_MODULI = (2, 3, 4, 5, 10)


@dataclass(frozen=True)
class CheckResult:
    id: str
    claim: str
    anchor: str
    status: str
    details: str


@dataclass
class VerificationReport:
    parameters: dict
    checks: list[CheckResult] = field(default_factory=list)

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
            "checks": [
                {
                    "id": c.id,
                    "claim": c.claim,
                    "anchor": c.anchor,
                    "status": c.status,
                    "details": c.details,
                }
                for c in self.checks
            ],
            "summary": self.summary(),
        }
        return json.dumps(obj, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.status.upper():4} {c.id}: {c.claim} [{c.details}]")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines) + "\n"


def _random_reduced_word(rng: random.Random, length: int) -> Word:
    out = []
    for _ in range(length):
        choices = [c for c in ALPHABET if not out or c != _INVERSE_CHAR[out[-1]]]
        out.append(rng.choice(choices))
    return Word._raw("".join(out))


def _core_evidence(depth: int) -> tuple[list[int], list[tuple[int, tuple[int, int]]]]:
    """Certified core counts of the balls 4..depth, and the (depth, point)
    pairs from depth 5 on where a base marked point is not certified.  The
    balls are built and read one at a time, not kept for the whole run."""
    counts = []
    uncertified = []
    for d in range(4, depth + 1):
        ball = build_ball(d)
        core = certified_core(ball, DEFAULT_WITNESS).core_vertices
        counts.append(len(core))
        if d >= 5:
            uncertified += [(d, pt) for pt in ((0, 1), (1, 0)) if ball.vertex_id(pt) not in core]
    return counts, uncertified


def run_verification(
    n_max: int = 1000, q_max: int = 200, depth: int = 10, sweep_len: int = 10
) -> VerificationReport:
    """Re-derive every desk-scale claim and collect pass/fail evidence.

    Parameter guards raise up front; failures of individual checks are
    recorded in the report and never abort the run.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not 2 <= q_max <= _MAX_COUNT_MODULUS:
        raise ValueError(f"q_max must be in [2, {_MAX_COUNT_MODULUS}], got {q_max}")
    if not 4 <= depth <= _MAX_BALL_DEPTH:
        raise ValueError(f"depth must be in [4, {_MAX_BALL_DEPTH}], got {depth}")
    if sweep_len < 1:
        raise ValueError(f"sweep_len must be >= 1, got {sweep_len}")

    report = VerificationReport(
        parameters={"n_max": n_max, "q_max": q_max, "depth": depth, "sweep_len": sweep_len}
    )

    def record(check_id: str, claim: str, anchor: str, body) -> None:
        try:
            details = body()
            status = "pass"
        except Exception as exc:  # an honest failure beats an aborted run
            details = f"{type(exc).__name__}: {exc}"
            status = "fail"
        report.checks.append(CheckResult(check_id, claim, anchor, status, details))

    def freeness_body() -> str:
        res = freeness_sweep(sweep_len)
        if not res.passed:
            raise AssertionError(f"identity at {res.counterexample}")
        return f"{res.words_checked} words of length <= {sweep_len} checked"

    record(
        "freeness-sweep",
        f"no nonempty reduced word of length <= {sweep_len} evaluates to the identity matrix",
        "the two unipotent generators span a free group of rank 2",
        freeness_body,
    )

    def witness_body() -> str:
        count = 0
        max_len = 0
        # each WitnessSchedule is certified against marked_point(n) as it is made
        for sched in witness_sweep(n_max):
            count += 1
            max_len = max(max_len, len(sched.word))
        return f"{count} witness words verified, longest {max_len} letters"

    record(
        "orbit-witnesses",
        f"every marked point (n, 1-n) with |n| <= {n_max} is reached from the origin"
        " by an explicit verified word",
        "the orbit of the origin contains the whole line x + y = 1",
        witness_body,
    )

    def loops_body() -> str:
        swap = Word("uV")
        for n in range(-n_max, n_max + 1):
            p = marked_point(n).point
            if act(swap, p) != marked_point(1 - n).point:
                raise AssertionError(f"U^-1 V at marked point {n}")
            if not loop_check(DEFAULT_WITNESS, p):
                raise AssertionError(f"witness loop open at marked point {n}")
        return f"checked marked points |n| <= {n_max}"

    record(
        "line-loops",
        "U^-1 V swaps the marked points n and 1-n, and (U^-1 V)^2 fixes every marked point",
        "the invariant line carries a loop through each of its points",
        loops_body,
    )

    counts, uncertified = _core_evidence(depth)

    def core_growth_body() -> str:
        if any(c <= 0 for c in counts):
            raise AssertionError(f"empty certified core in {counts}")
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise AssertionError(f"certified counts decreased: {counts}")
        return "counts at depths 4..%d: %s" % (depth, counts)

    record(
        "core-growth",
        f"certified core counts are positive and non-decreasing at ball depths 4..{depth}",
        "every vertex of the invariant line lies on a short witness loop, so deeper"
        " exploration certifies more core vertices",
        core_growth_body,
    )

    def core_points_body() -> str:
        if uncertified:
            d, pt = uncertified[0]
            raise AssertionError(f"marked point {pt} not certified at depth {d}")
        return f"depths 5..{depth} contain both base marked points"

    record(
        "core-line-points",
        "the marked points (0, 1) and (1, 0) are certified core vertices from depth 5 on",
        "their witness loops stay within two steps of the origin",
        core_points_body,
    )

    q_small = min(q_max, 50)

    def abelianization_body() -> str:
        for q in range(2, q_small + 1):
            desc = abelianization(q)
            if desc.free_rank != 2 or desc.torsion != (2, 2) or desc.min_generators != 4:
                raise AssertionError(f"descriptor {desc} at q={q}")
        return f"Z^2 x (Z/2)^2 with 4 minimal generators for 2 <= q <= {q_small}"

    record(
        "abelianization",
        "each four-generator subgroup built from the scaled lattice abelianizes to"
        " Z^2 x (Z/2)^2, so all four generators are necessary",
        "(U - I) and (V - I) send the scaled lattice onto its doubled sublattices",
        abelianization_body,
    )

    indices = {q: stabilizer_index(q) for q in range(2, q_max + 1)}

    def index_body() -> str:
        for q, idx in indices.items():
            if idx < q:
                raise AssertionError(f"index {idx} < q at q={q}")
        margin_q = min(indices, key=lambda q: indices[q] - q)
        return f"2 <= q <= {q_max}; tightest at q={margin_q} with index {indices[margin_q]}"

    record(
        "stabilizer-index",
        f"the mod-q origin stabilizer has index >= q for 2 <= q <= {q_max}",
        "the orbit of the origin mod q has at least q points",
        index_body,
    )

    def rank_body() -> str:
        for q, idx in indices.items():
            bound = nielsen_schreier_rank(idx, 2)
            if bound != idx + 1 or bound < q + 1:
                raise AssertionError(f"bound {bound} at q={q} (index {idx})")
        return f"rank = index + 1 >= q + 1 for 2 <= q <= {q_max}"

    record(
        "rank-bound",
        "the mod-q stabilizer rank index + 1 is at least q + 1, unbounded in q",
        "Nielsen-Schreier turns growing index into growing rank",
        rank_body,
    )

    def schreier_body() -> str:
        for q in range(2, q_small + 1):
            g = build_mod_q(q)
            gens = spanning_tree_generators(g)
            if len(gens) != indices[q] + 1:
                raise AssertionError(f"{len(gens)} generators at q={q}, index {indices[q]}")
            for w in gens:
                if not membership(w, q):
                    raise AssertionError(f"generator {w} escapes the stabilizer mod {q}")
        return f"generator count = index + 1 and all fix the origin mod q, 2 <= q <= {q_small}"

    record(
        "schreier-generators",
        "spanning-tree generators number exactly index + 1 and all fix the origin mod q",
        "a breadth-first spanning tree of the orbital graph reads off a free basis",
        schreier_body,
    )

    def oracle_body() -> str:
        rng = random.Random(_RNG_SEED)
        graphs = {q: build_mod_q(q) for q in _ORACLE_MODULI}
        trials = 0
        for q, g in graphs.items():
            for _ in range(200):
                w = _random_reduced_word(rng, rng.randint(0, 20))
                via_graph = w.is_identity() or is_loop_at_base(g, w)
                c = cocycle(w)
                via_cocycle = c.x % q == 0 and c.y % q == 0
                if via_graph != via_cocycle:
                    raise AssertionError(f"oracles disagree on {w} mod {q}")
                trials += 1
        return f"{trials} random words agreed across moduli {list(_ORACLE_MODULI)}"

    record(
        "membership-oracle",
        "graph loops at the base coincide with vanishing of the translation cocycle",
        "the orbital graph is the coset graph of the origin stabilizer",
        oracle_body,
    )

    return report


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _format_word(w: Word) -> str:
    return w.text if w.text else "<identity>"


def _cmd_verify(args) -> int:
    report = run_verification(args.n_max, args.q_max, args.depth, args.sweep_len)
    out_path = args.out
    if out_path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        out_path = os.path.join(out_dir, "verification.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
        print(f"report written to {out_path}")
    return 0 if report.all_passed else 1


def _cmd_orbit(args) -> int:
    sched = witness_word(args.n)  # certified to reach the marked point
    endpoint = marked_point(sched.n).point
    if args.format == "json":
        _print_json(
            {
                "n": sched.n,
                "word": sched.word.text,
                "length": len(sched.word),
                "endpoint": [endpoint.x, endpoint.y],
                "verified": True,
            }
        )
    else:
        print(f"n = {sched.n}")
        print(f"word = {_format_word(sched.word)}")
        print(f"length = {len(sched.word)}")
        print(f"endpoint = {endpoint}")
    return 0


def _build_graph_from_args(args) -> object:
    if (args.q is None) == (args.depth is None):
        raise ValueError("exactly one of --q and --depth is required")
    if args.q is not None:
        return build_mod_q(args.q)
    return build_ball(args.depth)


def _cmd_graph(args) -> int:
    g = _build_graph_from_args(args)
    payload = export(g, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"{args.format} graph with {len(g)} vertices written to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_core(args) -> int:
    # a bad witness is refused before the ball is built; mod q it is unused
    witness = parse(args.witness) if args.q is None else None
    g = _build_graph_from_args(args)
    if args.q is not None:
        rep = core_exact(g)
    else:
        rep = certified_core(g, witness)
    ids = sorted(rep.core_vertices)
    points = [[g.vertices[i].x, g.vertices[i].y] for i in ids]
    if args.format == "json":
        _print_json(
            {
                "kind": rep.kind,
                "count": len(ids),
                "witness": rep.witness.text if rep.witness else None,
                "vertices": points,
            }
        )
    else:
        print(f"kind = {rep.kind}")
        if rep.witness is not None:
            print(f"witness = {_format_word(rep.witness)}")
        print(f"count = {len(ids)}")
        shown = ", ".join(f"({x}, {y})" for x, y in points[:12])
        more = "" if len(points) <= 12 else f" ... and {len(points) - 12} more"
        print(f"vertices = {shown}{more}")
    return 0


def _cmd_rank(args) -> int:
    idx = stabilizer_index(args.q)
    rank = nielsen_schreier_rank(idx, 2)
    if args.format == "json":
        _print_json(
            {"q": args.q, "index": idx, "rank": rank, "guaranteed_minimum": args.q + 1}
        )
    else:
        print(f"q = {args.q}")
        print(f"index = {idx}")
        print(f"rank = {rank}")
        print(f"rank >= {args.q + 1}")
    return 0


def _cmd_abelianization(args) -> int:
    desc = abelianization(args.q)
    if args.format == "json":
        _print_json(
            {
                "q": args.q,
                "free_rank": desc.free_rank,
                "torsion": list(desc.torsion),
                "min_generators": desc.min_generators,
            }
        )
    else:
        torsion = " x ".join(f"Z/{t}" for t in desc.torsion) or "trivial"
        print(f"q = {args.q}")
        print(f"abelianization = Z^{desc.free_rank} x {torsion}")
        print(f"min_generators = {desc.min_generators}")
    return 0


def _cmd_member(args) -> int:
    w = parse(args.word)
    result = membership(w, args.q)
    if args.format == "json":
        _print_json({"word": w.text, "modulus": args.q, "member": result})
    else:
        print("true" if result else "false")
    return 0


def _cmd_snf(args) -> int:
    rows = []
    for chunk in args.matrix.split(";"):
        if chunk.strip():
            rows.append([int(tok) for tok in chunk.replace(",", " ").split()])
    factors = smith_normal_form(rows)
    if args.format == "json":
        _print_json({"invariant_factors": factors})
    else:
        print(" ".join(map(str, factors)) if factors else "(none)")
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic",
        description="Exact verification toolkit for the affine orbital graphs of the"
        " Sanov generators and the rank bounds they certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every check and emit a report")
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--q-max", type=int, default=200)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--sweep-len", type=int, default=10)
    p.add_argument("--out", help="JSON report path (default $%s/verification.json)" % OUTPUT_DIR_ENV)
    _add_format(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("orbit", help="build and verify the witness word for one marked point")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("graph", help="export an orbital graph")
    p.add_argument("--q", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("core", help="exact core mod q, or certified core of a ball")
    p.add_argument("--q", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--witness", default=DEFAULT_WITNESS.text)
    _add_format(p)
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("rank", help="stabilizer index and rank bound for one q")
    p.add_argument("--q", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("abelianization", help="abelian invariants of the q-th subgroup")
    p.add_argument("--q", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_abelianization)

    p = sub.add_parser("member", help="does a word fix the origin (optionally mod q)?")
    p.add_argument("--word", required=True)
    p.add_argument("--q", type=int)
    _add_format(p)
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help='rows separated by ";", e.g. "0 2 0 0; 0 0 2 0"')
    _add_format(p)
    p.set_defaults(fn=_cmd_snf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
