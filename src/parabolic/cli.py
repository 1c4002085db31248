"""Command line front end: one-shot computations plus the full verification
run, whose checks live in parabolic.verify.

Every command is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .action import DEFAULT_WITNESS, marked_point, witness_length, witness_word
from .ranks import (
    abelianization,
    membership,
    nielsen_schreier_rank,
    smith_normal_form,
    stabilizer_index,
)
from .schreier import build_ball, build_mod_q, certified_core, core_exact, export
from .verify import run_verification
from .words import Word, parse

OUTPUT_DIR_ENV = "PARABOLIC_OUT_DIR"
# the most letters of a word the CLI prints or walks letter by letter
_MAX_LETTERS = 10**7


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _check_letters(length: int) -> None:
    # checked on the length, which the syllables give without building the text
    if length > _MAX_LETTERS:
        raise ValueError(f"word of {length} letters exceeds the budget of {_MAX_LETTERS}")


def _format_word(w: Word) -> str:
    return w.text if w.text else "<identity>"


def _cmd_verify(args) -> int:
    report = run_verification(args.n_max, args.q_max, args.depth, args.sweep_len)
    out_path = args.out
    if out_path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        out_path = os.path.join(out_dir, "verification.json")
    encoded = report.to_json()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(encoded)
    if args.format == "json":
        sys.stdout.write(encoded)
    else:
        sys.stdout.write(report.to_text())
        print(f"report written to {out_path}")
    return 0 if report.all_passed else 1


def _cmd_orbit(args) -> int:
    _check_letters(witness_length(args.n))
    sched = witness_word(args.n)  # certified to reach the marked point
    endpoint = marked_point(sched.n).point
    if args.format == "json":
        _print_json(
            {
                "n": sched.n,
                "word": sched.word.text,
                "length": len(sched.word),
                "endpoint": endpoint,
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
    if witness is not None:
        _check_letters(len(witness))
    g = _build_graph_from_args(args)
    if args.q is not None:
        rep = core_exact(g)
    else:
        rep = certified_core(g, witness)
    # only the points printed are read: an exact core is every vertex, so
    # its ids need no sort and its points are read in one pass
    every = len(rep.core_vertices) == len(g.points)
    ids = range(len(g.points)) if every else sorted(rep.core_vertices)
    if args.format == "json":
        points = list(g.points) if every else [g.points[i] for i in ids]
        # the layout json.dumps(..., indent=2) prints, with the vertex list
        # written in one join rather than encoded value by value
        vertices = "[]"
        if points:
            rows = ",\n".join([f"    [\n      {x},\n      {y}\n    ]" for x, y in points])
            vertices = f"[\n{rows}\n  ]"
        witness = rep.witness.text if rep.witness else None
        print(
            "{\n"
            f'  "kind": {json.dumps(rep.kind)},\n'
            f'  "count": {len(ids)},\n'
            f'  "witness": {json.dumps(witness)},\n'
            f'  "vertices": {vertices}\n'
            "}"
        )
    else:
        print(f"kind = {rep.kind}")
        if rep.witness is not None:
            print(f"witness = {_format_word(rep.witness)}")
        print(f"count = {len(ids)}")
        shown = ", ".join(f"({x}, {y})" for x, y in map(g.points.__getitem__, ids[:12]))
        more = "" if len(ids) <= 12 else f" ... and {len(ids) - 12} more"
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
        _check_letters(len(w))
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


# the parser main() reuses; built on its first call, not at import
_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; main() keeps the one it built first."""
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


def _command_parser(parser: argparse.ArgumentParser, name: str):
    """The subparser of command `name`, or None if no command has that name."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices.get(name)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The namespace the top-level parser gives argv (sys.argv[1:] if None),
    or its exit.  argv that starts with a command is parsed by that
    command's subparser alone, the parser the top-level one would hand the
    rest to.  Anything else, and arguments the subparser leaves over, goes
    through the top-level parser, which answers or reports them."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = _command_parser(_parser, argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  May be called repeatedly in
    one process: the parser depends on no argv, and each call parses into a
    fresh namespace and computes its answer anew."""
    args = _parse(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
