"""Command line front end: one-shot computations plus the full verification
run, whose checks live in parabolic.verify.

Every command is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .action import DEFAULT_WITNESS, marked_point, witness_length, witness_word
from .ranks import (
    abelianization,
    membership,
    nielsen_schreier_rank,
    smith_normal_form,
    stabilizer_index,
)
from .schreier import _json_list, build_ball, build_mod_q, certified_core, core_exact, export
from .verify import run_verification
from .words import parse

OUTPUT_DIR_ENV = "PARABOLIC_OUT_DIR"
# the most letters of a word the CLI prints or walks letter by letter
_MAX_LETTERS = 10**7


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _check_letters(length: int) -> None:
    # checked on the length, which the syllables give without building the
    # text; callers pass Word._len, as len() cannot return more than 2^63 - 1
    if length > _MAX_LETTERS:
        raise ValueError(f"word of {length} letters exceeds the budget of {_MAX_LETTERS}")


def _check_writable(path: str) -> None:
    # refused before any work, by kind before os.access, which passes almost
    # every path for root; the write itself still reports what it meets
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if not os.path.basename(path):
        raise ValueError(f"cannot write {path!r}: it names no file")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path}: {parent} is missing or not a directory")
    target = path if os.path.exists(path) else parent
    if not os.access(target, os.W_OK):
        raise ValueError(f"cannot write {path}: {target} is not writable")


def _cmd_verify(args) -> int:
    out_path = args.out
    if out_path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
        out_path = os.path.join(out_dir, "verification.json")
    _check_writable(out_path)
    report = run_verification(args.n_max, args.q_max, args.depth, args.sweep_len)
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
        print(f"word = {sched.word.text}")
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
    if args.out is not None:
        _check_writable(args.out)
    g = _build_graph_from_args(args)
    payload = export(g, args.format)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"{args.format} graph with {len(g)} vertices written to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_core(args) -> int:
    # a bad witness is refused before any graph is built, in both modes
    witness = parse(args.witness)
    if witness.is_identity():
        raise ValueError("certified_core needs a nonempty witness word")
    _check_letters(witness._len)
    g = _build_graph_from_args(args)
    # only the points printed are read.  An exact core is range(n), every
    # vertex in id order, so its ids need no sort and its points are read in
    # one pass over the columns
    exact = args.q is not None
    if exact:
        rep = core_exact(g)
        ids = rep.core_vertices
    else:
        rep = certified_core(g, witness)
        ids = sorted(rep.core_vertices)
    if args.format == "json":
        points = g.points if exact else map(g.points.__getitem__, ids)
        # the layout json.dumps(..., indent=2) prints, with the vertex list
        # written in one join rather than encoded value by value
        vertices = _json_list([f"    [\n      {x},\n      {y}\n    ]" for x, y in points])
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
            print(f"witness = {rep.witness.text}")
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
        _check_letters(w._len)
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


class Option(NamedTuple):
    """One --FLAG VALUE option of a command, as add_argument declares it."""

    flag: str
    type: Callable | None = None
    choices: tuple | None = None
    default: object = None
    required: bool = False
    help: str | None = None


_FORMAT = Option("--format", choices=("text", "json"), default="text")

# every command, declared once: (name, help, function, options); build_parser
# and the argv reader are both built from this table
COMMANDS = (
    (
        "verify", "run every check and emit a report", _cmd_verify,
        (
            Option("--n-max", int, default=1000), Option("--q-max", int, default=200),
            Option("--depth", int, default=10), Option("--sweep-len", int, default=10),
            Option("--out", help=f"JSON report path (default ${OUTPUT_DIR_ENV}/verification.json)"),
            _FORMAT,
        ),
    ),
    (
        "orbit", "build and verify the witness word for one marked point", _cmd_orbit,
        (Option("--n", int, required=True), _FORMAT),
    ),
    (
        "graph", "export an orbital graph", _cmd_graph,
        (
            Option("--q", int), Option("--depth", int),
            Option("--format", choices=("dot", "json"), default="dot"), Option("--out"),
        ),
    ),
    (
        "core", "exact core mod q, or certified core of a ball", _cmd_core,
        (
            Option("--q", int), Option("--depth", int),
            Option("--witness", default=DEFAULT_WITNESS.text), _FORMAT,
        ),
    ),
    (
        "rank", "stabilizer index and rank bound for one q", _cmd_rank,
        (Option("--q", int, required=True), _FORMAT),
    ),
    (
        "abelianization", "abelian invariants of the q-th subgroup", _cmd_abelianization,
        (Option("--q", int, required=True), _FORMAT),
    ),
    (
        "member", "does a word fix the origin (optionally mod q)?", _cmd_member,
        (Option("--word", required=True), Option("--q", int), _FORMAT),
    ),
    (
        "snf", "Smith normal form of an integer matrix", _cmd_snf,
        (
            Option("--matrix", required=True, help='rows separated by ";", e.g. "0 2 0 0; 0 0 2 0"'),
            _FORMAT,
        ),
    ),
)


def _lookup(name, fn, options) -> tuple:
    dests = [o.flag[2:].replace("-", "_") for o in options]
    flags = {o.flag: (dest, o.type, o.choices) for dest, o in zip(dests, options)}
    defaults = {"command": name, "fn": fn, **{dest: o.default for dest, o in zip(dests, options)}}
    return flags, defaults, {dest for dest, o in zip(dests, options) if o.required}


# what _read reads argv by, per command: (flag -> (dest, type, choices), the
# namespace parse_args starts from, the dests of the required options); type
# and choices are copied out, as reading them off each Option cost up to
# 0.2 us per call (2-core Xeon VM, Python 3.11.7)
_LOOKUP = {name: _lookup(name, fn, options) for name, _, fn, options in COMMANDS}
# the parser main() reuses, built on its first call, not at import
_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """A new parser from COMMANDS on every call; main() keeps the first."""
    parser = argparse.ArgumentParser(
        prog="parabolic",
        description="Exact verification toolkit for the affine orbital graphs of the"
        " Sanov generators and the rank bounds they certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about, fn, options in COMMANDS:
        p = sub.add_parser(name, help=about)
        for o in options:
            p.add_argument(
                o.flag, type=o.type, choices=o.choices, default=o.default, required=o.required,
                help=o.help,
            )
        p.set_defaults(fn=fn)
    return parser


def _read(argv: list) -> argparse.Namespace | None:
    r"""The namespace parse_args gives argv, read off _LOOKUP, when argv is
    COMMAND (--OPTION VALUE)* with each option spelled in full and given
    once, each value passing its type and choices, and each required option
    given; None for any other argv.  A value that starts with - is read only
    if the rest is decimal digits (str.isdecimal: the Unicode digits that
    \d matches), which argparse reads as a negative number on Python
    3.10-3.12 (^-\d+$|^-\d*\.\d+$) and 3.13 (-\.?\d) alike."""
    if len(argv) % 2 == 0 or not isinstance(argv[0], str) or argv[0] not in _LOOKUP:
        return None
    flags, defaults, required = _LOOKUP[argv[0]]
    args = argparse.Namespace()
    values = vars(args)
    values.update(defaults)
    seen = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        if not (isinstance(flag, str) and isinstance(text, str)) or flag not in flags:
            return None
        dest, convert, choices = flags[flag]
        if dest in seen or (text[:1] == "-" and not text[1:].isdecimal()):
            return None
        value = text
        if convert is not None:
            try:
                value = convert(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if choices is not None and value not in choices:
            return None
        seen.add(dest)
        values[dest] = value
    return args if seen.issuperset(required) else None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The namespace the top-level parser gives argv (sys.argv[1:] if None),
    or its exit.  _read answers a well-formed argv in 1.7-2.3 us per call,
    against 10.7-18.0 us through the command's subparser (best of 5 x 3,000
    on three queries-workload requests, 2-core Xeon VM, Python 3.11.7).  The
    top-level parser, which alone prints usage, help and errors, parses
    every argv _read declines: an unknown command or option, an
    abbreviation, --opt=value, a repeated option, -h, --, a missing value,
    any other value that starts with -, one its type or choices refuse, or
    a missing required option."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        args = _parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  May be called repeatedly in
    one process: the parser is built on the first call, and each call parses
    into a fresh namespace and computes its answer anew.  The commands are
    declared once, in COMMANDS; a well-formed argv is read off that table,
    and argparse, built from it too, parses the rest and reports its errors
    (see _parse)."""
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
