"""Command-line interface.

Subcommands cover block enumeration (`nonkostant`, `blocks`), polynomial
queries (`klpoly`, `klv`, `mobius`), complex export (`complex`) and the
exactness decisions (`kostant`, `scat`).  Output formats: plain text, JSON,
and DOT for complexes.  Exit codes: 0 success, 2 invalid input, an unreadable
cache or unwritable output, 3 element budget exceeded.

Each subcommand is one row of `_COMMANDS`, and the parser is built from
those rows.  `_run` checks all input in one order before any answer is
computed: the group (its budget first), the singularity set and block, and
every word.  Only then does it build or load the KL table, and only for the
subcommands that read one (`nonkostant`, `klpoly`, `klv`, `kostant`,
`scat`); `--cache` is accepted everywhere so one command line fits all.
Domain errors, such as w not being a longest representative, still come
from the library call that answers the query.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from collections import namedtuple

from .cartan import CartanType
from .complexes import (assign_signs, is_kostant, klv_dominant, nonkostant_block,
                         regular_skeleton, s_category_has_bgg, singular_skeleton,
                         translate_skeleton)
from .errors import BudgetError, InputError, SingBggError
from .klpoly import KLTable, kl_table, load_table, save_table
from .mobius import mobius_lambda, support_X
from .parabolic import make_block
from .weyl import Element, WeylGroup, build_group, check_budget

# -- input ----------------------------------------------------------------------

def _parse_ints(text: str, empty: tuple[str, ...], what: str) -> list[int]:
    """The integers of text, separated by commas or whitespace, or one per
    character when there is no separator; [] for any of the empty spellings."""
    text = text.strip()
    if text in empty:
        return []
    parts = re.split(r"[,\s]+", text) if re.search(r"[,\s]", text) else list(text)
    try:
        return [int(p) for p in parts if p]
    except ValueError:
        raise InputError(f"cannot parse {what} {text!r}") from None


def _parse_word(g: WeylGroup, text: str) -> Element:
    return g.from_word(_parse_ints(text, ("", "e", "-"), "word"))


def _parse_singular(text: str) -> frozenset[int]:
    return frozenset(_parse_ints(text, ("", "none"), "singularity set"))


def _table(g: WeylGroup, cache: str | None) -> KLTable:
    if cache and os.path.exists(cache):
        return load_table(g, cache)
    t = kl_table(g)
    if cache:
        try:
            save_table(t, cache)
        except OSError as exc:
            print(f"warning: cannot write cache {cache}: {exc.strerror or exc}",
                  file=sys.stderr)
    return t


# -- emitters -------------------------------------------------------------------

def _word_str(w: Element) -> str:
    return "".join(str(i) for i in w.reduced_word()) or "e"


def _emit_json(payload) -> None:
    import json  # imported on use: most queries print text

    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def emit_dot(sk) -> str:
    b = sk.block
    support = set()
    if b.contains_max_rep(sk.base):
        support = set(support_X(sk.base, b).flatten())
    lines = ["digraph complex {"]
    for v, _ in sk.vertices:
        attrs = [f'label="{_word_str(v)}"']
        if b.contains_max_rep(v):
            attrs.append("style=bold")
        if v in support:
            attrs.append("peripheries=2")
        lines.append(f'  "{_word_str(v)}" [{", ".join(attrs)}];')
    for e in sk.edges:
        src, dst = _word_str(e.source), _word_str(e.target)
        if e.kind == "equality":
            lines.append(f'  "{src}" -> "{dst}" [dir=none, color="black:black"];')
        elif e.sign is not None:
            lines.append(f'  "{src}" -> "{dst}" [label="{e.sign:+d}"];')
        else:
            lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines)


def _skeleton_payload(g: WeylGroup, S: frozenset[int], sk) -> dict:
    return {
        "cartan": g.cartan.family,
        "rank": g.rank,
        "singular": sorted(S),
        "base": list(sk.base.reduced_word()),
        "kind": sk.kind,
        "vertices": [
            {"word": list(v.reduced_word()), "degree": i} for v, i in sk.vertices
        ],
        "edges": [
            {
                "from": list(e.source.reduced_word()),
                "to": list(e.target.reduced_word()),
                "kind": e.kind,
                "sign": e.sign,
            }
            for e in sk.edges
        ],
    }


# -- subcommand handlers: each reads the input that `_run` checked -------------

def _nonkostant(a) -> None:
    bad = nonkostant_block(a.g, a.S, a.t)
    if a.format == "json":
        bad_indices = {w.index for w in bad}
        _emit_json({
            "cartan": a.g.cartan.family,
            "rank": a.g.rank,
            "singular": sorted(a.S),
            "results": [
                {"w": list(a.g._words[wi]), "kostant": wi not in bad_indices}
                for wi in a.b._maxrep_indices
            ],
        })
    else:
        for w in bad:
            print(f"({_word_str(w)})")


def _blocks(a) -> None:
    g, b = a.g, a.b
    order, min_reps = len(b._wlambda_indices), b.min_reps
    if a.format == "json":
        _emit_json({
            "cartan": g.cartan.family,
            "rank": g.rank,
            "singular": sorted(a.S),
            "parabolic_order": order,
            "cosets": len(min_reps),
            "min_reps": [list(w.reduced_word()) for w in min_reps],
            "max_reps": [list(w.reduced_word()) for w in b.max_reps],
        })
    else:
        print(f"type {g.cartan}, singular {sorted(a.S)}")
        print(f"|W| = {g.order}, |W_lambda| = {order}, cosets = {len(min_reps)}")
        print("min_reps: " + " ".join(_word_str(w) for w in min_reps))
        print("max_reps: " + " ".join(_word_str(w) for w in b.max_reps))


def _complex(a) -> None:
    if a.stage == "regular":
        sk = regular_skeleton(a.g, a.w)
        if a.signs:
            sk = assign_signs(sk)
    elif a.stage == "translated":
        sk = translate_skeleton(regular_skeleton(a.g, a.w), a.b)
    else:
        sk = singular_skeleton(a.w, a.b)
    if a.format == "dot":
        print(emit_dot(sk))
    elif a.format == "json":
        _emit_json(_skeleton_payload(a.g, a.S, sk))
    else:
        for v, i in sk.vertices:
            print(f"{i}: ({_word_str(v)})")
        for e in sk.edges:
            mark = "=" if e.kind == "equality" else "->"
            tag = f" [{e.sign:+d}]" if e.sign is not None else ""
            print(f"({_word_str(e.source)}) {mark} ({_word_str(e.target)}){tag}")


def _value(key: str, compute, text=str):
    """Handler of a query that answers one value.  Its JSON holds the words
    in argument order, the singularity set if the query takes one, then
    the value under key."""
    def answer(a) -> None:
        v = compute(a)
        if a.format == "json":
            payload = {name: list(getattr(a, name).reduced_word())
                       for name in _COMMANDS[a.subcommand].words}
            if a.S is not None:
                payload["singular"] = sorted(a.S)
            payload[key] = v
            _emit_json(payload)
        else:
            print(text(v))
    return answer


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


_Command = namedtuple("_Command", "help singular words reads_table handler")

_COMMANDS = {
    "nonkostant": _Command("list non-Kostant elements of a block", True, (), True,
                           _nonkostant),
    "blocks": _Command("show block and coset data", True, (), False, _blocks),
    "klpoly": _Command("Kazhdan-Lusztig polynomial P_{y,w}", False, ("y", "w"), True,
                       _value("coeffs", lambda a: a.t.polynomial(a.y, a.w))),
    "klv": _Command("dominant-side singular polynomial for (w, x)", True, ("w", "x"),
                    True, _value("coeffs", lambda a: klv_dominant(a.t, a.b, a.w, a.x))),
    "mobius": _Command("block Möbius value for (w, x)", True, ("w", "x"), False,
                       _value("mobius", lambda a: mobius_lambda(a.w, a.x, a.b))),
    "complex": _Command("export a complex skeleton", True, ("w",), False, _complex),
    "kostant": _Command("decide exactness for w in a block", True, ("w",), True,
                        _value("kostant", lambda a: is_kostant(a.w, a.b, a.t),
                               _bool_text)),
    "scat": _Command("quotient-category BGG resolution test", True, ("w",), True,
                     _value("has_bgg", lambda a: s_category_has_bgg(a.w, a.b, a.t),
                            _bool_text)),
}


def _run(a) -> None:
    """Check all input, then answer.  The order is fixed: `--signs` against
    the stage, the group (its budget before it is built), the block, every
    word, and last the KL table if the subcommand reads one.  The parsed
    values replace the strings on `a`."""
    cmd = _COMMANDS[a.subcommand]
    if getattr(a, "signs", False) and a.stage != "regular":
        raise InputError("--signs applies to the regular stage only")
    cartan = CartanType(a.type.upper(), a.rank)
    check_budget(cartan)
    a.g = build_group(cartan)
    a.S = _parse_singular(a.singular) if cmd.singular else None
    a.b = make_block(a.g, a.S) if cmd.singular else None
    for name in cmd.words:
        setattr(a, name, _parse_word(a.g, getattr(a, name)))
    a.t = _table(a.g, a.cache) if cmd.reads_table else None
    cmd.handler(a)


# -- parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse drops a failed write
        file = file or sys.stderr
        file.write(message)
        file.flush()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bgg",
        description="Exact combinatorics of singular BGG complexes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--type", "-t", required=True,
                       help="Cartan family letter (A, B, C, D, E, F, G)")
        p.add_argument("--rank", "-r", type=int, required=True)
        if cmd.singular:
            p.add_argument("--singular", "-s", default="",
                           help="singular simple-root indices, e.g. '2,3'")
        for word in cmd.words:
            p.add_argument(f"--{word}", required=True,
                           help=f"word for {word}, e.g. '3,2,3,2' or '3232'")
        p.add_argument("--format", "-f", default="text",
                       choices=["text", "json"] + (["dot"] if name == "complex" else []))
        p.add_argument("--cache", help="path to a polynomial table cache file")
        if name == "complex":
            p.add_argument("--stage", default="singular",
                           choices=["regular", "translated", "singular"])
            p.add_argument("--signs", action="store_true",
                           help="assign signs (regular stage only)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # --help and usage errors exit here
        _run(args)
        sys.stdout.flush()
        return 0
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SingBggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout is a closed pipe, a full disk, ...
        with contextlib.suppress(OSError):
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        # the flush at exit would fail again and print "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
