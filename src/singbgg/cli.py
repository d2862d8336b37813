"""Command-line interface.

Subcommands cover block enumeration (`nonkostant`, `blocks`), polynomial
queries (`klpoly`, `klv`, `mobius`), complex export (`complex`) and the
exactness decisions (`kostant`, `scat`).  Output formats: plain text, JSON,
and DOT for complexes.  Exit codes: 0 success, 2 invalid input, an unreadable
cache or unwritable output, 3 element budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

from .cartan import CartanType
from .complexes import (
    assign_signs,
    is_kostant,
    nonkostant_block,
    regular_skeleton,
    s_category_has_bgg,
    singular_skeleton,
    translate_skeleton,
)
from .errors import BudgetError, SingBggError
from .klpoly import (
    KLTable,
    kl_table,
    klv_dominant,
    load_table,
    save_table,
)
from .mobius import mobius_lambda, support_X
from .parabolic import make_block
from .weyl import Element, WeylGroup, build_group, check_budget

def _word_str(w: Element) -> str:
    return "".join(str(i) for i in w.reduced_word()) or "e"


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
        raise SingBggError(f"cannot parse {what} {text!r}") from None


def _parse_word(g: WeylGroup, text: str) -> Element:
    return g.from_word(_parse_ints(text, ("", "e", "-"), "word"))


def _parse_singular(text: str) -> frozenset[int]:
    return frozenset(_parse_ints(text, ("", "none"), "singularity set"))


def _group(args) -> WeylGroup:
    # Every subcommand needs the enumerated group: refuse before building it.
    cartan = CartanType(args.type.upper(), args.rank)
    check_budget(cartan)
    return build_group(cartan)


def _table(g: WeylGroup, args) -> KLTable:
    cache = getattr(args, "cache", None)
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


# -- subcommand handlers --------------------------------------------------------

def _cmd_nonkostant(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    t = _table(g, args)
    bad = nonkostant_block(g, S, t)
    if args.format == "json":
        bad_indices = {w.index for w in bad}
        _emit_json({
            "cartan": g.cartan.family,
            "rank": g.rank,
            "singular": sorted(S),
            "results": [
                {"w": list(g._words[wi]), "kostant": wi not in bad_indices}
                for wi in make_block(g, S)._maxrep_indices
            ],
        })
    else:
        for w in bad:
            print(f"({_word_str(w)})")
    return 0


def _cmd_blocks(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    b = make_block(g, S)
    if args.format == "json":
        _emit_json({
            "cartan": g.cartan.family,
            "rank": g.rank,
            "singular": sorted(S),
            "parabolic_order": len(b.W_lambda),
            "cosets": len(b.min_reps),
            "min_reps": [list(w.reduced_word()) for w in b.min_reps],
            "max_reps": [list(w.reduced_word()) for w in b.max_reps],
        })
    else:
        print(f"type {g.cartan}, singular {sorted(S)}")
        print(f"|W| = {g.order}, |W_lambda| = {len(b.W_lambda)}, "
              f"cosets = {len(b.min_reps)}")
        print("min_reps: " + " ".join(_word_str(w) for w in b.min_reps))
        print("max_reps: " + " ".join(_word_str(w) for w in b.max_reps))
    return 0


def _cmd_klpoly(args) -> int:
    g = _group(args)
    t = _table(g, args)
    y = _parse_word(g, args.y)
    w = _parse_word(g, args.w)
    p = t.polynomial(y, w)
    if args.format == "json":
        _emit_json({"y": list(y.reduced_word()), "w": list(w.reduced_word()),
                    "coeffs": list(p)})
    else:
        print(p)
    return 0


def _cmd_klv(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    b = make_block(g, S)
    t = _table(g, args)
    w = _parse_word(g, args.w)
    x = _parse_word(g, args.x)
    p = klv_dominant(t, b, w, x)
    if args.format == "json":
        _emit_json({"w": list(w.reduced_word()), "x": list(x.reduced_word()),
                    "singular": sorted(S), "coeffs": list(p)})
    else:
        print(p)
    return 0


def _cmd_mobius(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    b = make_block(g, S)
    w = _parse_word(g, args.w)
    x = _parse_word(g, args.x)
    m = mobius_lambda(w, x, b)
    if args.format == "json":
        _emit_json({"w": list(w.reduced_word()), "x": list(x.reduced_word()),
                    "singular": sorted(S), "mobius": m})
    else:
        print(m)
    return 0


def _cmd_complex(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    b = make_block(g, S)
    w = _parse_word(g, args.w)
    if args.stage == "regular":
        sk = regular_skeleton(g, w)
        if args.signs:
            sk = assign_signs(sk)
    elif args.stage == "translated":
        sk = translate_skeleton(regular_skeleton(g, w), b)
    else:
        sk = singular_skeleton(w, b)
    if args.format == "dot":
        print(emit_dot(sk))
    elif args.format == "json":
        _emit_json(_skeleton_payload(g, S, sk))
    else:
        for v, i in sk.vertices:
            print(f"{i}: ({_word_str(v)})")
        for e in sk.edges:
            mark = "=" if e.kind == "equality" else "->"
            tag = f" [{e.sign:+d}]" if e.sign is not None else ""
            print(f"({_word_str(e.source)}) {mark} ({_word_str(e.target)}){tag}")
    return 0


def _cmd_kostant(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    b = make_block(g, S)
    t = _table(g, args)
    w = _parse_word(g, args.w)
    ok = is_kostant(w, b, t)
    if args.format == "json":
        _emit_json({"w": list(w.reduced_word()), "singular": sorted(S),
                    "kostant": ok})
    else:
        print("true" if ok else "false")
    return 0


def _cmd_scat(args) -> int:
    g = _group(args)
    S = _parse_singular(args.singular)
    b = make_block(g, S)
    t = _table(g, args)
    w = _parse_word(g, args.w)
    ok = s_category_has_bgg(w, b, t)
    if args.format == "json":
        _emit_json({"w": list(w.reduced_word()), "singular": sorted(S),
                    "has_bgg": ok})
    else:
        print("true" if ok else "false")
    return 0


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

    def common(p, singular=True, words=(), stage=False):
        p.add_argument("--type", "-t", required=True,
                       help="Cartan family letter (A, B, C, D, E, F, G)")
        p.add_argument("--rank", "-r", type=int, required=True)
        if singular:
            p.add_argument("--singular", "-s", default="",
                           help="singular simple-root indices, e.g. '2,3'")
        for name in words:
            p.add_argument(f"--{name}", required=True,
                           help=f"word for {name}, e.g. '3,2,3,2' or '3232'")
        p.add_argument("--format", "-f", default="text",
                       choices=["text", "json"] + (["dot"] if stage else []))
        p.add_argument("--cache", help="path to a polynomial table cache file")

    p = sub.add_parser("nonkostant", help="list non-Kostant elements of a block")
    common(p)
    p.set_defaults(func=_cmd_nonkostant)

    p = sub.add_parser("blocks", help="show block and coset data")
    common(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("klpoly", help="Kazhdan-Lusztig polynomial P_{y,w}")
    common(p, singular=False, words=("y", "w"))
    p.set_defaults(func=_cmd_klpoly)

    p = sub.add_parser("klv", help="dominant-side singular polynomial for (w, x)")
    common(p, words=("w", "x"))
    p.set_defaults(func=_cmd_klv)

    p = sub.add_parser("mobius", help="block Möbius value for (w, x)")
    common(p, words=("w", "x"))
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("complex", help="export a complex skeleton")
    common(p, words=("w",), stage=True)
    p.add_argument("--stage", default="singular",
                   choices=["regular", "translated", "singular"])
    p.add_argument("--signs", action="store_true",
                   help="assign signs (regular stage only)")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("kostant", help="decide exactness for w in a block")
    common(p, words=("w",))
    p.set_defaults(func=_cmd_kostant)

    p = sub.add_parser("scat", help="quotient-category BGG resolution test")
    common(p, words=("w",))
    p.set_defaults(func=_cmd_scat)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # --help and usage errors exit here
        code = args.func(args)
        sys.stdout.flush()
        return code
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
