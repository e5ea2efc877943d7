"""Command-line front end.

Subcommands:

    square-w0k  print T_{w_{0,k}}^2 in the T-basis
    fk          print f_k by any of its three computations
    good        tabulate the good involutions of rank k with statistics
    sep         tabulate separated k-sets
    mult        evaluate a word expression in the Hecke algebra
    verify      run verification suites and report pass/fail

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
``verify`` selection with no checks in it, and input over a cap:
``square-w0k --k`` above SQUARE_MAX_K, ``fk --k`` above FK_MAX_K[method],
``good --k`` above GOOD_MAX_K, ``sep --k`` above SEP_MAX_K, ``mult --rank``
above MULT_MAX_RANK, a ``mult`` exponent, or product of nested exponents,
above words.MAX_EXPONENT, ``mult`` groups nested deeper than
words.MAX_DEPTH, and ``verify --max-rank`` above VERIFY_MAX_RANK[suite],
the smallest of these for ``--suite all``; a negative value of any of these
options is refused too).  The rank cap bounds the support of a product (at
most |B_6| terms), not its time.
All output goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from functools import lru_cache

from .combinat import count_separated, enumerate_separated
from .hecke import HeckeElement, mult, t_of
from .poly import cyclotomic, reduce_mod_cyclotomic
from .signedperm import make_w_nk
from .verify import (
    SUITES,
    f_k_direct,
    f_k_recurrence,
    f_k_separated,
    good_involution_weights,
    run_suite,
)
from .words import MAX_DEPTH, MAX_EXPONENT, WordSyntaxError, evaluate_word, parse_word

# Input caps.  On a 2-vCPU host, at the cap: ``square-w0k`` takes about 3-4 s
# and 74 MB (5-6 s and 93 MB with --json; k = 11 has four times as many
# terms); ``fk`` about 3.3 s (direct, each step in k about 4x), 10 s
# (recurrence, about k^4.7) and 10 s (separated, each step about 2x);
# ``good`` about 2-2.5 s and 70 MB, 3-3.5 s with --json (k = 11 has four
# times as many rows); and ``sep`` about 6 s and 150 MB, 9 s with --json
# (each step of 2 in k costs about 2.7x).
SQUARE_MAX_K = 10
GOOD_MAX_K = 10
SEP_MAX_K = 28
# ``mult --rank`` bounds the support, not the time: B_6 has 46,080 elements and
# ``w0 w0`` at rank 6 takes about 3-4 s and 65 MB (5-7 s and 143 MB with --json);
# B_7 has 645,120.
MULT_MAX_RANK = 6
# ``verify --max-rank`` per suite, with the whole suite's time at the cap and
# one rank above it: w0k 3 s, 68 MB (11: 14 s, 250 MB); fk 4.4 s, 109 MB
# (14: 20 s, 406 MB); base 3.4-3.9 s, 109 MB (14: 17 s, 407 MB); conj 7 s
# (each step about 4x); tc 2 s (about 12x per doubling); baby 2 s, 17 MB
# (9: 22 s); main 23-38 s, 306 MB (n+k = 9 squares have millions of terms);
# binom 4 s, 150 MB (the separated 28-sets, as for ``sep``).
VERIFY_MAX_RANK = {
    "w0k": 10,
    "fk": 13,
    "base": 13,
    "conj": 10,
    "tc": 60,
    "baby": 8,
    "main": 8,
    "binom": 28,
}

F_K_METHODS = {
    "direct": f_k_direct,
    "recurrence": f_k_recurrence,
    "separated": f_k_separated,
}
FK_MAX_K = {"direct": 13, "recurrence": 90, "separated": 21}


def _print_element(h: HeckeElement) -> None:
    if not h:
        print("0")
        return
    width = max(map(len, map(str, h.support())))
    for w, text in h._formatted_terms(str):
        print(f"T{str(w):<{width}}  {text}")


def _emit_json(payload) -> None:
    """Write json.dumps(payload, indent=2) and a newline to stdout.

    Batches of chunks: the whole text of a large payload is never held at
    once, and an unbuffered stdout does not get one write per chunk.  A list
    met more than once (the coefficient a HeckeElement's terms share) is
    encoded once per indent and written from that text afterwards.
    """
    chunks = _json_chunks(payload, "\n", _shared_lists(payload), {})
    while batch := "".join(itertools.islice(chunks, 1 << 10)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _shared_lists(payload) -> set:
    """The ids of the lists of containers met more than once in payload, not
    looking inside a list already met.  A list of scalars (a window) is never
    shared, so it is not recorded."""
    seen: set = set()
    shared: set = set()
    stack = [payload] if isinstance(payload, (dict, list)) else []
    containers = itertools.repeat((dict, list))
    while stack:
        o = stack.pop()
        for v in o.values() if isinstance(o, dict) else o:
            if isinstance(v, dict):
                stack.append(v)
            elif isinstance(v, list) and any(map(isinstance, v, containers)):
                if id(v) in seen:
                    shared.add(id(v))
                else:
                    seen.add(id(v))
                    stack.append(v)
    return shared


def _json_chunks(o, newline: str, shared: set, texts: dict):
    """The text of o as json.dumps(..., indent=2) writes it where ``newline``
    (a newline and the indent) starts o's lines.  ``texts`` holds the text of
    each shared list per indent, made on first meeting it."""
    if not isinstance(o, (dict, list, tuple)) or not o:
        yield json.dumps(o)  # a scalar, {} or []
        return
    if id(o) in shared:
        key = (id(o), newline)
        text = texts.get(key)
        if text is None:
            texts[key] = text = "".join(_json_chunks(o, newline, (), texts))
        yield text
        return
    inner = newline + "  "
    is_dict = isinstance(o, dict)
    values = o.values() if is_dict else o
    if not any(map(isinstance, values, itertools.repeat((dict, list, tuple)))):
        # flat: C-level passes, with the indent in the item separator
        if not is_dict and set(map(type, o)) == {int}:
            yield "[" + inner + ("," + inner).join(map(repr, o)) + newline + "]"
        else:
            text = _flat_encoder(inner)(o)
            yield text[0] + inner + text[1:-1] + newline + text[-1]
        return
    if is_dict:
        keys = (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " for k in o)
    else:
        keys = itertools.repeat("")
    sep = ("{" if is_dict else "[") + inner
    for key, v in zip(keys, values):
        yield sep + key
        yield from _json_chunks(v, inner, shared, texts)
        sep = "," + inner
    yield newline + ("}" if is_dict else "]")


@lru_cache(maxsize=None)
def _flat_encoder(inner: str):
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _cmd_square_w0k(args) -> int:
    _check_cap("square-w0k --k", args.k, SQUARE_MAX_K)
    w = make_w_nk(0, args.k)
    square = mult(t_of(w), t_of(w))
    if args.json:
        _emit_json(square.to_json())
    else:
        _print_element(square)
    return 0


def _cmd_fk(args) -> int:
    _check_cap(f"fk --method {args.method} --k", args.k, FK_MAX_K[args.method])
    poly = F_K_METHODS[args.method](args.k)
    if args.mod_cyclotomic:
        poly = reduce_mod_cyclotomic(poly, cyclotomic(args.k))
    if args.json:
        _emit_json(
            {
                "k": args.k,
                "method": args.method,
                "mod_cyclotomic": args.mod_cyclotomic,
                "poly": poly.to_json(),
            }
        )
    else:
        print(poly)
    return 0


def _check_cap(option: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{option} {value} exceeds the cap {cap}")
    if value < 0:
        raise ValueError(f"{option} {value} is negative")


def _cmd_good(args) -> int:
    _check_cap("good --k", args.k, GOOD_MAX_K)
    rows = []
    coeff_text = {}
    for w, (a, a_neg, c), coeff in good_involution_weights(args.k):
        text = coeff_text.get((a, a_neg, c))
        if text is None:
            text = coeff_text[a, a_neg, c] = str(coeff)
        rows.append({"w": str(w), "a": a, "a_neg": a_neg, "c": c, "coeff": text})
    if args.json:
        _emit_json({"k": args.k, "count": len(rows), "involutions": rows})
        return 0
    w_width = max(len(r["w"]) for r in rows)
    print(f"{'w':<{w_width}}  {'a':>2} {'a(-w)':>5} {'c':>3}  coefficient")
    for r in rows:
        print(f"{r['w']:<{w_width}}  {r['a']:>2} {r['a_neg']:>5} {r['c']:>3}  {r['coeff']}")
    print(f"total: {len(rows)}")
    return 0


def _cmd_sep(args) -> int:
    _check_cap("sep --k", args.k, SEP_MAX_K)
    sets = enumerate_separated(args.k)
    by_size = Counter(map(len, sets))
    counts = [
        {"size": i, "count": by_size[i], "formula": count_separated(args.k, i)}
        for i in sorted(by_size)
    ]
    if args.json:
        _emit_json({"k": args.k, "sets": sets, "counts": counts})
        return 0
    for s in sets:
        print("{" + ",".join(map(str, s)) + "}")
    print("counts by size: " + ", ".join(f"{c['size']}: {c['count']} (formula {c['formula']})" for c in counts))
    return 0


def _cmd_mult(args) -> int:
    _check_cap("mult --rank", args.rank, MULT_MAX_RANK)
    try:
        expr = parse_word(args.expr)
        element = evaluate_word(expr, args.rank)
    except (WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json({"rank": args.rank, "expr": str(expr), "element": element.to_json()})
    else:
        _print_element(element)
    return 0


def _cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cap = min(VERIFY_MAX_RANK[name] for name in suites)
    _check_cap(f"verify --suite {args.suite} --max-rank", args.max_rank, cap)
    reports = run_suite(suites, max_rank=args.max_rank)
    if not reports:
        print(
            f"error: --suite {args.suite} --max-rank {args.max_rank} selects no checks",
            file=sys.stderr,
        )
        return 2
    failed = [r for r in reports if not r.passed]
    if args.json:
        _emit_json([r.to_json() for r in reports])
    else:
        for r in reports:
            print(r)
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeb",
        description="Exact T-basis computations in the Hecke algebras of type B.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("square-w0k", help="print T_{w_{0,k}}^2 in the T-basis")
    p.add_argument("--k", type=int, required=True, help=f"at most {SQUARE_MAX_K}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_square_w0k)

    p = sub.add_parser("fk", help="print the polynomial f_k")
    p.add_argument(
        "--k",
        type=int,
        required=True,
        help="at most " + ", ".join(f"{cap} ({m})" for m, cap in FK_MAX_K.items()),
    )
    p.add_argument("--method", choices=sorted(F_K_METHODS), default="direct")
    p.add_argument("--mod-cyclotomic", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("good", help="tabulate good involutions with statistics")
    p.add_argument("--k", type=int, required=True, help=f"rank, at most {GOOD_MAX_K}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_good)

    p = sub.add_parser("sep", help="tabulate separated k-sets")
    p.add_argument("--k", type=int, required=True, help=f"at most {SEP_MAX_K}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sep)

    p = sub.add_parser("mult", help="evaluate a word expression in the Hecke algebra")
    p.add_argument(
        "--rank",
        type=int,
        required=True,
        help=f"at most {MULT_MAX_RANK}; the cap bounds the support size, not the time",
    )
    p.add_argument(
        "--expr",
        required=True,
        help=f"word expression, multiplied out in one fold along its letters; "
        f"each exponent times the exponents of the groups around it at most "
        f"{MAX_EXPONENT}; groups nested at most {MAX_DEPTH} deep",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument(
        "--max-rank",
        type=int,
        default=6,
        help="at most " + ", ".join(f"{cap} ({name})" for name, cap in VERIFY_MAX_RANK.items())
        + f", {min(VERIFY_MAX_RANK.values())} (all)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
