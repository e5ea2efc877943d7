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
most |B_6| terms), not its time.  141 (128 + SIGPIPE): the reader closed
stdout before the output ended, as ``| head`` does.
All output goes to stdout; diagnostics go to stderr.

A command runs with the cyclic garbage collector paused, and ``main`` turns
it back on afterwards if it was on before.  Windows are a tuple subclass,
which CPython never untracks, so each full collection would walk every
window built so far (``verify --suite w0k --max-rank 10`` holds about 250k).
The commands build no reference cycles: reference counting frees all they
make, and ``tests/test_cli.py`` checks that nothing is left for the collector.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from collections import Counter
from functools import lru_cache
from operator import itemgetter

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

# Input caps.  The README's cap table records the time and memory at each
# cap; here, the growth past it: ``square-w0k`` k = 11 has four times as many
# terms; ``fk`` costs about 4x per step in k (direct), about k^4.7
# (recurrence) and 2x per step (separated); ``good`` k = 11 has four times as
# many rows; ``sep`` costs about 2.7x per step of 2 in k.
SQUARE_MAX_K = 10
GOOD_MAX_K = 10
SEP_MAX_K = 28
# ``mult --rank`` bounds the support, not the time: B_6 has 46,080 elements and
# B_7 has 645,120.
MULT_MAX_RANK = 6
# ``verify --max-rank`` per suite, and the time one rank above it: w0k about
# 4.5x, fk about 10x, base about 4.5x, conj about 4x, tc about 12x per
# doubling of the rank, baby about 11x, main about 8x; binom grows as ``sep``.
VERIFY_MAX_RANK = {
    "w0k": 10,
    "fk": 13,
    "base": 13,
    "conj": 10,
    "tc": 60,
    "baby": 8,
    "main": 9,
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
    """Write json.dumps(payload, indent=2) and a newline to stdout, where a
    HeckeElement in the payload stands for its to_json().

    Batches of chunks: the whole text of a large payload is never held at
    once, and an unbuffered stdout does not get one write per chunk.  An
    element writes its own text term by term (``HeckeElement._json_chunks``),
    so its payload is never built.
    """
    chunks = _json_chunks(payload, "\n")
    while batch := "".join(itertools.islice(chunks, 1 << 10)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _json_chunks(o, newline: str):
    """The text of o as json.dumps(..., indent=2) writes it where ``newline``
    (a newline and the indent) starts o's lines."""
    if isinstance(o, HeckeElement):
        yield from o._json_chunks(newline, _json_chunks)
        return
    if not isinstance(o, (dict, list, tuple)) or not o:
        yield json.dumps(o)  # a scalar, {} or []
        return
    inner = newline + "  "
    is_dict = isinstance(o, dict)
    values = o.values() if is_dict else o
    if not any(map(isinstance, values, itertools.repeat((dict, list, tuple, HeckeElement)))):
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
        yield from _json_chunks(v, inner)
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
        _emit_json(square)
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
    for w, signature, coeff in good_involution_weights(args.k):
        text = coeff_text.get(signature)
        if text is None:
            text = coeff_text[signature] = str(coeff)
        rows.append((w, *signature, text))
    rows.sort(key=itemgetter(0))  # window order; G_k comes grouped by involution
    if args.json:
        for i, (w, a, a_neg, c, text) in enumerate(rows):  # in place: one row list at a time
            rows[i] = {"w": str(w), "a": a, "a_neg": a_neg, "c": c, "coeff": text}
        _emit_json({"k": args.k, "count": len(rows), "involutions": rows})
        return 0
    texts = list(map(str, map(itemgetter(0), rows)))
    w_width = max(map(len, texts))
    print(f"{'w':<{w_width}}  {'a':>2} {'a(-w)':>5} {'c':>3}  coefficient")
    for w, (_, a, a_neg, c, text) in zip(texts, rows):
        print(f"{w:<{w_width}}  {a:>2} {a_neg:>5} {c:>3}  {text}")
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
        _emit_json({"rank": args.rank, "expr": str(expr), "element": element})
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
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
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
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's final flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
