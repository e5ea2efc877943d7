"""Workload definitions for the heckeb benchmark.

A workload is a dict ("spec") that the parent process hands to a fresh worker
process.  Two kinds exist:

- ``verify``: one ``heckeb verify --suite S --max-rank R --json`` run through
  ``heckeb.cli.main``.  The spec carries the full list of checks the run must
  report, so a run that silently checks less (or more) than expected is
  counted as failing rather than passing.
- ``products``: seeded random word expressions, each parsed and evaluated
  with ``heckeb.words`` and checked against the group law.

This module never imports heckeb: the expression generator and the expected
check lists are independent of the program under test.
"""

from __future__ import annotations

import random

# Why each named workload exists; also the order of ``--workload all``.
WHY = {
    "main-r7": "the paper's main identity for every n+k <= 7: exact squares plus coset extraction",
    "w0k-r10": "squares of T_{w_{0,k}} up to k = 10 against the good-involution closed form; no coset extraction",
    "fk-r12": "f_k up to k = 12 by three methods: large Z[p,q] polynomials and involution enumeration, no Hecke products",
    "products-r6": "seeded random word expressions at ranks 5-6: parser and products with many-term right factors",
}

# Expression shape for the products workload.  Each expression is two
# parenthesised groups of random generators raised to small powers.  Product
# cost grows steeply and unevenly with the number of length-decreasing steps
# ("descents") met when the letters are multiplied out in the group, and even
# at a fixed descent count the cost of one expression varies by a factor of
# two or more.  The generator therefore keeps only expressions whose descent
# count lies in a fixed window, and each iteration evaluates a batch of a
# thousand of them: the fold work of a batch then varies by about 3% between
# seeds, and the median over a run's batches by less.
GROUP_LENGTH = (3, 5)
GROUP_EXPONENT = (2, 3)
GROUPS = 2
DESCENT_WINDOW = (7, 9)
PRODUCT_COUNT = 1000


def check_id(statement: str, params: dict) -> str:
    """The name of one check, e.g. ``main(k=5,n=2)``; params sorted by key."""
    args = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{statement}({args})"


def expected_checks(suite: str, max_rank: int) -> list[str]:
    """Every check ``heckeb verify --suite SUITE --max-rank R`` must report.

    Written out from the suite definitions, not taken from the library, so
    that a library change that drops or adds checks shows up as a failure.
    """
    if suite == "main":
        ids = [
            check_id("main", {"n": n, "k": k})
            for k in range(2, max_rank + 1)
            for n in range(0, max_rank - k + 1)
        ]
        return ids + [check_id("matrix", {"k": k}) for k in range(2, max(8, max_rank) + 1)]
    if suite == "w0k":
        return [check_id("w0k", {"k": k}) for k in range(1, max_rank + 1)]
    if suite == "fk":
        return [check_id("fk", {"k": k}) for k in range(1, max(8, max_rank) + 1)]
    raise ValueError(f"no expected check list for suite {suite!r}")


def verify_spec(suite: str, max_rank: int) -> dict:
    return {
        "kind": "verify",
        "argv": ["verify", "--suite", suite, "--max-rank", str(max_rank), "--json"],
        "expected": expected_checks(suite, max_rank),
    }


def products_spec(count: int) -> dict:
    return {"kind": "products", "count": count}


WORKLOADS = {
    "main-r7": verify_spec("main", 7),
    "w0k-r10": verify_spec("w0k", 10),
    "fk-r12": verify_spec("fk", 12),
    "products-r6": products_spec(PRODUCT_COUNT),
}


# -- the expression generator ------------------------------------------------
#
# A signed permutation is a window tuple (w(1), ..., w(rank)).  Generator 0 is
# t, which negates the first entry; generator i >= 1 is s_i, which swaps
# entries i and i+1.  w*g is shorter than w exactly when g is a right descent.

def _right_descent(w: tuple, g: int) -> bool:
    return w[0] < 0 if g == 0 else w[g - 1] > w[g]


def _apply_right(w: tuple, g: int) -> tuple:
    if g == 0:
        return (-w[0],) + w[1:]
    return w[: g - 1] + (w[g], w[g - 1]) + w[g + 1:]


def flat_letters(groups) -> list[int]:
    """The generator indices of an expression, exponents multiplied out."""
    return [g for word, exp in groups for _ in range(exp) for g in word]


def descent_count(groups, rank: int) -> int:
    w = tuple(range(1, rank + 1))
    count = 0
    for g in flat_letters(groups):
        count += _right_descent(w, g)
        w = _apply_right(w, g)
    return count


def expression_text(groups) -> str:
    def name(g):
        return "t" if g == 0 else f"s{g}"

    return " ".join(
        "( " + " ".join(name(g) for g in word) + f" )^{exp}" for word, exp in groups
    )


def generate_expressions(seed: int, count: int, batch: int = 0) -> list[dict]:
    """Batch number ``batch`` of ``count`` expressions at ranks 5 and 6; the
    same seed and batch number give the same expressions.

    Each item holds the rank, the expression text the program parses, and the
    multiplied-out letters the group-law check uses.
    """
    rng = random.Random(f"{seed}:{batch}")
    lo, hi = DESCENT_WINDOW
    out = []
    while len(out) < count:
        rank = rng.choice((5, 6))
        groups = [
            (
                [rng.randrange(rank) for _ in range(rng.randint(*GROUP_LENGTH))],
                rng.randint(*GROUP_EXPONENT),
            )
            for _ in range(GROUPS)
        ]
        if lo <= descent_count(groups, rank) <= hi:
            out.append(
                {"rank": rank, "text": expression_text(groups), "letters": flat_letters(groups)}
            )
    return out
