"""Predicates only the tests use, and the loop forms of the coset tests that
``heckeb.hecke`` decides by one closed form.  They live here rather than in
the library, which keeps one home for each decision."""

import itertools

from heckeb.combinat import _fixed_and_neat
from heckeb.poly import BivarPoly

# -- signed permutations --------------------------------------------------------


def is_involution(w) -> bool:
    return (w * w).is_identity()


def right_descent(w, g: int) -> bool:
    """True iff length(w * generator(g)) < length(w)."""
    if g == 0:
        return w[0] < 0
    return w[g - 1] > w[g]


def descents(w) -> list[int]:
    return [g for g in range(len(w)) if right_descent(w, g)]


# -- good involutions and separated sets -----------------------------------------


def is_good(w) -> bool:
    """w lies in G_k: an involution whose every value is fixed or negative."""
    return is_involution(w) and all(v == i or v < 0 for i, v in enumerate(w, start=1))


def stat_c(w) -> int:
    """Number of tidy pairs {i, j}: -w(i) < j and -w(j) < i."""
    # a tidy pair i < j has -w(j) < i < j and -w(i) < j; count the i for each j
    count = 0
    for j, wj in enumerate(w, start=1):
        for v in w[max(-wj, 0) : j - 1]:
            if -v < j:
                count += 1
    return count


def neat_count(w) -> int:
    """Number of neat pairs {i, j} of an involution in S_k: w(j) < i and w(i) < j.

    A pair is neat in w exactly when it is tidy in -w.  The window is
    checked, then read by the library's one-pass ``_fixed_and_neat``.
    """
    k = len(w)
    for i, v in enumerate(w, start=1):
        if not 0 < v <= k:
            raise ValueError(f"{w} is not in the symmetric group")
        if w[v - 1] != i:
            raise ValueError(f"{w} is not an involution")
    return _fixed_and_neat(w)[1]


def neat_pairs_oracle(s) -> int:
    """neat(s) for an involution s of S_k: the scan over all pairs i < j of the
    definition s(j) < i and s(i) < j."""
    k = len(s)
    return sum(
        1
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        if s[j - 1] < i and s[i - 1] < j
    )


def pairwise_separated(k: int, members) -> bool:
    """Every pair of members differs by strictly between 1 and k - 1."""
    return all(1 < b - a < k - 1 for a, b in itertools.combinations(members, 2))


# -- polynomials ------------------------------------------------------------------


def q_degree(c: BivarPoly) -> int:
    return max((qe for _, qe in c._terms), default=-1)


def p_coefficients(c: BivarPoly) -> list[BivarPoly]:
    """Coefficients of p^0, p^1, ..., p^maxdeg as polynomials in q."""
    top = max((pe for pe, _ in c._terms), default=-1)
    rows: list[dict] = [{} for _ in range(top + 1)]
    for (pe, qe), v in c._terms.items():
        rows[pe][(0, qe)] = v
    return [BivarPoly._raw(r) for r in rows]


# -- coset oracles ----------------------------------------------------------------


def in_wnk_coset(w, n: int, k: int) -> bool:
    """w lies in (B_n x S_k) w_{n,k} iff w(n+i) < -n for every 1 <= i <= k."""
    if len(w) != n + k:
        raise ValueError(f"rank mismatch: {len(w)} vs n + k = {n + k}")
    return all(w[n + i] < -n for i in range(k))


def in_parabolic(w, n: int, k: int) -> bool:
    """w lies in B_n x S_k iff it keeps 1..n within ±(1..n) and sends n+1..n+k
    to positive values above n."""
    return not (
        any(abs(w[i]) > n for i in range(n)) or any(w[i] <= n for i in range(n, n + k))
    )


def is_min_representative(x, n: int, k: int) -> bool:
    """x is the minimal-length element of its coset (B_n x S_k) x, read on x^-1
    directly (Bjorner & Brenti, Combinatorics of Coxeter Groups, Section 2.4):
    x^-1 is positive and increasing on 1..n and increasing on n+1..n+k."""
    if len(x) != n + k:
        raise ValueError(f"rank mismatch: {len(x)} vs n + k = {n + k}")
    u = x.inverse()
    small, large = (0,) + u[:n], u[n:]  # the leading 0 makes u(1) > 0 part of "increasing"
    return all(a < b for a, b in zip(small, small[1:])) and all(
        a < b for a, b in zip(large, large[1:])
    )
