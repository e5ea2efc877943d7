"""Predicates only the tests use, the loop forms of the coset tests that
``heckeb.hecke`` decides by one closed form, and the definitions its fast
forms are held to (the reach sets behind the last-live index, products at
the corners of the parameter square).  They live here rather than in the
library, which keeps one home for each decision."""

import itertools

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


def _neat_and_m(s) -> tuple[int, list[int]]:
    """(neat(s), [m_j for each fixed point j of s, increasing in j]) for an
    involution s of S_k, with m_j = #{i < j : s(i) < j}, read in one pass
    over its window (any iterable of the values).  s is not checked.

    The pass keeps the left ends of the open arcs in opening order.  The
    i < j with s(i) > j are the left ends of the arcs open over a fixed point
    j, so m_j is j - 1 less their number.  neat(s) adds one per open arc at
    each fixed point and at each arc's left end (every open arc crosses or
    nests over the new one), and at an arc's right end one per open arc that
    opened before its left end (each nests over it): a fixed point under an
    arc counts once, a nested arc twice and a crossing once.
    """
    opened = []
    m = []
    neat = 0
    j = 0
    for v in s:
        j += 1
        if v > j:
            neat += len(opened)
            opened.append(j)
        elif v < j:
            nesting = opened.index(v)
            neat += nesting
            del opened[nesting]
        else:
            neat += len(opened)
            m.append(j - 1 - len(opened))
    return neat, m


def neat_count(w) -> int:
    """Number of neat pairs {i, j} of an involution in S_k: w(j) < i and w(i) < j.

    A pair is neat in w exactly when it is tidy in -w.  The window is
    checked, then read by the one-pass ``_neat_and_m``.
    """
    k = len(w)
    for i, v in enumerate(w, start=1):
        if not 0 < v <= k:
            raise ValueError(f"{w} is not in the symmetric group")
        if w[v - 1] != i:
            raise ValueError(f"{w} is not an involution")
    return _neat_and_m(w)[0]


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


def fixed_point_m_oracle(s) -> list[int]:
    """m_j = #{i < j : s(i) < j} at each fixed point j of an involution s of
    S_k, increasing in j, by a sum over the positions before j."""
    return [
        sum(1 for v in s[: j - 1] if v < j) for j, v_j in enumerate(s, start=1) if v_j == j
    ]


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


def reach_sets(patterns, letters) -> list:
    """[A_0, ..., A_L] for the letters g_0 ... g_{L-1}: A_L = patterns and
    A_i = A_{i+1} | A_{i+1} * g_i, the coset patterns of the terms that can
    still reach one of ``patterns`` when letters g_i ... g_{L-1} remain.
    Right multiplication by g sends a term of pattern P to P or to P * g,
    where t flips the sign at position 1 and s_i swaps positions i, i + 1."""

    def times(pattern, g):
        out = list(pattern)
        if g == 0:
            out[0] = -out[0]
        else:
            out[g - 1], out[g] = out[g], out[g - 1]
        return tuple(out)

    reach = [set(patterns)]
    for g in reversed(letters):
        reach.append(reach[-1] | {times(pattern, g) for pattern in reach[-1]})
    reach.reverse()
    return reach


# -- corners of the parameter square -----------------------------------------------

CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def corner_product(w, letters, p: int, q: int):
    """The one basis element that T_w * T_{g_1} * ... * T_{g_L} specialises
    to at a corner (p, q) of {0, 1}^2, with coefficient 1.  There T_g^2 =
    (1 - param) T_g + param is T_g (param 0) or 1 (param 1), so at a descent
    a letter stays if its parameter is 0 and moves if it is 1; otherwise it
    moves.  At (1, 1) this is the group law, at (0, 0) the 0-Hecke monoid."""
    for g in letters:
        if not (right_descent(w, g) and (p if g == 0 else q) == 0):
            w = w.apply_right(g)
    return w
