"""Predicates only the tests use, and the loop forms of the coset tests that
``heckeb.hecke`` decides by one closed form.  They live here rather than in
the library, which keeps one home for each decision."""

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
