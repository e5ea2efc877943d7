"""Executable checks for every closed form and identity the engine reproduces.

Each check recomputes both sides of one statement from first principles --
generator-by-generator Hecke multiplication on one side, a combinatorial
closed form on the other -- and compares them as exact polynomials.  The
outcome is a VerificationReport; a failing report always carries a witness
listing the first mismatching basis elements or coefficients.

Checks are grouped into the named suites of ``SUITES``, the choices of the
CLI's ``verify --suite``.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial
from itertools import islice, repeat, tee
from math import comb

from .combinat import (
    binomial_sum,
    conjugator,
    conjugator_omit,
    count_separated,
    enumerate_good,
    enumerate_separated,
    stat_a,
    stat_d,
    symmetric_involutions,
)
from .hecke import (
    HeckeElement,
    _sort_key,
    distinguished_factor,
    mult,
    t_of,
    trivial_quotient,
    z_coefficient,
)
from .poly import BivarPoly, ONE, P, Q, cyclotomic, reduce_mod_cyclotomic
from .signedperm import (
    generator,
    identity,
    make_cycle,
    make_w_nk,
    parabolic_elements,
)

__all__ = [
    "VerificationReport",
    "good_involution_weights",
    "closed_form_w0k_square",
    "verify_w0k",
    "f_k_direct",
    "f_k_recurrence",
    "f_k_separated",
    "verify_fk",
    "verify_base_case",
    "verify_conj_lemma",
    "verify_tc_identity",
    "verify_baby_succ",
    "verify_main",
    "hecke_parameter",
    "verify_matrix",
    "verify_separated_count",
    "verify_binom",
    "SUITES",
    "build_checks",
    "run_suite",
]

WITNESS_LIMIT = 10


class VerificationReport:
    """Pass/fail outcome of one statement at one parameter point."""

    def __init__(
        self,
        statement: str,
        params: dict,
        status: str,
        witness: list | None = None,
        ms: float = 0.0,
    ):
        self.statement = statement
        self.params = params
        self.status = status  # "pass" or "fail"
        self.witness = witness
        self.ms = ms

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "params": dict(self.params),
            "status": self.status,
            "witness": self.witness,
            "ms": round(self.ms, 3),
        }

    def sort_key(self):
        return (self.statement, tuple(sorted(self.params.items())))

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        args = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        line = f"[{tag}] {self.statement}({args})  {self.ms:.1f} ms"
        if self.witness:
            lines = [line]
            for item in self.witness:
                lines.append(f"    at {item['where']}: lhs = {item['lhs']}  rhs = {item['rhs']}")
            return "\n".join(lines)
        return line


def _report(statement, params, t0, mismatches) -> VerificationReport:
    ms = (time.perf_counter() - t0) * 1000.0
    if mismatches:
        return VerificationReport(statement, params, "fail", mismatches, ms)
    return VerificationReport(statement, params, "pass", None, ms)


def _mismatches(comparisons) -> list:
    """The witness entries of the first WITNESS_LIMIT (where, lhs, rhs)
    comparisons whose two sides differ; the rest are never compared."""
    return [
        {"where": where, "lhs": str(a), "rhs": str(b)}
        for where, a, b in islice((c for c in comparisons if c[1] != c[2]), WITNESS_LIMIT)
    ]


def _hecke_comparisons(lhs: HeckeElement, rhs: HeckeElement, label: str = ""):
    """(where, lhs, rhs) at each window of either support, in length-window
    order; none if the two elements are equal."""
    if lhs == rhs:
        return
    for w in sorted(set(lhs.support()) | set(rhs.support()), key=_sort_key):
        yield f"{label}T{w}", lhs.coefficient(w), rhs.coefficient(w)


# -- squares of w_{0,k} ------------------------------------------------------

class _Weights(dict):
    """(a, a', c) -> the coefficient p^x (1-p)^a' q^c (1-q)^y of T_w in
    T_{w_{0,k}}^2, x = (k+a-a')/2 and y = (k-a-a')/2, built on first use.

    k - a - a' = k - |Fix s| is twice the number of arcs of s, so both
    exponents are integers.  The weight's term dict is the product of the two
    binomial expansions, with no polynomial multiplication; every w with the
    same triple shares the same (immutable) BivarPoly.
    """

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def __missing__(self, signature):
        a, a_neg, c = signature
        y = (self.k - a - a_neg) // 2
        weight = self[signature] = BivarPoly._raw(
            {
                (pe, qe): u * v
                for pe, u in _binomial_row(y + a, a_neg)  # p^x (1-p)^a'
                for qe, v in _binomial_row(c, y)  # q^c (1-q)^y
            }
        )
        return weight


def _binomial_row(start: int, e: int) -> list[tuple[int, int]]:
    """The (exponent, coefficient) pairs of x^start (1-x)^e."""
    return [(start + i, (-1) ** i * comb(e, i)) for i in range(e + 1)]


def _good_signatures(k: int):
    """(G_k in ``enumerate_good`` order, an iterator of each window's
    (a, a', c) in the same order)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    windows = enumerate_good(k)
    return windows, windows.signatures()


def good_involution_weights(k: int):
    """Each w in G_k, in ``enumerate_good`` order, as (w, (a, a', c), weight).

    The weight p^((k+a-a')/2) (1-p)^a' q^c (1-q)^((k-a-a')/2), with a = a(w),
    a' = a(-w) and c = c(w), is the coefficient of T_w in T_{w_{0,k}}^2.  It
    depends only on (a, a', c), so it is built once per triple and the same
    (immutable) BivarPoly is shared by every w with that triple.  The
    statistics come from ``GoodInvolutions.signatures``, once per group of
    G_k; the ``heckeb.combinat`` docstring derives them.
    """
    windows, signatures = _good_signatures(k)
    weights = _Weights(k)
    for w, signature in zip(windows, signatures):
        yield w, signature, weights[signature]


def closed_form_w0k_square(k: int) -> HeckeElement:
    """The combinatorial expansion of T_{w_{0,k}}^2 over good involutions:
    sum over w in G_k of the weight from good_involution_weights times T_w.

    The windows are distinct rank-k SignedPermutations and every weight is a
    nonzero BivarPoly, so the terms go in unchecked, in one C-level pass."""
    windows, signatures = _good_signatures(k)
    return HeckeElement._raw(k, dict(zip(windows, map(_Weights(k).__getitem__, signatures))))


def verify_w0k(k: int) -> VerificationReport:
    """T_{w_{0,k}}^2, engine-computed, equals the good-involution closed form.

    Checked in one streamed pass, with no second element built.  Each
    window of G_k is popped from the square's own term dict, this check's
    temporary, so a window the square lacks, or one listed twice, pops
    None; the square must be empty afterwards.  ``enumerate_good`` builds
    each involution's group of windows only when the pass reaches it, so
    every window is popped as soon as it is built: the square's windows
    are freed while G_k is produced, and the two are never held together.
    The popped coefficients are paired with the windows' (a, a', c) in
    C-level passes, in a dict keyed by (id of the coefficient, (a, a', c))
    that holds each keyed coefficient, so no id is reused while the pass
    runs.  Each distinct pair is then compared once with the weight of its
    triple: the square shares one coefficient object per distinct value and
    the weights one per triple, so at k = 10 there are 791 comparisons for
    123,109 windows.  On a mismatch the square is recomputed and compared with
    ``closed_form_w0k_square(k)`` term by term, for the witness.
    """
    t0 = time.perf_counter()
    w = make_w_nk(0, k)
    square = mult(t_of(w), t_of(w))._terms
    windows, signatures = _good_signatures(k)
    popped, kept = tee(map(square.pop, windows, repeat(None)))
    pairs = dict(zip(zip(map(id, popped), signatures), kept))
    weights = _Weights(k)
    if not square and all(c == weights[s] for (_, s), c in pairs.items()):
        return _report("w0k", {"k": k}, t0, [])
    mismatches = _mismatches(_hecke_comparisons(mult(t_of(w), t_of(w)), closed_form_w0k_square(k)))
    if not mismatches:  # the closed form's dict hides a window listed twice
        mismatches = [
            {"where": "G_k", "lhs": f"{len(windows)} windows", "rhs": f"{len(set(windows))} distinct"}
        ]
    return _report("w0k", {"k": k}, t0, mismatches)


# -- the polynomials f_k -------------------------------------------------------

def f_k_direct(k: int) -> BivarPoly:
    """f_k as the sum over involutions of S_k weighted by fixed points and neat pairs.

    An involution w contributes p^((k-a)/2) (1-q)^((k-a)/2) (1-p)^a q^neat with
    a = |Fix w| and neat = neat(w); the involutions are counted per (a, neat)
    and each distinct weight is built once.

    Both statistics are read off the fill of ``symmetric_involutions`` as it
    places each arc and fixed point (``Involutions.statistics``, whose tuple
    of m_j has one entry per fixed point), so no window is built: only the
    counts per (a, neat) are held, never the involutions.  The
    ``heckeb.combinat`` docstring shows why neat gives the factor
    1 - q^(k-1) of ``f_k_recurrence``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    multiplicity = Counter((len(m), neat) for neat, m in symmetric_involutions(k).statistics())
    pq = P * (ONE - Q)
    one_minus_p = ONE - P
    total = BivarPoly(0)
    for (a, neat), count in multiplicity.items():
        total = total + count * (pq ** ((k - a) // 2) * one_minus_p**a * Q**neat)
    return total


def f_k_recurrence(k: int) -> BivarPoly:
    """f_k from f_1 = 1-p, f_2 = 1-(1+q)p+p^2 and
    f_k = p(1-q^(k-1)) f_(k-2) + (1-p) f_(k-1)."""
    if type(k) is not int:  # a bool or a float is refused, not iterated
        raise ValueError(f"k {k!r} is not an int")
    if k < 1:
        raise ValueError("k must be >= 1")
    f1 = ONE - P
    f2 = ONE - (ONE + Q) * P + P * P
    if k == 1:
        return f1
    prev, cur = f1, f2
    for j in range(3, k + 1):
        prev, cur = cur, P * (ONE - Q ** (j - 1)) * prev + (ONE - P) * cur
    return cur


def f_k_separated(k: int) -> BivarPoly:
    """f_k as the sum over separated k-sets of p^|S| (1-p)^(k-2|S|) prod (1-q^s).

    Sets containing 0 contribute the factor 1 - q^0 = 0 and are skipped;
    for the remaining sets |S| <= k/2, so the (1-p) exponent is nonnegative.
    """
    if type(k) is not int:  # a bool or a float is refused, not enumerated
        raise ValueError(f"k {k!r} is not an int")
    if k < 1:
        raise ValueError("k must be >= 1")
    one_minus_p = ONE - P
    total = BivarPoly(0)
    for s in enumerate_separated(k):
        if 0 in s:
            continue
        term = P ** len(s) * one_minus_p ** (k - 2 * len(s))
        for v in s:
            term = term * (ONE - Q**v)
        total = total + term
    return total


def verify_fk(k: int) -> VerificationReport:
    """The three independent computations of f_k agree as polynomials."""
    t0 = time.perf_counter()
    direct = f_k_direct(k)
    comparisons = [
        ("direct vs recurrence", direct, f_k_recurrence(k)),
        ("direct vs separated", direct, f_k_separated(k)),
    ]
    return _report("fk", {"k": k}, t0, _mismatches(comparisons))


def verify_base_case(k: int) -> VerificationReport:
    """f_k reduces to 1 + (-p)^k modulo the k-th cyclotomic polynomial.

    This is the n = 0 case of the main identity.  Its engine side, the
    trivial quotient of the coset coefficient of T_{w_{0,k}}^2 reduced mod
    phi_k, is ``verify_main(0, k)``, which ``--suite main`` runs for
    k = 2..max-rank; this check squares nothing.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    t0 = time.perf_counter()
    mod = cyclotomic(k)
    target = reduce_mod_cyclotomic(ONE + (-P) ** k, mod)
    reduced_fk = reduce_mod_cyclotomic(f_k_direct(k), mod)
    return _report("base", {"k": k}, t0, _mismatches([("f_k mod phi_k", reduced_fk, target)]))


# -- conjugation identities ------------------------------------------------------

def verify_conj_lemma(k: int) -> VerificationReport:
    """T_x T_w T_{x^-1} expands over the successors of w with the stated weights.

    Checked for every good involution w of rank k, with x = t s_1 ... s_k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    t0 = time.perf_counter()
    x = conjugator(k)
    x_inv = x.inverse()
    tx, tx_inv = t_of(x), t_of(x_inv)
    t_top = generator(0, k + 1)
    one_minus_p = ONE - P
    one_minus_q = ONE - Q

    def comparisons():
        for w in enumerate_good(k):
            w1 = w.embed(k + 1)
            engine = mult(mult(tx, t_of(w1)), tx_inv)
            base = x * w1 * x_inv
            qa = Q ** stat_a(w)
            terms = {base: P * qa, base * t_top: one_minus_p * qa}
            for j in range(1, k + 1):
                if w[j - 1] == j:
                    key = x * w1 * conjugator_omit(j, k).inverse()
                    terms[key] = one_minus_q * Q ** stat_d(j, w)
            expected = HeckeElement(k + 1, terms)
            yield from _hecke_comparisons(engine, expected, label=f"w={w} ")

    return _report("conj", {"k": k}, t0, _mismatches(comparisons()))


def verify_tc_identity(n: int, k: int) -> VerificationReport:
    """T_{c^-1} T_c = q^k T_1 + (1-q) sum_i q^(i-1) T_{s_{n+k}...s_{n+i}...s_{n+k}}."""
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    t0 = time.perf_counter()
    m = n + k + 1
    c = make_cycle(n, k)
    engine = mult(t_of(c.inverse()), t_of(c))
    terms = {identity(m): Q**k}
    one_minus_q = ONE - Q
    for i in range(1, k + 1):
        w = identity(m)
        for g in range(n + k, n + i - 1, -1):
            w = w.apply_right(g)
        for g in range(n + i + 1, n + k + 1):
            w = w.apply_right(g)
        terms[w] = one_minus_q * Q ** (i - 1)
    expected = HeckeElement(m, terms)
    return _report("tc", {"k": k, "n": n}, t0, _mismatches(_hecke_comparisons(engine, expected)))


def verify_baby_succ(n: int, k: int) -> VerificationReport:
    """Conjugation by c = s_{n+1}...s_{n+k} maps the coset (B_n x S_k) w_{n,k}
    into (B_{n+1} x S_k) w_{n+1,k}, adding 2k to the length; the reverse
    conjugation lands back exactly when position n+1 is fixed.

    Only the failed tests are listed as comparisons, so a passing element
    formats no witness text."""
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    t0 = time.perf_counter()
    m = n + k + 1
    c = make_cycle(n, k)
    c_inv = c.inverse()
    w_nk = make_w_nk(n, k)
    w_up = make_w_nk(n + 1, k)

    def failures():
        for u in parabolic_elements(n, k):
            w = (u * w_nk).embed(m)
            conj = c * w * c_inv
            if conj.length() != w.length() + 2 * k:
                yield f"length of c*{w}*c^-1", conj.length(), w.length() + 2 * k
            if distinguished_factor(conj, n + 1, k)[1] != w_up:
                yield f"coset membership of c*{w}*c^-1", conj, f"(B_{n+1} x S_{k}) w_{n+1},{k}"
        for u in parabolic_elements(n + 1, k):
            w = u * w_up
            back = c_inv * w * c
            lands = (
                back[n + k] == n + k + 1
                and distinguished_factor(back.restrict(n + k), n, k)[1] == w_nk
            )
            if lands != (w[n] == n + 1):
                yield f"return conjugation of {w}", lands, w[n] == n + 1

    return _report("baby", {"k": k, "n": n}, t0, _mismatches(failures()))


# -- the main identity -------------------------------------------------------------

def verify_main(n: int, k: int) -> VerificationReport:
    """After the trivial character and reduction mod phi_k, the coset coefficient
    of T_{w_{n,k}} in T_{w_{n,k}}^2 collapses to (1 + (-p)^k) T_1."""
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    t0 = time.perf_counter()
    mod = cyclotomic(k)
    z = z_coefficient(n, k)
    quotient = trivial_quotient(z, n, k)
    reduced = quotient.map_coefficients(lambda c: reduce_mod_cyclotomic(c, mod))
    scalar = reduce_mod_cyclotomic(ONE + (-P) ** k, mod)
    expected = HeckeElement(n, {identity(n): scalar})
    return _report("main", {"k": k, "n": n}, t0, _mismatches(_hecke_comparisons(reduced, expected)))


def hecke_parameter(k: int) -> BivarPoly:
    """The generalized Hecke parameter Q = -(-p)^k attached to (B_n x S_k, B_{n+k})."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return -((-P) ** k)


def verify_matrix(k: int) -> VerificationReport:
    """(T - 1)(T + Q) = 0 for the 2x2 matrix with rows (0, -(-p)^k), (1, 1+(-p)^k)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    t0 = time.perf_counter()
    qq = hecke_parameter(k)
    mat = ((BivarPoly(0), qq), (ONE, ONE + (-P) ** k))
    left = ((mat[0][0] - ONE, mat[0][1]), (mat[1][0], mat[1][1] - ONE))
    right = ((mat[0][0] + qq, mat[0][1]), (mat[1][0], mat[1][1] + qq))
    entries = [
        (f"entry ({i},{j})", sum((left[i][l] * right[l][j] for l in range(2)), BivarPoly(0)), 0)
        for i in range(2)
        for j in range(2)
    ]
    return _report("matrix", {"k": k}, t0, _mismatches(entries))


# -- counting identities ------------------------------------------------------------------

def verify_separated_count(k: int) -> VerificationReport:
    """Enumerated separated k-sets match C(k-i, i) + C(k-i-1, i-1) per cardinality."""
    t0 = time.perf_counter()
    by_size = Counter(map(len, enumerate_separated(k)))
    comparisons = (
        (f"cardinality {i}", by_size[i], count_separated(k, i))
        for i in sorted(set(by_size) | set(range(0, k // 2 + 1)))
    )
    return _report("sep-count", {"k": k}, t0, _mismatches(comparisons))


def verify_binom(k: int) -> VerificationReport:
    """The alternating trinomial sum equals 1 for every 0 <= i <= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    t0 = time.perf_counter()
    comparisons = ((f"i = {i}", binomial_sum(k, i), 1) for i in range(k + 1))
    return _report("binom", {"k": k}, t0, _mismatches(comparisons))


# -- suites ------------------------------------------------------------------------------

# Each builder maps an ambient rank cap to its suite's checks, in run order.
# A builder looks its check functions up on this module when it runs, so a
# function replaced here after import is the one its checks call.
SUITES = {
    "w0k": lambda r: [partial(verify_w0k, k) for k in range(1, r + 1)],
    "fk": lambda r: [partial(verify_fk, k) for k in range(1, max(8, r) + 1)],
    "base": lambda r: [partial(verify_base_case, k) for k in range(2, max(8, r) + 1)],
    "conj": lambda r: [partial(verify_conj_lemma, k) for k in range(1, r)],
    "tc": lambda r: [partial(verify_tc_identity, n, k) for k in range(2, r) for n in range(r - k)],
    "baby": lambda r: [partial(verify_baby_succ, n, k) for k in range(2, r) for n in range(r - k)],
    "main": lambda r: [
        *(partial(verify_main, n, k) for k in range(2, r + 1) for n in range(r - k + 1)),
        *(partial(verify_matrix, k) for k in range(2, max(8, r) + 1)),
    ],
    "binom": lambda r: [
        *(partial(verify_separated_count, k) for k in range(1, max(12, r) + 1)),
        *(partial(verify_binom, k) for k in range(31)),
    ],
}


def build_checks(suite: str, max_rank: int = 6) -> list:
    """The checks of one named suite at an ambient rank cap, as callables
    that take no arguments and return a VerificationReport."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite](max_rank)


def run_suite(suites, max_rank: int = 6) -> list[VerificationReport]:
    """Run the named suites and return reports sorted by statement, then parameters."""
    checks = [check for name in suites for check in build_checks(name, max_rank)]
    reports = [check() for check in checks]
    reports.sort(key=VerificationReport.sort_key)
    return reports
