"""Executable checks for every closed form and identity the engine reproduces.

Each check recomputes both sides of one statement from first principles --
generator-by-generator Hecke multiplication on one side, a combinatorial
closed form on the other -- and compares them as exact polynomials.  The
outcome is a VerificationReport; a failing report always carries a witness
listing the first mismatching basis elements or coefficients.

Checks are grouped into named suites matching the CLI: w0k, fk, base, conj,
tc, baby, main, binom.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import eq

from .combinat import (
    _fixed_and_neat,
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


@dataclass
class VerificationReport:
    """Pass/fail outcome of one statement at one parameter point."""

    statement: str
    params: dict
    status: str  # "pass" or "fail"
    witness: list | None = None
    ms: float = 0.0

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
        return VerificationReport(statement, params, "fail", mismatches[:WITNESS_LIMIT], ms)
    return VerificationReport(statement, params, "pass", None, ms)


def _hecke_mismatches(lhs: HeckeElement, rhs: HeckeElement, label: str = "") -> list:
    if lhs == rhs:
        return []
    out = []
    keys = set(lhs.support()) | set(rhs.support())
    for w in sorted(keys, key=_sort_key):
        a, b = lhs.coefficient(w), rhs.coefficient(w)
        if a != b:
            where = f"{label}T{w}" if label else f"T{w}"
            out.append({"where": where, "lhs": str(a), "rhs": str(b)})
            if len(out) >= WITNESS_LIMIT:
                break
    return out


# -- squares of w_{0,k} ------------------------------------------------------

def _involution_table(s) -> tuple[int, int, tuple[int, ...]]:
    """(neat(s), |Fix s|, m(s)) for an involution s of S_k, where m(s) holds
    m_j = #{i < j : s(i) < j} at each fixed point j and 0 elsewhere."""
    m = tuple(
        sum(1 for v in s[: j - 1] if v < j) if v_j == j else 0
        for j, v_j in enumerate(s, start=1)
    )
    fixed, neat = _fixed_and_neat(s)
    return neat, fixed, m


def good_involution_weights(k: int):
    """Each w in G_k, in window order, as (w, (a, a', c), weight).

    The weight p^((k+a-a')/2) (1-p)^a' q^c (1-q)^((k-a-a')/2), with a = a(w),
    a' = a(-w) and c = c(w), is the coefficient of T_w in T_{w_{0,k}}^2; both
    exponents must come out integral.  The weight depends only on (a, a', c),
    so it is built once per triple and the same (immutable) BivarPoly is
    shared by every w with that triple.

    The statistics come from the involution s = |w| of S_k and the set
    E = {j : w(j) = j}, a subset of Fix(s): a(w) = |E|, a(-w) = |Fix s| - |E|
    and c(w) = neat(s) + sum over j in E of m_j(s), m_j(s) = #{i < j : s(i) < j}.
    For c, take a pair i < j.  If neither end is in E, w = -s on both and the
    pair is tidy in w exactly when it is neat in s.  If only i is in E, the
    condition -w(j) = s(j) < i is that of neatness, and -w(i) = -i < j holds
    anyway.  If j is in E, -w(j) = -j < i holds, so the pair is tidy exactly
    when -w(i) < j, i.e. s(i) < j (-w(i) is s(i) or -i); it was not neat,
    since s(j) = j > i.  So neat(s), |Fix s| and m(s) are computed once per
    involution s, and each w costs a few C-level passes over its window.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    one_minus_p = ONE - P
    one_minus_q = ONE - Q
    positions = range(1, k + 1)
    tables = {}
    weights = {}
    for w in enumerate_good(k):
        s = tuple(map(abs, w))
        table = tables.get(s)
        if table is None:
            table = tables[s] = _involution_table(s)
        neat, fixed, m = table
        in_e = tuple(map(eq, w, positions))
        a = sum(in_e)
        signature = (a, fixed - a, neat + sum(compress(m, in_e)))
        coeff = weights.get(signature)
        if coeff is None:
            _, a_neg, c = signature
            if (k + a - a_neg) % 2 or (k - a - a_neg) % 2:
                raise ArithmeticError(f"non-integer exponent for {w}")
            coeff = weights[signature] = (
                P ** ((k + a - a_neg) // 2)
                * one_minus_p**a_neg
                * Q**c
                * one_minus_q ** ((k - a - a_neg) // 2)
            )
        yield w, signature, coeff


def closed_form_w0k_square(k: int) -> HeckeElement:
    """The combinatorial expansion of T_{w_{0,k}}^2 over good involutions:
    sum over w in G_k of the weight from good_involution_weights times T_w.

    The windows are distinct rank-k SignedPermutations and every weight is a
    nonzero BivarPoly, so the terms go in unchecked."""
    return HeckeElement._raw(k, {w: coeff for w, _, coeff in good_involution_weights(k)})


def verify_w0k(k: int) -> VerificationReport:
    """T_{w_{0,k}}^2, engine-computed, equals the good-involution closed form."""
    t0 = time.perf_counter()
    w = make_w_nk(0, k)
    engine = mult(t_of(w), t_of(w))
    closed = closed_form_w0k_square(k)
    return _report("w0k", {"k": k}, t0, _hecke_mismatches(engine, closed))


# -- the polynomials f_k -------------------------------------------------------

def f_k_direct(k: int) -> BivarPoly:
    """f_k as the sum over involutions of S_k weighted by fixed points and neat pairs.

    An involution w contributes p^((k-a)/2) (1-q)^((k-a)/2) (1-p)^a q^neat with
    a = |Fix w| and neat = neat(w); the involutions are counted per (a, neat)
    and each distinct weight is built once.

    Both statistics come from one unchecked pass over each window
    (``combinat._fixed_and_neat``): a counts the positions with w(i) = i, and
    each arc i < w(i) adds to neat the positions x strictly between i and w(i)
    with w(x) > i, the positions still open when the backtracking fill of
    ``symmetric_involutions`` places that arc.  This is the neat count: under
    an arc a fixed point adds 1 and a nested arc adds 2 (both its ends are
    counted), while of two crossing arcs only the left one counts an end of
    the other, so the pair adds 1.  Pairing the first open position with the
    m-th open position after it thus adds q^(m-1), and
    (1-q)(1 + q + ... + q^(k-2)) = 1 - q^(k-1) is the factor of
    ``f_k_recurrence``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    multiplicity = Counter(map(_fixed_and_neat, symmetric_involutions(k)))
    pq = P * (ONE - Q)
    one_minus_p = ONE - P
    total = BivarPoly(0)
    for (a, neat), count in multiplicity.items():
        total = total + count * (pq ** ((k - a) // 2) * one_minus_p**a * Q**neat)
    return total


def f_k_recurrence(k: int) -> BivarPoly:
    """f_k from f_1 = 1-p, f_2 = 1-(1+q)p+p^2 and
    f_k = p(1-q^(k-1)) f_(k-2) + (1-p) f_(k-1)."""
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
    rec = f_k_recurrence(k)
    sep = f_k_separated(k)
    mism = []
    if direct != rec:
        mism.append({"where": "direct vs recurrence", "lhs": str(direct), "rhs": str(rec)})
    if direct != sep:
        mism.append({"where": "direct vs separated", "lhs": str(direct), "rhs": str(sep)})
    return _report("fk", {"k": k}, t0, mism)


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
    mism = []
    if reduced_fk != target:
        mism.append({"where": "f_k mod phi_k", "lhs": str(reduced_fk), "rhs": str(target)})
    return _report("base", {"k": k}, t0, mism)


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
    mism = []
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
        found = _hecke_mismatches(engine, expected, label=f"w={w} ")
        mism.extend(found)
        if len(mism) >= WITNESS_LIMIT:
            break
    return _report("conj", {"k": k}, t0, mism)


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
    return _report("tc", {"k": k, "n": n}, t0, _hecke_mismatches(engine, expected))


def verify_baby_succ(n: int, k: int) -> VerificationReport:
    """Conjugation by c = s_{n+1}...s_{n+k} maps the coset (B_n x S_k) w_{n,k}
    into (B_{n+1} x S_k) w_{n+1,k}, adding 2k to the length; the reverse
    conjugation lands back exactly when position n+1 is fixed."""
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    t0 = time.perf_counter()
    m = n + k + 1
    c = make_cycle(n, k)
    c_inv = c.inverse()
    w_nk = make_w_nk(n, k)
    w_up = make_w_nk(n + 1, k)
    mism = []

    def note(where, lhs, rhs):
        mism.append({"where": where, "lhs": str(lhs), "rhs": str(rhs)})

    for u in parabolic_elements(n, k):
        w = (u * w_nk).embed(m)
        conj = c * w * c_inv
        if conj.length() != w.length() + 2 * k:
            note(f"length of c*{w}*c^-1", conj.length(), w.length() + 2 * k)
        if distinguished_factor(conj, n + 1, k)[1] != w_up:
            note(f"coset membership of c*{w}*c^-1", conj, f"(B_{n+1} x S_{k}) w_{n+1},{k}")
        if len(mism) >= WITNESS_LIMIT:
            return _report("baby", {"k": k, "n": n}, t0, mism)

    for u in parabolic_elements(n + 1, k):
        w = u * w_up
        back = c_inv * w * c
        lands = (
            back[n + k] == n + k + 1
            and distinguished_factor(back.restrict(n + k), n, k)[1] == w_nk
        )
        if lands != (w[n] == n + 1):
            note(f"return conjugation of {w}", lands, w[n] == n + 1)
        if len(mism) >= WITNESS_LIMIT:
            break
    return _report("baby", {"k": k, "n": n}, t0, mism)


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
    return _report("main", {"k": k, "n": n}, t0, _hecke_mismatches(reduced, expected))


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
    mism = []
    for i in range(2):
        for j in range(2):
            entry = sum(
                (left[i][l] * right[l][j] for l in range(2)), BivarPoly(0)
            )
            if entry:
                mism.append({"where": f"entry ({i},{j})", "lhs": str(entry), "rhs": "0"})
    return _report("matrix", {"k": k}, t0, mism)


# -- counting identities ------------------------------------------------------------------

def verify_separated_count(k: int) -> VerificationReport:
    """Enumerated separated k-sets match C(k-i, i) + C(k-i-1, i-1) per cardinality."""
    t0 = time.perf_counter()
    sets = enumerate_separated(k)
    by_size: dict[int, int] = {}
    for s in sets:
        by_size[len(s)] = by_size.get(len(s), 0) + 1
    mism = []
    for i in sorted(set(by_size) | set(range(0, k // 2 + 1))):
        enum, formula = by_size.get(i, 0), count_separated(k, i)
        if enum != formula:
            mism.append({"where": f"cardinality {i}", "lhs": str(enum), "rhs": str(formula)})
    return _report("sep-count", {"k": k}, t0, mism)


def verify_binom(k: int) -> VerificationReport:
    """The alternating trinomial sum equals 1 for every 0 <= i <= k."""
    t0 = time.perf_counter()
    mism = []
    for i in range(k + 1):
        val = binomial_sum(k, i)
        if val != 1:
            mism.append({"where": f"i = {i}", "lhs": str(val), "rhs": "1"})
    return _report("binom", {"k": k}, t0, mism)


# -- suites ------------------------------------------------------------------------------

SUITES = ("w0k", "fk", "base", "conj", "tc", "baby", "main", "binom")


def build_checks(suite: str, max_rank: int = 6) -> list:
    """The (statement, callable) list for one named suite at a given ambient rank cap."""
    checks = []
    if suite == "w0k":
        for k in range(1, max_rank + 1):
            checks.append(lambda k=k: verify_w0k(k))
    elif suite == "fk":
        for k in range(1, max(8, max_rank) + 1):
            checks.append(lambda k=k: verify_fk(k))
    elif suite == "base":
        for k in range(2, max(8, max_rank) + 1):
            checks.append(lambda k=k: verify_base_case(k))
    elif suite == "conj":
        for k in range(1, max_rank):
            checks.append(lambda k=k: verify_conj_lemma(k))
    elif suite == "tc":
        for k in range(2, max_rank):
            for n in range(0, max_rank - k):
                checks.append(lambda n=n, k=k: verify_tc_identity(n, k))
    elif suite == "baby":
        for k in range(2, max_rank):
            for n in range(0, max_rank - k):
                checks.append(lambda n=n, k=k: verify_baby_succ(n, k))
    elif suite == "main":
        for k in range(2, max_rank + 1):
            for n in range(0, max_rank - k + 1):
                checks.append(lambda n=n, k=k: verify_main(n, k))
        for k in range(2, max(8, max_rank) + 1):
            checks.append(lambda k=k: verify_matrix(k))
    elif suite == "binom":
        for k in range(1, max(12, max_rank) + 1):
            checks.append(lambda k=k: verify_separated_count(k))
        for k in range(0, 31):
            checks.append(lambda k=k: verify_binom(k))
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return checks


def run_suite(suites, max_rank: int = 6) -> list[VerificationReport]:
    """Run the named suites and return reports sorted by statement, then parameters."""
    if isinstance(suites, str):
        suites = [suites]
    checks = []
    for name in suites:
        checks.extend(build_checks(name, max_rank))
    reports = [check() for check in checks]
    reports.sort(key=VerificationReport.sort_key)
    return reports
