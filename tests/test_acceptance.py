"""Acceptance gate: every criterion at its stated tolerance and time bound.

Each test prints one pass/fail line (run pytest with -s to see them all).
All equalities are exact polynomial identities; there are no numerical
tolerances anywhere.  The n+k = 7 sweep is opt-in via --runslow.
"""

import random
import time
from collections import deque

import pytest

from heckeb.combinat import enumerate_good, stat_a, stat_d
from heckeb.hecke import (
    HeckeElement,
    mult,
    t_of,
)
from heckeb.poly import ONE, P, Q, cyclotomic, reduce_mod_cyclotomic
from heckeb.signedperm import SignedPermutation, all_elements, generator, identity
from heckeb import verify as V

from combinat_helpers import succ
from oracles import descents, stat_c


def _criterion(num, ok, description):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_w0k_squares():
    reports = [V.verify_w0k(k) for k in range(1, 6)]
    t0 = time.perf_counter()
    reports.append(V.verify_w0k(6))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 10.0
    _criterion(1, ok, f"T_w0k^2 closed form, k=1..6 exact (k=6 in {elapsed:.2f}s < 10s)")


def test_criterion_02_fk_triple_agreement():
    t0 = time.perf_counter()
    ok = all(V.verify_fk(k).passed for k in range(1, 9))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _criterion(2, ok, f"f_k triple agreement, k=1..8 exact ({elapsed:.2f}s < 5s)")


def test_criterion_03_base_case():
    ok = all(V.verify_base_case(k).passed for k in range(2, 9))
    ok = ok and reduce_mod_cyclotomic(V.f_k_direct(2), cyclotomic(2)) == ONE + P**2
    ok = ok and reduce_mod_cyclotomic(V.f_k_direct(3), cyclotomic(3)) == ONE - P**3
    _criterion(3, ok, "f_k = 1 + (-p)^k mod phi_k, k=2..8, incl. 1+p^2 and 1-p^3")


def test_criterion_04_main_identity_sweep():
    pairs = [(n, k) for k in range(2, 7) for n in range(0, 7 - k)]
    t0 = time.perf_counter()
    ok = all(V.verify_main(n, k).passed for n, k in pairs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _criterion(4, ok, f"main identity for k>=2, n+k<=6 exact ({elapsed:.2f}s < 60s)")


@pytest.mark.slow
def test_criterion_04_slow_rank7():
    pairs = [(7 - k, k) for k in range(2, 8)]
    t0 = time.perf_counter()
    ok = all(V.verify_main(n, k).passed for n, k in pairs)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _criterion(4, ok, f"main identity at n+k=7 ({elapsed:.1f}s < 900s, opt-in)")


@pytest.mark.slow
def test_criterion_04_slow_rank8_pairs():
    # correctness only: no time bound is set for n+k = 8 yet
    pairs = [(4, 4), (1, 7), (3, 5), (2, 6)]
    ok = all(V.verify_main(n, k).passed for n, k in pairs)
    _criterion(4, ok, "main identity at (n,k) = (4,4), (1,7), (3,5) and (2,6), opt-in")


def test_criterion_05_conjugation_expansion():
    ok = all(V.verify_conj_lemma(k).passed for k in range(1, 6))
    _criterion(5, ok, "T_x T_w T_x^-1 expansion for every good involution, k=1..5")


def test_criterion_06_tc_identity():
    pairs = [(n, k) for k in range(2, 6) for n in range(0, 6 - k)]
    ok = all(V.verify_tc_identity(n, k).passed for n, k in pairs)
    _criterion(6, ok, "T_c^-1 T_c expansion for all n+k+1 <= 6")


def test_criterion_07_baby_succ():
    pairs = [(n, k) for k in range(2, 6) for n in range(0, 6 - k)]
    ok = all(V.verify_baby_succ(n, k).passed for n, k in pairs)
    _criterion(7, ok, "coset conjugation length/membership, exhaustive n+k <= 5")


def test_criterion_08_counting_identities():
    ok = all(V.verify_separated_count(k).passed for k in range(1, 13))
    ok = ok and all(V.verify_binom(k).passed for k in range(0, 31))
    _criterion(8, ok, "separated-set counts k<=12; alternating sum = 1 for k<=30")


def test_criterion_09_succ_partition_and_transport():
    ok = True
    for k in range(1, 7):
        image = []
        for w in enumerate_good(k):
            successors = succ(w)
            ok = ok and len(successors) == 2 + stat_a(w)
            image.extend(successors)
        ok = ok and len(image) == len(set(image))
        ok = ok and sorted(image) == enumerate_good(k + 1)
    from heckeb.combinat import conjugator

    for k in range(1, 7):
        x = conjugator(k)
        t_top = generator(0, k + 1)
        for g in enumerate_good(k):
            base = x * g.embed(k + 1) * x.inverse()
            a, a_neg, c = stat_a(g), stat_a(g.negate()), stat_c(g)
            for w in succ(g):
                s_a, s_a_neg, s_c = stat_a(w), stat_a(w.negate()), stat_c(w)
                if w == base:
                    ok = ok and s_a == a + 1 and s_a_neg == a_neg
                    ok = ok and s_c == c + a
                elif w == base * t_top:
                    ok = ok and s_a == a and s_a_neg == a_neg + 1
                    ok = ok and s_c == c + a
                else:
                    i = -w[0] - 1
                    ok = ok and g[i - 1] == i
                    ok = ok and s_a == a - 1 and s_a_neg == a_neg
                    ok = ok and s_c == c + stat_d(i, g)
    _criterion(9, ok, "G_{k+1} partitions into successor sets with statistics transport, k<=6")


def _bfs_distances(rank):
    start = identity(rank)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for g in range(rank):
            u = w.apply_right(g)
            if u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    return dist


def test_criterion_10_oracle_suites():
    # length formula vs Cayley-graph distance, all of B_4
    dist = _bfs_distances(4)
    ok = len(dist) == 384 and all(w.length() == d for w, d in dist.items())

    # group-algebra degeneration at p = q = 1, all of B_3
    elements = list(all_elements(3))
    for u in elements:
        tu = t_of(u)
        for v in elements:
            if mult(tu, t_of(v)).specialize(1, 1) != {u * v: 1}:
                ok = False
                break

    # reduced-word well-definedness: folding a probe through different
    # reduced words of every element of B_4 gives identical results
    probe = HeckeElement(
        4,
        {
            identity(4).negate(): ONE,
            SignedPermutation([-2, -1, 3, 4]): P,
            identity(4): ONE + Q,
        },
    )
    rng = random.Random(2718)

    def word_by(w, chooser):
        letters = []
        while not w.is_identity():
            letters.append(chooser(descents(w)))
            w = w.apply_right(letters[-1])
        letters.reverse()
        return letters

    for w in all_elements(4):
        words = {
            tuple(word_by(w, lambda d: d[0])),
            tuple(word_by(w, lambda d: d[-1])),
            tuple(word_by(w, rng.choice)),
        }
        results = []
        for word in words:
            h = probe
            for g in word:
                h = mult(h, t_of(generator(g, 4)))
            results.append(h)
        ok = ok and all(r == results[0] for r in results)
    _criterion(10, ok, "BFS lengths on B_4; p=q=1 degeneration on B_3; word independence on B_4")


def test_criterion_11_matrix_relation():
    ok = all(V.verify_matrix(k).passed for k in range(2, 9))
    _criterion(11, ok, "(T-1)(T+Q) = 0 with Q = -(-p)^k, k=2..8")
