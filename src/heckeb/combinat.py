"""Good involutions of B_k, their statistics, and separated k-sets.

A good involution fixes each positive index or sends it to a negative value.
The set G_k of good involutions carries three statistics: a(w) counts fixed
points among 1..k, d(i, w) counts fixed points strictly above i, and c(w)
counts the unordered "tidy" pairs {i, j} with -w(i) < j and -w(j) < i.

G_k is enumerated through its bijection with the pairs (s, F) of an involution
s of S_k and a subset F of the fixed points of s: w = -s with F made positive.
The statistics factor through the pair: a(w) = |F|, a(-w) = |Fix s| - |F| and
c(w) = neat(s) + sum over j in F of #{i < j : s(i) < j}, where a pair
{i, j} is neat in s when s(j) < i and s(i) < j, that is, tidy in -s.  For a
pair i < j: with neither end in F it is tidy in w exactly when it is neat in
s; with only i in F the condition is unchanged, since -w(i) = -i < j
anyway; with j in F it is tidy exactly when s(i) < j, and it was not neat,
since s(j) = j > i.  The verifier's closed form for T_{w_{0,k}}^2 uses this
to compute the per-s parts once per involution of S_k.

|Fix s| and neat(s) are read together in one pass over the window of s
(``_fixed_and_neat``): each arc i < s(i) adds the positions x strictly
between i and s(i) with s(x) > i, which are the positions still open when
the backtracking fill of ``symmetric_involutions`` places that arc.  This is
the crossings-and-nestings count of the matching of s (Chen, Deng, Du,
Stanley and Yan, "Crossings and nestings of matchings and partitions",
Trans. AMS 2007): neat(s) = 2 nestings + crossings + fixed points under an
arc.  A fixed point under an arc is counted once and a nested arc twice (both
of its ends); of two crossing arcs only the left one counts an end of the
other.  So pairing the first open position with the m-th open position after
it adds q^(m-1), and (1 - q)(1 + ... + q^(k-2)) = 1 - q^(k-1) is the factor
of the recurrence for f_k.

G_{k+1} is produced from G_k by conjugating with x = t s_1 ... s_k (or with
x missing one letter); ``conjugator`` and ``conjugator_omit`` give these
elements, and the verifier checks the conjugation expansion they drive.

Separated k-sets are the subsets of {0, ..., k-1} whose pairwise differences
lie strictly between 1 and k-1; they index a closed form for the polynomials
f_k computed in the verifier.

Both enumerators return plain values, good by construction: a good
involution is its SignedPermutation window and a separated set is the
increasing tuple of its members.  The definitions they meet are tested
predicates (``is_good`` and ``pairwise_separated`` in ``tests/oracles.py``),
not checks repeated on every value; so are the pair scans of c(w) and
neat(s) (``stat_c`` and ``neat_count`` there).
"""

from __future__ import annotations

import itertools
import math

from .signedperm import SignedPermutation, generator

__all__ = [
    "enumerate_good",
    "stat_a",
    "stat_d",
    "symmetric_involutions",
    "conjugator",
    "conjugator_omit",
    "enumerate_separated",
    "count_separated",
    "binomial_sum",
]


def stat_a(w: SignedPermutation) -> int:
    """Number of fixed points of w among 1..rank."""
    return sum(1 for i, v in enumerate(w, start=1) if v == i)


def stat_d(i: int, w: SignedPermutation) -> int:
    """Number of fixed points of w strictly above position i (0 <= i <= rank)."""
    if not 0 <= i <= len(w):
        raise ValueError(f"i = {i} out of range for rank {len(w)}")
    return sum(1 for j in range(i + 1, len(w) + 1) if w[j - 1] == j)


def _fixed_and_neat(s) -> tuple[int, int]:
    """(|Fix s|, neat(s)) for an involution s of S_k, read in one pass over
    its window.  s is not checked: callers pass windows built as involutions.

    Each arc i < s(i) adds the positions x strictly between its ends with
    s(x) > i (a fixed point under the arc, or an end of an arc that starts
    after i), so an arc with s(i) = i + 1 adds nothing.
    """
    fixed = neat = 0
    i = 0
    for v in s:
        i += 1
        if v > i + 1:
            for x in s[i : v - 1]:
                if x > i:
                    neat += 1
        elif v == i:
            fixed += 1
    return fixed, neat


def symmetric_involutions(k: int) -> list[SignedPermutation]:
    """All involutions of S_k as sign-positive windows, in window order: one
    backtracking fill pairs the first open position i with each open j >= i in
    turn (j = i fixes i), so no sort is needed."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    window = [0] * k  # 0 marks an open position
    out = []
    # A stack of the placed pairs, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep ``out`` alive until
    # the cyclic collector runs.
    arcs = []
    i = j = 0  # pair the first open position i with the first open j' >= j
    while True:
        if i == k:
            out.append(tuple.__new__(SignedPermutation, window))
            j = k  # the window is full: undo the last pair
        while j < k and window[j]:
            j += 1
        if j < k:
            window[i], window[j] = j + 1, i + 1
            arcs.append((i, j))
            while i < k and window[i]:
                i += 1
            j = i
        elif arcs:
            i, j = arcs.pop()
            window[i] = window[j] = 0
            j += 1
        else:
            return out


def enumerate_good(k: int) -> list[SignedPermutation]:
    """All of G_k as windows, from the involutions s of S_k: -s with any
    subset of the fixed points of s made positive again.  Sorted by window."""
    out = []
    for s in symmetric_involutions(k):
        choices = [(v, -v) if v == i else (-v,) for i, v in enumerate(s, start=1)]
        for window in itertools.product(*choices):
            out.append(tuple.__new__(SignedPermutation, window))
    out.sort()
    return out


# -- successor/predecessor recursion -------------------------------------------

def conjugator(k: int) -> SignedPermutation:
    """The element x = t s_1 ... s_k of B_{k+1} driving the rank-raising conjugation."""
    w = generator(0, k + 1)
    for i in range(1, k + 1):
        w = w.apply_right(i)
    return w


def conjugator_omit(i: int, k: int) -> SignedPermutation:
    """x with the letter s_i left out: t s_1 ... s_{i-1} s_{i+1} ... s_k."""
    if not 1 <= i <= k:
        raise ValueError(f"i = {i} out of range 1..{k}")
    w = generator(0, k + 1)
    for j in range(1, k + 1):
        if j != i:
            w = w.apply_right(j)
    return w


# -- separated sets ---------------------------------------------------------------

def enumerate_separated(k: int) -> list[tuple[int, ...]]:
    """All separated k-sets as increasing member tuples, by backtracking;
    sorted by (size, members)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [()]
    # (set, start, stop): the next member is drawn from range(start, stop);
    # start = last member + 2 keeps gaps above 1, stop keeps the span below k - 1.
    # A stack, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep ``out`` alive until the cyclic collector runs.
    todo = [((), 0, k)]
    while todo:
        chosen, start, stop = todo.pop()
        for v in range(start, stop):
            cur = chosen + (v,)
            out.append(cur)
            todo.append((cur, v + 2, min(stop, cur[0] + k - 1)))
    out.sort(key=lambda s: (len(s), s))
    return out


def _binom(n: int, t: int) -> int:
    """Binomial coefficient with C(n, 0) = 1 for every n and 0 otherwise
    outside 0 <= t <= n."""
    if t == 0:
        return 1
    if t < 0 or n < 0 or t > n:
        return 0
    return math.comb(n, t)


def count_separated(k: int, i: int) -> int:
    """Closed form for the number of separated k-sets of cardinality i."""
    if k < 1 or i < 0:
        raise ValueError("need k >= 1 and i >= 0")
    return _binom(k - i, i) + _binom(k - i - 1, i - 1)


def binomial_sum(k: int, i: int) -> int:
    """The alternating sum sum_j (-1)^j C(k-2j, i-j) C(k-j, j).

    Each product is the trinomial coefficient (k-j)! / (j! (i-j)! (k-i-j)!),
    vanishing whenever a lower index is negative.
    """
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i = {i}, k = {k}")
    total = 0
    for j in range(i + 1):
        term = _binom(k - 2 * j, i - j) * _binom(k - j, j)
        total += -term if j & 1 else term
    return total
