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
since s(j) = j > i.  ``enumerate_good`` yields G_k grouped by s, each group
in one fixed order of the subsets F, and ``GoodInvolutions.signatures``
yields the statistics in the same order, computing the per-s parts once per
group; the verifier builds the weights of its closed form for T_{w_{0,k}}^2
from them.

neat(s) sums, over the arcs i < s(i), the positions x strictly between i and
s(i) with s(x) > i, which are the positions still open when the backtracking
fill of ``Involutions`` places that arc.  This is the
crossings-and-nestings count of the matching of s (Chen, Deng, Du, Stanley
and Yan, "Crossings and nestings of matchings and partitions", Trans. AMS
2007): neat(s) = 2 nestings + crossings + fixed points under an arc.  A fixed
point under an arc is counted once and a nested arc twice (both of its
ends); of two crossing arcs only the left one counts an end of the other.
So pairing the first open position with the m-th open position after it
adds q^(m-1), and (1 - q)(1 + ... + q^(k-2)) = 1 - q^(k-1) is the factor of
the recurrence for f_k.  ``_neat_and_m`` reads neat(s), the fixed points of
s and each m_j = #{i < j : s(i) < j} in one pass over the window of s.

G_{k+1} is produced from G_k by conjugating with x = t s_1 ... s_k (or with
x missing one letter); ``conjugator`` and ``conjugator_omit`` give these
elements, and the verifier checks the conjugation expansion they drive.

Separated k-sets are the subsets of {0, ..., k-1} whose pairwise differences
lie strictly between 1 and k-1; they index a closed form for the polynomials
f_k computed in the verifier.

Both enumerators give plain values, good by construction: a good involution
is its SignedPermutation window and a separated set is the increasing tuple
of its members.  ``enumerate_separated`` returns a list.
``symmetric_involutions`` returns an ``Involutions`` view, which holds only
the window being filled and yields each involution of S_k as it is filled;
``enumerate_good`` returns a ``GoodInvolutions`` view, which holds the list of
the involutions of S_k (a small fraction of G_k) and builds each one's group
of windows only when iteration reaches it.  The
definitions they meet are tested predicates (``is_good`` and
``pairwise_separated`` in ``tests/oracles.py``), not checks repeated on
every value; so are the pair scans of c(w) and neat(s) (``stat_c`` and
``neat_count`` there).
"""

from __future__ import annotations

import math
from itertools import chain, count, product, repeat, starmap
from operator import eq

from .signedperm import SignedPermutation, generator

__all__ = [
    "GoodInvolutions",
    "Involutions",
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


class Involutions:
    """The involutions of S_k as a sized view that can be iterated more than
    once; each iteration runs the fill afresh and yields one window at a time.

    Each window is a sign-positive SignedPermutation, in window order: one
    backtracking fill pairs the first open position i with each open j >= i
    in turn (j = i fixes i), so no sort is needed.  Nothing but the window
    being filled is held, so a consumer that drops each window as it goes
    never holds the involutions.  ``len`` walks the same fill when asked, so
    ``list(view)``, which sizes its list by ``len``, runs the fill twice.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.k = k

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __iter__(self):
        k = self.k
        window = [0] * k  # 0 marks an open position
        arcs = []  # a stack of the placed pairs
        i = j = 0  # pair the first open position i with the first open j' >= j
        while True:
            if i == k:
                yield tuple.__new__(SignedPermutation, window)
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
                return


def symmetric_involutions(k: int) -> Involutions:
    """All involutions of S_k as sign-positive windows, in window order, as an
    ``Involutions`` view: each iteration fills them one at a time."""
    return Involutions(k)


class GoodInvolutions:
    """G_k as a sized view that can be iterated more than once.

    The involutions of S_k are listed when the view is made (9,496 windows
    at k = 10, far fewer than G_k's 123,109); the windows of each involution's
    group are built only when iteration reaches it, so a consumer that drops
    each window as it goes never holds all of G_k.
    ``len`` is the sum over the involutions of 2^|Fix s|, counted when asked.
    """

    __slots__ = ("involutions", "_negated")

    def __init__(self, k: int):
        self.involutions = list(symmetric_involutions(k))  # sized by len: the fill runs twice
        self._negated = [-v for v in range(k + 1)]  # one int object per -v, shared by every window

    def __len__(self) -> int:
        return sum(1 << sum(map(eq, s, count(1))) for s in self.involutions)

    def __iter__(self):
        return chain.from_iterable(map(self._group, self.involutions))

    def _group(self, s):
        negated = self._negated
        choices = [(negated[v], v) if v == i else (negated[v],) for i, v in enumerate(s, start=1)]
        return map(tuple.__new__, repeat(SignedPermutation), product(*choices))

    def signatures(self):
        """Each window's (a(w), a(-w), c(w)), in iteration order.

        The group of s holds a window per subset F of Fix s, in ``_group``'s
        product order over the choices (-j, j) at each fixed point j, j in F
        being the second choice.  So a(w) = |F| runs over the sums of
        product((0, 1), ...), a(-w) = |Fix s| - a(w), and c(w) = neat(s) + sum
        over F of m_j runs over the sums of product((neat(s),), (0, m_j), ...):
        each window costs C-level steps only.
        """
        # a(w) per subset of f fixed points, in product order, for each f <= k
        sizes = [tuple(map(sum, product((0, 1), repeat=f))) for f in range(len(self._negated))]

        def group(neat, m):
            a = sizes[len(m)]
            return zip(a, map(len(m).__sub__, a), map(sum, product((neat,), *zip(repeat(0), m))))

        return chain.from_iterable(starmap(group, map(_neat_and_m, self.involutions)))


def enumerate_good(k: int) -> GoodInvolutions:
    """All of G_k as windows, grouped by the involution s = |w| of S_k.

    The groups come in ``symmetric_involutions`` order, which the view's
    ``involutions`` list holds.  The group of s holds -s with each subset of
    the fixed points of s made positive again: its 2^|Fix s| windows in
    ``itertools.product`` order over the choices (-j, j) at each fixed point
    j, so it starts at -s.  Each group is built when iteration reaches it.
    Not sorted by window: ``sorted(enumerate_good(k))`` is.
    """
    return GoodInvolutions(k)


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
