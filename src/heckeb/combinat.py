"""Good involutions of B_k, their statistics, and separated k-sets.

A good involution fixes each positive index or sends it to a negative value.
The set G_k of good involutions carries three statistics: a(w) counts fixed
points among 1..k, d(i, w) counts fixed points strictly above i, and c(w)
counts the unordered "tidy" pairs {i, j} with -w(i) < j and -w(j) < i.

G_k is enumerated through its bijection with the pairs (s, F) of an involution
s of S_k and a subset F of the fixed points of s: w = -s with F made positive.
The statistics factor through the pair: a(w) = |F|, a(-w) = |Fix s| - |F| and
c(w) = neat(s) + sum over j in F of #{i < j : s(i) < j}.  For a pair i < j:
with neither end in F it is tidy in w exactly when it is neat in s (as
``neat_count`` notes); with only i in F the condition is unchanged, since
-w(i) = -i < j anyway; with j in F it is tidy exactly when s(i) < j, and it
was not neat, since s(j) = j > i.  The verifier's closed form for
T_{w_{0,k}}^2 uses this to compute the per-s parts once per involution of S_k.

G_{k+1} is produced from G_k by conjugating with x = t s_1 ... s_k (or with
x missing one letter); ``conjugator`` and ``conjugator_omit`` give these
elements, and the verifier checks the conjugation expansion they drive.

Separated k-sets are the subsets of {0, ..., k-1} whose pairwise differences
lie strictly between 1 and k-1; they index a closed form for the polynomials
f_k computed in the verifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .signedperm import SignedPermutation, generator

__all__ = [
    "GoodInvolution",
    "SeparatedSet",
    "enumerate_good",
    "stat_a",
    "stat_d",
    "stat_c",
    "neat_count",
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


def stat_c(w: SignedPermutation) -> int:
    """Number of tidy pairs {i, j}: -w(i) < j and -w(j) < i."""
    # a tidy pair i < j has -w(j) < i < j and -w(i) < j; count the i for each j
    count = 0
    for j, wj in enumerate(w, start=1):
        for v in w[max(-wj, 0) : j - 1]:
            if -v < j:
                count += 1
    return count


def neat_count(w: SignedPermutation) -> int:
    """Number of neat pairs {i, j} of an involution in S_k: w(j) < i and w(i) < j.

    A pair is neat in w exactly when it is tidy in -w.
    """
    k = len(w)
    for i, v in enumerate(w, start=1):
        if not 0 < v <= k:
            raise ValueError(f"{w} is not in the symmetric group")
        if w[v - 1] != i:
            raise ValueError(f"{w} is not an involution")
    # a neat pair i < j has w(j) < i < j and w(i) < j; count the i for each such j
    count = 0
    for j, wj in enumerate(w, start=1):
        if wj < j:
            for v in w[wj : j - 1]:
                if v < j:
                    count += 1
    return count


@dataclass(frozen=True, slots=True)
class GoodInvolution:
    """An involution of B_k fixing each index or sending it negative."""

    perm: SignedPermutation

    def __post_init__(self):
        # each w(i) = i, or w(i) < 0 and w(-w(i)) = -i: an involution, non-fixed values negative
        w = self.perm
        for i, v in enumerate(w, start=1):
            if v != i and (v > 0 or w[-v - 1] != -i):
                raise ValueError(f"{w} is not a good involution: w({i}) = {v}")

    @property
    def rank(self) -> int:
        return len(self.perm)

    @property
    def a(self) -> int:
        return stat_a(self.perm)

    @property
    def a_neg(self) -> int:
        """Fixed points of -w, i.e. indices with w(i) = -i."""
        return sum(1 for i, v in enumerate(self.perm, start=1) if v == -i)

    @property
    def c(self) -> int:
        return stat_c(self.perm)

    def d(self, i: int) -> int:
        return stat_d(i, self.perm)

    def embed(self, rank: int) -> "GoodInvolution":
        return GoodInvolution(self.perm.embed(rank))

    def __str__(self):
        return str(self.perm)


def symmetric_involutions(k: int) -> list[SignedPermutation]:
    """All involutions of S_k as sign-positive windows, in window order: one
    backtracking fill pairs the first open position i with each open j >= i in
    turn (j = i fixes i), so no sort is needed."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    window = [0] * k  # 0 marks an open position
    out = []

    def fill(i: int):
        if i == k:
            out.append(tuple.__new__(SignedPermutation, window))
        elif window[i]:
            fill(i + 1)
        else:
            for j in range(i, k):
                if not window[j]:
                    window[i], window[j] = j + 1, i + 1
                    fill(i + 1)
                    window[j] = 0
            window[i] = 0

    fill(0)
    return out


def enumerate_good(k: int) -> list[GoodInvolution]:
    """All of G_k, from the involutions s of S_k: -s with any subset of the
    fixed points of s made positive again.  Sorted by window."""
    out = []
    for s in symmetric_involutions(k):
        choices = [(v, -v) if v == i else (-v,) for i, v in enumerate(s, start=1)]
        for window in itertools.product(*choices):
            out.append(GoodInvolution(tuple.__new__(SignedPermutation, window)))
    out.sort(key=lambda g: g.perm)
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

@dataclass(frozen=True)
class SeparatedSet:
    """A subset of {0..k-1} with pairwise differences strictly between 1 and k-1."""

    k: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        ms = self.members
        if list(ms) != sorted(set(ms)):
            raise ValueError("members must be strictly increasing")
        if ms and not (0 <= ms[0] and ms[-1] < self.k):
            raise ValueError(f"members out of range 0..{self.k - 1}")
        # sorted: the smallest difference is a consecutive gap, the largest the span
        for a, b in zip(ms, ms[1:]):
            if b - a < 2 or b - ms[0] > self.k - 2:
                raise ValueError(f"{self} violates separation for k = {self.k}")

    def __len__(self):
        return len(self.members)

    def __str__(self):
        return "{" + ",".join(str(v) for v in self.members) + "}"


def enumerate_separated(k: int) -> list[SeparatedSet]:
    """All separated k-sets, by backtracking; sorted by (size, members)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [SeparatedSet(k, ())]

    def extend(chosen: tuple[int, ...], start: int, stop: int):
        # start = last member + 2 keeps gaps above 1; stop keeps the span below k - 1
        for v in range(start, stop):
            cur = chosen + (v,)
            out.append(SeparatedSet(k, cur))
            extend(cur, v + 2, min(stop, cur[0] + k - 1))

    extend((), 0, k)
    out.sort(key=lambda s: (len(s.members), s.members))
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
