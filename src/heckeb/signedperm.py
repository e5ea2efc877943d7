"""Signed permutations: exact arithmetic for the Coxeter groups B_m.

An element of B_m is a permutation w of {±1, ..., ±m} with w(-i) = -w(i),
stored as its window (w(1), ..., w(m)).  The Coxeter generators are
t = (-1, 1), negating the value at position 1, and s_i = (i, i+1)(-i, -(i+1))
for 1 <= i <= m-1, swapping the values at positions i and i+1.  Generator
indices throughout the package: 0 denotes t and i >= 1 denotes s_i.

Ranks are explicit.  Cross-rank products are an error; use ``embed`` to move
an element into a larger group (appending fixed points) before multiplying.
"""

from __future__ import annotations

import itertools

__all__ = [
    "SignedPermutation",
    "identity",
    "generator",
    "make_w_nk",
    "make_cycle",
    "all_elements",
    "symmetric_group_elements",
    "parabolic_elements",
]


class SignedPermutation(tuple):
    """An element of B_m, canonically encoded as its window tuple.

    Immutable, hashable and totally ordered via the underlying tuple, so
    windows can serve directly as dictionary keys and sort keys.

    >>> w = SignedPermutation([1, -3, -2])
    >>> w.length()
    7
    >>> (w * w).is_identity()
    True
    """

    __slots__ = ()

    def __new__(cls, window):
        self = tuple.__new__(cls, window)
        m = len(self)
        seen = set()
        for v in self:
            if type(v) is not int or v == 0 or abs(v) > m:  # bool is not an entry
                raise ValueError(f"invalid window entry {v!r} for rank {m}")
            seen.add(abs(v))
        if len(seen) != m:
            raise ValueError(f"window {list(self)} is not a signed permutation")
        return self

    @property
    def rank(self) -> int:
        return len(self)

    def __mul__(self, other):
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"rank mismatch: {len(self)} vs {len(other)}")
        # the image of a signed index v, with w(-v) = -w(v)
        return tuple.__new__(
            SignedPermutation, (self[v - 1] if v > 0 else -self[-v - 1] for v in other)
        )

    def inverse(self) -> "SignedPermutation":
        """Group inverse, computed by inverting the signed bijection."""
        win = [0] * len(self)
        for i, v in enumerate(self, start=1):
            if v > 0:
                win[v - 1] = i
            else:
                win[-v - 1] = -i
        return tuple.__new__(SignedPermutation, win)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self, start=1))

    def length(self) -> int:
        """Coxeter length: inversions plus the absolute values of negated entries."""
        inv = 0
        neg = 0
        for i, v in enumerate(self):
            if v < 0:
                neg -= v
            for u in self[i + 1:]:
                if v > u:
                    inv += 1
        return inv + neg

    def negate(self) -> "SignedPermutation":
        """The element -w, with (-w)(i) = -w(i); equals w0*w = w*w0."""
        return tuple.__new__(SignedPermutation, (-v for v in self))

    # -- generator actions and reduced words --------------------------------

    def apply_right(self, g: int) -> "SignedPermutation":
        """w * generator(g): t negates the first entry, s_i swaps entries i, i+1."""
        if g == 0:
            return tuple.__new__(SignedPermutation, (-self[0],) + self[1:])
        return tuple.__new__(
            SignedPermutation,
            self[: g - 1] + (self[g], self[g - 1]) + self[g + 1:],
        )

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word for w as its letters (0 is t, i >= 1 is s_i), found by
        stripping the smallest-index right descent first.

        Stripping s_g changes only the descents at g - 1, g and g + 1, so the
        scan for the next smallest descent resumes at g - 1 instead of 0.
        """
        letters = []
        w = list(self)
        m = len(w)
        g = 0
        while g < m:
            if g == 0:
                if w[0] < 0:
                    w[0] = -w[0]
                    letters.append(0)
                    continue
            elif w[g - 1] > w[g]:
                w[g - 1], w[g] = w[g], w[g - 1]
                letters.append(g)
                g -= 1
                continue
            g += 1
        letters.reverse()
        return tuple(letters)

    # -- rank changes -------------------------------------------------------

    def embed(self, rank: int) -> "SignedPermutation":
        """View w inside B_rank by appending fixed points; preserves length."""
        if rank < len(self):
            raise ValueError(f"cannot embed rank {len(self)} into rank {rank}")
        return tuple.__new__(
            SignedPermutation, self + tuple(range(len(self) + 1, rank + 1))
        )

    def restrict(self, rank: int) -> "SignedPermutation":
        """Inverse of embed; requires positions rank+1..m to be fixed."""
        if rank > len(self):
            raise ValueError(f"cannot restrict rank {len(self)} to rank {rank}")
        for i in range(rank, len(self)):
            if self[i] != i + 1:
                raise ValueError(f"{self} does not fix position {i + 1}")
        return tuple.__new__(SignedPermutation, self[:rank])

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        return "[" + ",".join(str(v) for v in self) + "]"

    def __repr__(self):
        return f"SignedPermutation({list(self)})"


def identity(rank: int) -> SignedPermutation:
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return tuple.__new__(SignedPermutation, range(1, rank + 1))


def generator(g: int, rank: int) -> SignedPermutation:
    """The generator t (g = 0) or s_g (g >= 1) as an element of B_rank."""
    if not 0 <= g <= rank - 1 or rank < 1:
        raise ValueError(f"generator index {g} invalid for rank {rank}")
    return identity(rank).apply_right(g)


def make_w_nk(n: int, k: int) -> SignedPermutation:
    """The longest distinguished coset representative for B_n x S_k in B_{n+k}.

    Fixes 1..n and sends n+i to -(n+k+1-i); an involution of length
    2nk + k(k+1)/2.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    window = list(range(1, n + 1)) + [-(n + k + 1 - i) for i in range(1, k + 1)]
    return tuple.__new__(SignedPermutation, window)


def make_cycle(n: int, k: int) -> SignedPermutation:
    """The product s_{n+1} ... s_{n+k} in B_{n+k+1}.

    Cycles positions n+1, ..., n+k+1 by sending n+i to n+i+1 and n+k+1 back
    to n+1; conjugation by it carries w_{n,k} to w_{n+1,k}.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    window = (
        list(range(1, n + 1)) + list(range(n + 2, n + k + 2)) + [n + 1]
    )
    return tuple.__new__(SignedPermutation, window)


def all_elements(rank: int):
    """Iterate over all of B_rank (2^rank * rank! elements), windows in sorted sign/perm order."""
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            yield tuple.__new__(
                SignedPermutation, (s * v for s, v in zip(signs, perm))
            )


def symmetric_group_elements(rank: int):
    """Iterate over S_rank, i.e. the sign-positive elements of B_rank."""
    for perm in itertools.permutations(range(1, rank + 1)):
        yield tuple.__new__(SignedPermutation, perm)


def parabolic_elements(n: int, k: int):
    """Iterate over B_n x S_k as rank n+k windows."""
    for b in all_elements(n):
        for s in symmetric_group_elements(k):
            yield tuple.__new__(
                SignedPermutation, tuple(b) + tuple(v + n for v in s)
            )
