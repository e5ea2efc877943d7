"""The successor/predecessor recursion on good involutions and the cyclic
shift of separated sets.  Only the tests use them, so they live here rather
than in ``heckeb.combinat``.  Each output is checked against its definition
(``oracles.is_good``, ``oracles.pairwise_separated``)."""

from heckeb.combinat import conjugator, conjugator_omit
from heckeb.signedperm import generator

from oracles import is_good, pairwise_separated


def succ(w):
    """The 2 + a(w) successors of the good involution w in G_{k+1}, sorted."""
    k = len(w)
    x = conjugator(k)
    x_inv = x.inverse()
    w1 = w.embed(k + 1)
    base = x * w1 * x_inv
    out = [base, base * generator(0, k + 1)]
    for i in range(1, k + 1):
        if w[i - 1] == i:
            out.append(x * w1 * conjugator_omit(i, k).inverse())
    assert all(is_good(s) for s in out), out
    out.sort()
    return out


def pred(w):
    """The unique element of G_k whose successor set contains w in G_{k+1}.

    The case split is on w(1): fixed, negated, or sent to -(i+1).
    """
    kp1 = len(w)
    if kp1 < 1:
        raise ValueError("rank-0 element has no predecessor")
    k = kp1 - 1
    x = conjugator(k)
    v = w[0]
    if v == 1:
        result = x.inverse() * w * x
    elif v == -1:
        result = x.inverse() * (w * generator(0, kp1)) * x
    else:
        i = -v - 1
        if not 1 <= i <= k:
            raise ValueError(f"invalid first entry {v} for a good involution")
        result = x.inverse() * w * conjugator_omit(i, k)
    result = result.restrict(k)
    assert is_good(result), result
    return result


def shift_separated(s: tuple, k: int, r: int) -> tuple:
    """Cyclic shift of every member of the separated k-set s by r modulo k;
    a bijection of Sep_k."""
    members = tuple(sorted((v + r) % k for v in s))
    assert pairwise_separated(k, members), (s, k, r)
    return members
