"""The successor/predecessor recursion on good involutions and the cyclic
shift of separated sets.  Only the tests use them, so they live here rather
than in ``heckeb.combinat``."""

from heckeb.combinat import GoodInvolution, SeparatedSet, conjugator, conjugator_omit
from heckeb.signedperm import generator


def succ(g: GoodInvolution) -> list[GoodInvolution]:
    """The 2 + a(w) successors of w in G_{k+1}, sorted by window."""
    k = g.rank
    x = conjugator(k)
    x_inv = x.inverse()
    w1 = g.perm.embed(k + 1)
    base = x * w1 * x_inv
    out = [GoodInvolution(base), GoodInvolution(base * generator(0, k + 1))]
    for i in range(1, k + 1):
        if g.perm[i - 1] == i:
            out.append(GoodInvolution(x * w1 * conjugator_omit(i, k).inverse()))
    out.sort(key=lambda s: s.perm)
    return out


def pred(g: GoodInvolution) -> GoodInvolution:
    """The unique element of G_k whose successor set contains g in G_{k+1}.

    The case split is on g(1): fixed, negated, or sent to -(i+1).
    """
    kp1 = g.rank
    if kp1 < 1:
        raise ValueError("rank-0 element has no predecessor")
    k = kp1 - 1
    x = conjugator(k)
    v = g.perm[0]
    if v == 1:
        result = x.inverse() * g.perm * x
    elif v == -1:
        result = x.inverse() * (g.perm * generator(0, kp1)) * x
    else:
        i = -v - 1
        if not 1 <= i <= k:
            raise ValueError(f"invalid first entry {v} for a good involution")
        result = x.inverse() * g.perm * conjugator_omit(i, k)
    return GoodInvolution(result.restrict(k))


def shift_separated(s: SeparatedSet, r: int) -> SeparatedSet:
    """Cyclic shift of every member by r modulo k; a bijection of Sep_k."""
    members = tuple(sorted((v + r) % s.k for v in s.members))
    return SeparatedSet(s.k, members)
