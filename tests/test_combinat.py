"""Good involutions, their statistics and recursion, and separated sets."""

import itertools

import pytest

from heckeb.combinat import (
    GoodInvolution,
    SeparatedSet,
    binomial_sum,
    conjugator,
    count_separated,
    enumerate_good,
    enumerate_separated,
    neat_count,
    stat_a,
    stat_c,
    stat_d,
    symmetric_involutions,
)
from heckeb.signedperm import (
    SignedPermutation,
    all_elements,
    identity,
    symmetric_group_elements,
)

from combinat_helpers import pred, shift_separated, succ
from oracles import is_involution


def good_involutions_filter(k):
    """Oracle: G_k by exhaustive filtering of all 2^k k! elements of B_k."""
    out = [
        GoodInvolution(w)
        for w in all_elements(k)
        if all(v == i or v < 0 for i, v in enumerate(w, start=1)) and is_involution(w)
    ]
    out.sort(key=lambda g: g.perm)
    return out


def tidy_pairs_oracle(w):
    """Oracle for stat_c: the scan over all pairs i < j of the definition."""
    count = 0
    for i in range(1, len(w) + 1):
        for j in range(i + 1, len(w) + 1):
            if -w[i - 1] < j and -w[j - 1] < i:
                count += 1
    return count


def pairwise_separated(k, members):
    """The definition: every pair differs by strictly between 1 and k - 1."""
    return all(1 < b - a < k - 1 for a, b in itertools.combinations(members, 2))


def separated_filter(k):
    """Oracle: the separated k-sets among all subsets, sorted by (size, members)."""
    return [
        SeparatedSet(k, ms)
        for size in range(k + 1)
        for ms in itertools.combinations(range(k), size)
        if pairwise_separated(k, ms)
    ]


class TestEnumerateGood:
    def test_k1(self):
        assert [str(g) for g in enumerate_good(1)] == ["[-1]", "[1]"]

    def test_k2_size(self):
        assert len(enumerate_good(2)) == 5

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_exhaustive_filter(self, k):
        assert enumerate_good(k) == good_involutions_filter(k)

    def test_chain_sizes(self):
        assert [len(enumerate_good(k)) for k in range(1, 7)] == [2, 5, 14, 43, 142, 499]

    def test_members_embed_upward(self):
        for g in enumerate_good(3):
            assert g.embed(4) in set(enumerate_good(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            GoodInvolution(SignedPermutation([2, 1]))  # positive non-fixed value
        with pytest.raises(ValueError):
            GoodInvolution(SignedPermutation([-2, 1]))  # not an involution

    @pytest.mark.parametrize("k", range(1, 6))
    def test_validation_matches_definition(self, k):
        # accepted iff an involution with every value fixed or negative
        for w in all_elements(k):
            good = is_involution(w) and all(v == i or v < 0 for i, v in enumerate(w, start=1))
            try:
                g = GoodInvolution(w)
            except ValueError:
                assert not good, w
            else:
                assert good, w
                assert g.a_neg == stat_a(w.negate())

    def test_negative_k_rejected(self):
        for enumerate_ in (enumerate_good, symmetric_involutions):
            with pytest.raises(ValueError, match="nonnegative"):
                enumerate_(-1)


class TestStatistics:
    def test_a_of_identity(self):
        for k in range(1, 6):
            assert stat_a(identity(k)) == k
            assert stat_a(identity(k).negate()) == 0

    def test_d_zero_equals_a(self):
        for g in enumerate_good(4):
            assert g.d(0) == g.a

    def test_d_range_error(self):
        with pytest.raises(ValueError):
            stat_d(5, identity(4))
        with pytest.raises(ValueError):
            stat_d(-1, identity(4))

    def test_c_brute_force(self):
        for k in range(1, 9):
            for g in enumerate_good(k):
                assert stat_c(g.perm) == tidy_pairs_oracle(g.perm), g

    @pytest.mark.parametrize("rank", range(0, 6))
    def test_c_matches_pair_scan_on_all_elements(self, rank):
        for w in all_elements(rank):
            assert stat_c(w) == tidy_pairs_oracle(w), w

    def test_c_extremes(self):
        for k in range(1, 7):
            assert stat_c(identity(k).negate()) == 0
            assert stat_c(identity(k)) == k * (k - 1) // 2

    def test_parity_of_exponents(self):
        # both closed-form exponents (k +/- a - a_neg)/2 must be integers
        for k in range(1, 7):
            for g in enumerate_good(k):
                assert (k + g.a - g.a_neg) % 2 == 0
                assert (k - g.a - g.a_neg) % 2 == 0


def fixed_point_increments(s):
    """m_j(s) = #{i < j : s(i) < j} for every fixed point j of s, by definition."""
    k = len(s)
    return {
        j: sum(1 for i in range(1, j) if s[i - 1] < j)
        for j in range(1, k + 1)
        if s[j - 1] == j
    }


class TestTidyFactorisation:
    """c(w) = neat(|w|) + sum of m_j(|w|) over the fixed points j of w."""

    def test_c_splits_over_the_involution_of_s_k(self):
        for k in range(1, 9):
            for g in enumerate_good(k):
                w = g.perm
                s = SignedPermutation([abs(v) for v in w])
                fixed_by_w = [j for j in range(1, k + 1) if w[j - 1] == j]
                m = fixed_point_increments(s)
                assert set(fixed_by_w) <= set(m), g
                split = neat_count(s) + sum(m[j] for j in fixed_by_w)
                assert stat_c(w) == split == tidy_pairs_oracle(w), g
                assert g.a == len(fixed_by_w)
                assert g.a_neg == len(m) - len(fixed_by_w)


class TestNeat:
    def test_identity_has_none(self):
        for k in (2, 3, 4):
            assert neat_count(identity(k)) == 0

    def test_transposition_s2(self):
        assert neat_count(SignedPermutation([2, 1])) == 0

    def test_matches_tidy_of_negation(self):
        for k in (3, 4, 5):
            for w in symmetric_involutions(k):
                assert neat_count(w) == stat_c(w.negate())

    def test_brute_scan_s4(self):
        for w in symmetric_involutions(4):
            expected = sum(
                1
                for i in range(1, 5)
                for j in range(i + 1, 5)
                if w.act(j) < i and w.act(i) < j
            )
            assert neat_count(w) == expected

    def test_rejects_non_involutions(self):
        with pytest.raises(ValueError):
            neat_count(SignedPermutation([2, 3, 1]))
        with pytest.raises(ValueError):
            neat_count(SignedPermutation([-1, 2]))

    def test_symmetric_involutions_complete(self):
        invs = symmetric_involutions(4)
        brute = [w for w in symmetric_group_elements(4) if is_involution(w)]
        assert sorted(invs) == sorted(brute)

    @pytest.mark.parametrize("k", range(10))
    def test_symmetric_involutions_in_window_order(self, k):
        invs = symmetric_involutions(k)
        assert all(a < b for a, b in zip(invs, invs[1:]))
        assert all(is_involution(w) and min(w, default=1) > 0 for w in invs)
        assert len(invs) == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620][k]


class TestSuccPred:
    def test_succ_of_rank1_identity(self):
        g = GoodInvolution(identity(1))
        out = succ(g)
        assert len(out) == 2 + g.a == 3
        assert all(s.rank == 2 for s in out)

    def test_sizes(self):
        for k in range(1, 5):
            for g in enumerate_good(k):
                assert len(succ(g)) == 2 + g.a

    @pytest.mark.parametrize("k", range(1, 5))
    def test_partition(self, k):
        union = []
        for g in enumerate_good(k):
            union.extend(s.perm for s in succ(g))
        assert len(union) == len(set(union))
        assert sorted(union) == [s.perm for s in enumerate_good(k + 1)]

    @pytest.mark.parametrize("k", range(1, 5))
    def test_pred_inverts_succ(self, k):
        for g in enumerate_good(k):
            for s in succ(g):
                assert pred(s) == g

    def test_pred_covers_rank_above(self):
        for s in enumerate_good(4):
            p = pred(s)
            assert s.perm in {x.perm for x in succ(p)}

    def test_pred_rank0_error(self):
        with pytest.raises(ValueError):
            pred(GoodInvolution(identity(0)))

    def test_statistics_transport(self):
        # conjugating by x shifts a, a_neg, c in the five stated ways
        from heckeb.signedperm import generator

        for k in range(1, 5):
            x = conjugator(k)
            t_top = generator(0, k + 1)
            for g in enumerate_good(k):
                base = x * g.perm.embed(k + 1) * x.inverse()
                for s in succ(g):
                    w = s.perm
                    if w == base:
                        assert s.a == g.a + 1 and s.a_neg == g.a_neg
                        assert s.c == g.c + g.a
                    elif w == base * t_top:
                        assert s.a == g.a and s.a_neg == g.a_neg + 1
                        assert s.c == g.c + g.a
                    else:
                        assert s.a == g.a - 1 and s.a_neg == g.a_neg
                        i = -w[0] - 1  # the omitted letter, recovered from w(1)
                        assert g.perm[i - 1] == i
                        assert s.c == g.c + g.d(i)

    def test_a_zero_slice_is_negated_symmetric_involutions(self):
        for k in range(1, 7):
            lhs = {g.perm for g in enumerate_good(k) if g.a == 0}
            rhs = {w.negate() for w in symmetric_involutions(k)}
            assert lhs == rhs


class TestSeparated:
    def test_k1(self):
        assert [s.members for s in enumerate_separated(1)] == [(), (0,)]

    def test_k2(self):
        assert [s.members for s in enumerate_separated(2)] == [(), (0,), (1,)]

    def test_count_6_2(self):
        sets = [s for s in enumerate_separated(6) if len(s) == 2]
        assert len(sets) == 9 == count_separated(6, 2)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_counts_match_formula(self, k):
        sets = enumerate_separated(k)
        for i in range(0, max(len(s) for s in sets) + 1):
            assert sum(1 for s in sets if len(s) == i) == count_separated(k, i)

    def test_cardinality_bound(self):
        # |S| <= k/2 for k >= 2 (k = 1 admits the singleton {0})
        for k in range(2, 13):
            assert all(len(s) <= k // 2 for s in enumerate_separated(k))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_brute_force_filter(self, k):
        assert enumerate_separated(k) == separated_filter(k)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_validation_matches_pairwise_definition(self, k):
        for size in range(k + 1):
            for ms in itertools.combinations(range(k), size):
                try:
                    SeparatedSet(k, ms)
                except ValueError:
                    assert not pairwise_separated(k, ms), ms
                else:
                    assert pairwise_separated(k, ms), ms

    def test_validation(self):
        with pytest.raises(ValueError):
            SeparatedSet(5, (0, 1))  # adjacent
        with pytest.raises(ValueError):
            SeparatedSet(5, (0, 4))  # wraps around
        with pytest.raises(ValueError):
            SeparatedSet(5, (5,))  # out of range


class TestShift:
    def test_empty_fixed(self):
        s = SeparatedSet(7, ())
        assert shift_separated(s, 3) == s

    def test_wrap(self):
        for k in range(3, 8):
            assert shift_separated(SeparatedSet(k, (1,)), k - 1).members == (0,)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bijection_preserving_cardinality(self, k):
        sets = enumerate_separated(k)
        for r in range(k + 1):
            images = [shift_separated(s, r) for s in sets]
            assert len(set(images)) == len(sets)
            assert all(len(im) == len(s) for im, s in zip(images, sets))
            assert sorted(im.members for im in images) == sorted(s.members for s in sets)

    def test_shift_by_k_is_identity(self):
        for s in enumerate_separated(8):
            assert shift_separated(s, 8) == s


class TestBinomialSum:
    def test_boundaries(self):
        for k in range(0, 12):
            assert binomial_sum(k, 0) == 1
            assert binomial_sum(k, k) == 1

    def test_explicit_5_2(self):
        # terms: C(5,2)C(5,0), -C(3,1)C(4,1), C(1,0)C(3,2) = 10 - 12 + 3
        assert binomial_sum(5, 2) == 10 - 12 + 3 == 1

    def test_range_error(self):
        with pytest.raises(ValueError):
            binomial_sum(3, 4)
        with pytest.raises(ValueError):
            binomial_sum(3, -1)
