"""Good involutions, their statistics and recursion, and separated sets."""

import itertools
import sys

import pytest

from heckeb import combinat
from heckeb.combinat import (
    Involutions,
    _neat_and_m,
    binomial_sum,
    conjugator,
    count_separated,
    enumerate_good,
    enumerate_separated,
    stat_a,
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
from oracles import (
    fixed_point_m_oracle,
    is_good,
    is_involution,
    neat_count,
    neat_pairs_oracle,
    pairwise_separated,
    stat_c,
)


def good_involutions_filter(k):
    """Oracle: G_k by exhaustive filtering of all 2^k k! elements of B_k."""
    return sorted(w for w in all_elements(k) if is_good(w))


def tidy_pairs_oracle(w):
    """Oracle for stat_c: the scan over all pairs i < j of the definition."""
    count = 0
    for i in range(1, len(w) + 1):
        for j in range(i + 1, len(w) + 1):
            if -w[i - 1] < j and -w[j - 1] < i:
                count += 1
    return count


def crossings_nestings_oracle(s):
    """2 nestings + crossings + fixed points under an arc, over the arcs
    i < s(i) of the involution s (Chen, Deng, Du, Stanley and Yan)."""
    k = len(s)
    arcs = [(i, s[i - 1]) for i in range(1, k + 1) if s[i - 1] > i]
    fixed = [x for x in range(1, k + 1) if s[x - 1] == x]
    nestings = crossings = 0
    for (i, j), (x, y) in itertools.combinations(arcs, 2):  # i < x
        if y < j:
            nestings += 1
        elif x < j:
            crossings += 1
    covered = sum(1 for i, j in arcs for x in fixed if i < x < j)
    return 2 * nestings + crossings + covered


def separated_filter(k):
    """Oracle: the separated k-sets among all subsets, sorted by (size, members)."""
    return [
        ms
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
        assert sorted(enumerate_good(k)) == good_involutions_filter(k)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_grouped_by_involution_in_product_order(self, k):
        # one run of 2^|Fix s| windows per involution s, in symmetric_involutions
        # order; each run starts at -s and makes fixed points positive in
        # itertools.product order over (-j, j)
        windows = list(enumerate_good(k))
        start = 0
        for s in symmetric_involutions(k):
            fixed = [j for j, v in enumerate(s, start=1) if v == j]
            run = windows[start : start + 2 ** len(fixed)]
            expected = []
            for signs in itertools.product((-1, 1), repeat=len(fixed)):
                w = [-v for v in s]
                for j, sign in zip(fixed, signs):
                    w[j - 1] = sign * j
                expected.append(SignedPermutation(w))
            assert run == expected, s
            assert run[0] == s.negate()
            start += len(run)
        assert start == len(windows)

    def test_chain_sizes(self):
        assert [len(enumerate_good(k)) for k in range(1, 7)] == [2, 5, 14, 43, 142, 499]

    @pytest.mark.parametrize(
        "k,size", zip(range(1, 9), [2, 5, 14, 43, 142, 499, 1850, 7193])
    )
    def test_len_counts_the_windows_yielded(self, k, size):
        good = enumerate_good(k)
        assert len(good) == len(list(good)) == size

    @pytest.mark.parametrize("k", [1, 5, 8])
    def test_iterates_again_alike(self, k):
        good = enumerate_good(k)
        assert list(good) == list(good)

    def test_builds_each_group_when_iteration_reaches_it(self, monkeypatch):
        # one itertools.product per group; the first group, that of the
        # identity, holds all 2^6 sign choices
        calls = []
        original = combinat.product

        def counted(*pools):
            calls.append(pools)
            return original(*pools)

        monkeypatch.setattr(combinat, "product", counted)
        windows = iter(enumerate_good(6))
        assert calls == []
        assert next(windows) == identity(6).negate()
        assert len(calls) == 1
        for _ in range(2**6 - 1):
            next(windows)
        assert len(calls) == 1
        next(windows)
        assert len(calls) == 2

    def test_members_embed_upward(self):
        for w in enumerate_good(3):
            assert w.embed(4) in set(enumerate_good(4))

    def test_validation(self):
        # the oracle is_good, which the exhaustive filter above uses
        assert is_good(SignedPermutation([-2, -1]))
        assert not is_good(SignedPermutation([2, 1]))  # positive non-fixed value
        assert not is_good(SignedPermutation([-2, 1]))  # not an involution

    @pytest.mark.parametrize("k", range(1, 6))
    def test_validation_matches_definition(self, k):
        # is_good agrees with the one-pass form: each w(i) = i, or w(i) < 0
        # and w(-w(i)) = -i
        for w in all_elements(k):
            paired = all(v == i or (v < 0 and w[-v - 1] == -i) for i, v in enumerate(w, start=1))
            assert is_good(w) == paired, w
            if paired:  # a(-w) counts the values with w(i) = -i
                assert stat_a(w.negate()) == sum(1 for i, v in enumerate(w, start=1) if v == -i)

    @pytest.mark.parametrize("k", [8, 10])
    def test_windows_share_their_entries(self, k):
        # one int object per value -k..k across all of G_k, not a fresh -v
        # per involution
        entries = {id(v) for w in enumerate_good(k) for v in w}
        assert len(entries) <= 2 * k + 1

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
        for w in enumerate_good(4):
            assert stat_d(0, w) == stat_a(w)

    def test_d_range_error(self):
        with pytest.raises(ValueError):
            stat_d(5, identity(4))
        with pytest.raises(ValueError):
            stat_d(-1, identity(4))

    def test_c_brute_force(self):
        for k in range(1, 9):
            for w in enumerate_good(k):
                assert stat_c(w) == tidy_pairs_oracle(w), w

    @pytest.mark.parametrize("rank", range(0, 6))
    def test_c_matches_pair_scan_on_all_elements(self, rank):
        for w in all_elements(rank):
            assert stat_c(w) == tidy_pairs_oracle(w), w

    def test_c_extremes(self):
        for k in range(1, 7):
            assert stat_c(identity(k).negate()) == 0
            assert stat_c(identity(k)) == k * (k - 1) // 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_signatures_match_the_statistics_window_by_window(self, k):
        good = enumerate_good(k)
        expected = [(stat_a(w), stat_a(w.negate()), stat_c(w)) for w in good]
        assert list(good.signatures()) == expected

    def test_parity_of_exponents(self):
        # both closed-form exponents (k +/- a - a_neg)/2 must be integers
        for k in range(1, 7):
            for w in enumerate_good(k):
                a, a_neg = stat_a(w), stat_a(w.negate())
                assert (k + a - a_neg) % 2 == 0
                assert (k - a - a_neg) % 2 == 0


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
            for w in enumerate_good(k):
                s = SignedPermutation([abs(v) for v in w])
                fixed_by_w = [j for j in range(1, k + 1) if w[j - 1] == j]
                m = fixed_point_increments(s)
                assert set(fixed_by_w) <= set(m), w
                split = neat_count(s) + sum(m[j] for j in fixed_by_w)
                assert stat_c(w) == split == tidy_pairs_oracle(w), w
                assert stat_a(w) == len(fixed_by_w)
                assert stat_a(w.negate()) == len(m) - len(fixed_by_w)


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
            assert neat_count(w) == neat_pairs_oracle(w)

    @pytest.mark.parametrize("k", range(11))
    def test_one_pass_matches_pair_scan_and_crossings(self, k):
        for s in symmetric_involutions(k):
            neat, m = _neat_and_m(s)
            assert (len(m), neat) == (stat_a(s), neat_pairs_oracle(s)), s
            assert neat == crossings_nestings_oracle(s), s
            # the open-arc count of each m_j against its per-position sum
            assert m == fixed_point_m_oracle(s), s
            # the verifier passes the values of -s negated back, as an iterator
            assert _neat_and_m(map(abs, s.negate())) == (neat, m)

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
        invs = list(symmetric_involutions(k))
        assert all(a < b for a, b in zip(invs, invs[1:]))
        assert all(is_involution(w) and min(w, default=1) > 0 for w in invs)
        assert len(invs) == [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620][k]

    def test_symmetric_involutions_result_has_no_other_referrer(self):
        # no reference cycle holds the list: it is freed when its caller drops it
        invs = symmetric_involutions(6)
        assert sys.getrefcount(invs) == 2

    @pytest.mark.parametrize("k", [0, 1, 5, 8])
    def test_involutions_view_iterates_the_same_twice(self, k):
        invs = symmetric_involutions(k)
        assert isinstance(invs, Involutions)
        assert list(invs) == list(invs)

    def test_involutions_view_len_is_the_involution_numbers(self):
        # I(k) = I(k-1) + (k-1) I(k-2): k is fixed or paired with one of k-1
        numbers = [1, 1]
        for k in range(2, 13):
            numbers.append(numbers[k - 1] + (k - 1) * numbers[k - 2])
        assert [len(symmetric_involutions(k)) for k in range(13)] == numbers


class TestSuccPred:
    def test_succ_of_rank1_identity(self):
        w = identity(1)
        out = succ(w)
        assert len(out) == 2 + stat_a(w) == 3
        assert all(len(s) == 2 for s in out)

    def test_sizes(self):
        for k in range(1, 5):
            for w in enumerate_good(k):
                assert len(succ(w)) == 2 + stat_a(w)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_partition(self, k):
        union = []
        for w in enumerate_good(k):
            union.extend(succ(w))
        assert len(union) == len(set(union))
        assert sorted(union) == sorted(enumerate_good(k + 1))

    @pytest.mark.parametrize("k", range(1, 5))
    def test_pred_inverts_succ(self, k):
        for w in enumerate_good(k):
            for s in succ(w):
                assert pred(s) == w

    def test_pred_covers_rank_above(self):
        for s in enumerate_good(4):
            assert s in succ(pred(s))

    def test_pred_rank0_error(self):
        with pytest.raises(ValueError):
            pred(identity(0))

    def test_statistics_transport(self):
        # conjugating by x shifts a, a_neg, c in the five stated ways
        from heckeb.signedperm import generator

        for k in range(1, 5):
            x = conjugator(k)
            t_top = generator(0, k + 1)
            for g in enumerate_good(k):
                base = x * g.embed(k + 1) * x.inverse()
                a, a_neg, c = stat_a(g), stat_a(g.negate()), stat_c(g)
                for w in succ(g):
                    s_a, s_a_neg, s_c = stat_a(w), stat_a(w.negate()), stat_c(w)
                    if w == base:
                        assert s_a == a + 1 and s_a_neg == a_neg
                        assert s_c == c + a
                    elif w == base * t_top:
                        assert s_a == a and s_a_neg == a_neg + 1
                        assert s_c == c + a
                    else:
                        assert s_a == a - 1 and s_a_neg == a_neg
                        i = -w[0] - 1  # the omitted letter, recovered from w(1)
                        assert g[i - 1] == i
                        assert s_c == c + stat_d(i, g)

    def test_a_zero_slice_is_negated_symmetric_involutions(self):
        for k in range(1, 7):
            lhs = {w for w in enumerate_good(k) if stat_a(w) == 0}
            rhs = {w.negate() for w in symmetric_involutions(k)}
            assert lhs == rhs


class TestSeparated:
    def test_k1(self):
        assert enumerate_separated(1) == [(), (0,)]

    def test_k2(self):
        assert enumerate_separated(2) == [(), (0,), (1,)]

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
        # the filter draws increasing tuples from range(k), so this also
        # holds every member in range
        assert enumerate_separated(k) == separated_filter(k)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_validation_matches_pairwise_definition(self, k):
        # pairwise_separated agrees with the gap-and-span form the enumerator
        # builds: consecutive members differ by at least 2, the span is at most k - 2
        for size in range(k + 1):
            for ms in itertools.combinations(range(k), size):
                gaps = all(b - a >= 2 and b - ms[0] <= k - 2 for a, b in zip(ms, ms[1:]))
                assert pairwise_separated(k, ms) == gaps, ms

    def test_validation(self):
        # the oracle pairwise_separated, which the brute-force filter above uses
        assert pairwise_separated(5, (0, 2))
        assert not pairwise_separated(5, (0, 1))  # adjacent
        assert not pairwise_separated(5, (0, 4))  # wraps around


class TestShift:
    def test_empty_fixed(self):
        assert shift_separated((), 7, 3) == ()

    def test_wrap(self):
        for k in range(3, 8):
            assert shift_separated((1,), k, k - 1) == (0,)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bijection_preserving_cardinality(self, k):
        sets = enumerate_separated(k)
        for r in range(k + 1):
            images = [shift_separated(s, k, r) for s in sets]
            assert len(set(images)) == len(sets)
            assert all(len(im) == len(s) for im, s in zip(images, sets))
            assert sorted(images) == sorted(sets)

    def test_shift_by_k_is_identity(self):
        for s in enumerate_separated(8):
            assert shift_separated(s, 8, 8) == s


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
