"""Signed-permutation arithmetic, checked against brute-force oracles."""

from collections import deque

import pytest

from heckeb.hecke import distinguished_factor
from heckeb.signedperm import (
    SignedPermutation,
    all_elements,
    generator,
    identity,
    make_cycle,
    make_w_nk,
    parabolic_elements,
    symmetric_group_elements,
)

from oracles import right_descent


def bfs_distances(rank):
    """Graph distance from the identity in the Cayley graph on {t, s_1, ...}."""
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


class TestCompose:
    def test_identity_law(self):
        w = SignedPermutation([2, -3, 1])
        assert identity(3) * w == w
        assert w * identity(3) == w

    def test_t_squares_to_identity(self):
        t = generator(0, 1)
        assert (t * t).is_identity()

    def test_s1_times_t(self):
        s1, t = generator(1, 2), generator(0, 2)
        assert s1 * t == SignedPermutation([-2, 1])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) * identity(3)

    def test_associative_exhaustive_b2(self):
        elems = list(all_elements(2))
        for u in elems:
            for v in elems:
                for w in elems:
                    assert (u * v) * w == u * (v * w)

    def test_inverse(self):
        for w in all_elements(3):
            assert (w * w.inverse()).is_identity()


class TestLength:
    def test_identity(self):
        assert identity(4).length() == 0

    def test_w12(self):
        w = SignedPermutation([1, -3, -2])
        assert w.length() == 7

    def test_window_minus2_minus1(self):
        # frozen from the Cayley-graph BFS oracle over B_2
        assert SignedPermutation([-2, -1]).length() == 3

    def test_longest_element(self):
        for m in range(1, 6):
            assert identity(m).negate().length() == m * m

    def test_bfs_oracle_b3(self):
        for w, d in bfs_distances(3).items():
            assert w.length() == d

    def test_generator_steps(self):
        for w in all_elements(3):
            for g in range(3):
                assert abs(w.apply_right(g).length() - w.length()) == 1

    def test_inverse_preserves_length(self):
        for w in all_elements(3):
            assert w.length() == w.inverse().length()

    def test_embedding_preserves_length(self):
        for w in all_elements(2):
            assert w.embed(4).length() == w.length()


class TestDescents:
    def test_right_descent_matches_length(self):
        for w in all_elements(3):
            for g in range(3):
                assert right_descent(w, g) == (w.apply_right(g).length() < w.length())


def stripping_word(w):
    """Oracle for reduced_word: strip the smallest right descent, rescanning from 0."""
    letters = []
    while True:
        for g in range(len(w)):
            if right_descent(w, g):
                letters.append(g)
                w = w.apply_right(g)
                break
        else:
            letters.reverse()
            return tuple(letters)


class TestReducedWord:
    @pytest.mark.parametrize("rank", range(0, 6))
    def test_matches_full_rescan_exhaustively(self, rank):
        for w in all_elements(rank):
            assert w.reduced_word() == stripping_word(w), w

    def test_identity_empty(self):
        assert identity(3).reduced_word() == ()

    def test_single_generator(self):
        assert generator(0, 2).reduced_word() == (0,)

    def test_evaluates_back(self):
        for w in all_elements(3):
            word = w.reduced_word()
            v = identity(3)
            for g in word:
                v = v.apply_right(g)
            assert v == w
            assert len(word) == w.length()

    def test_deterministic(self):
        w = SignedPermutation([-2, -1])
        assert w.reduced_word() == w.reduced_word()
        assert len(w.reduced_word()) == 3


class TestNegate:
    def test_definition(self):
        assert identity(2).negate() == SignedPermutation([-1, -2])

    def test_involution(self):
        for w in all_elements(3):
            assert w.negate().negate() == w

    def test_longest_times_w(self):
        # -w = w0 * w = w * w0
        w0 = identity(3).negate()
        for w in all_elements(3):
            assert w.negate() == w0 * w == w * w0


class TestWnk:
    def test_small_windows(self):
        assert make_w_nk(0, 2) == SignedPermutation([-2, -1])
        assert make_w_nk(1, 2) == SignedPermutation([1, -3, -2])

    @pytest.mark.parametrize("n,k", [(0, 2), (1, 2), (0, 3), (2, 2), (1, 3), (3, 2)])
    def test_involution_and_length(self, n, k):
        w = make_w_nk(n, k)
        assert (w * w).is_identity()
        assert w.length() == 2 * n * k + k * (k + 1) // 2

    def test_cycle_element_is_the_word(self):
        for n, k in [(0, 2), (1, 2), (0, 3), (2, 2)]:
            w = identity(n + k + 1)
            for g in range(n + 1, n + k + 1):
                w = w.apply_right(g)
            assert make_cycle(n, k) == w
            assert make_cycle(n, k).length() == k

    def test_cycle_conjugates_wnk(self):
        for n, k in [(0, 2), (1, 2), (0, 3)]:
            c = make_cycle(n, k)
            w = make_w_nk(n, k).embed(n + k + 1)
            assert c * w * c.inverse() == make_w_nk(n + 1, k).embed(n + k + 1)


def in_coset_by_closed_form(w, n, k):
    """Membership in (B_n x S_k) w_{n,k}, decided by the closed form."""
    return distinguished_factor(w, n, k)[1] == make_w_nk(n, k)


class TestCosetMembership:
    def test_wnk_is_member(self):
        assert in_coset_by_closed_form(make_w_nk(1, 2), 1, 2)

    def test_identity_is_not(self):
        assert not in_coset_by_closed_form(identity(3), 1, 2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            in_coset_by_closed_form(identity(4), 1, 2)

    def test_exhaustive_b3(self):
        # the coset (B_1 x S_2) w_{1,2} inside B_3 has exactly 2 * 2 = 4 elements
        w12 = make_w_nk(1, 2)
        explicit = {u * w12 for u in parabolic_elements(1, 2)}
        assert len(explicit) == 4
        members = {w for w in all_elements(3) if in_coset_by_closed_form(w, 1, 2)}
        assert members == explicit


class TestParabolic:
    def test_distinguished_length_additivity(self):
        # minimal coset representatives x satisfy l(w'x) = l(w') + l(x)
        reps = {distinguished_factor(w, 1, 2)[1] for w in all_elements(3)}
        for wp in parabolic_elements(1, 2):
            for x in reps:
                assert (wp * x).length() == wp.length() + x.length()


class TestFormats:
    def test_str_round_trip(self):
        w = SignedPermutation([1, -3, -2])
        assert str(w) == "[1,-3,-2]"

    def test_empty_window(self):
        assert str(identity(0)) == "[]"

    def test_invalid_windows(self):
        for bad in ([1, 1], [0, 2], [3, 1], [1, -1]):
            with pytest.raises(ValueError):
                SignedPermutation(bad)

    def test_restrict_requires_fixed_suffix(self):
        w = SignedPermutation([2, 1, 3])
        assert w.restrict(2) == SignedPermutation([2, 1])
        with pytest.raises(ValueError):
            SignedPermutation([3, 2, 1]).restrict(2)


def test_symmetric_group_elements():
    elems = list(symmetric_group_elements(3))
    assert len(elems) == 6
    assert all(v > 0 for w in elems for v in w)
