"""T-basis multiplication, coset decomposition, and the trivial quotient."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeb import hecke
from heckeb.hecke import (
    HeckeElement,
    distinguished_factor,
    mult,
    parabolic_decompose,
    t_of,
    trivial_quotient,
    unit,
    z_coefficient,
)
from heckeb.poly import (
    BivarPoly,
    ONE,
    P,
    Q,
    _iadd_raw,
    _isub_raw,
    _mul_raw,
    cyclotomic,
    reduce_mod_cyclotomic,
)
from heckeb.signedperm import (
    SignedPermutation,
    all_elements,
    generator,
    identity,
    make_w_nk,
    parabolic_elements,
)
from heckeb.verify import closed_form_w0k_square
from heckeb.words import evaluate_word, parse_word

from oracles import (
    descents,
    in_parabolic,
    in_wnk_coset,
    is_min_representative,
    right_descent,
)

F2 = ONE - (ONE + Q) * P + P * P


def parabolic_generators(n, k):
    """Generator indices of the standard parabolic B_n x S_k inside B_{n+k}."""
    return list(range(n)) + list(range(n + 1, n + k))


def stripping_factor(w, n, k):
    """Oracle for distinguished_factor, by the group law alone.

    Strips parabolic left descents of x one letter at a time, moving each
    letter onto w', until no parabolic generator shortens x.
    """
    rank = n + k
    x, wprime = w, identity(rank)
    while True:
        length = x.length()
        for g in parabolic_generators(n, k):
            s = generator(g, rank)
            if (s * x).length() < length:
                x, wprime = s * x, wprime * s
                break
        else:
            return wprime, x


def reassemble(dec, rank):
    """sum_x component_x * T_x, undoing parabolic_decompose."""
    total = HeckeElement(rank, {})
    for x, comp in dec.items():
        total = total + mult(comp, t_of(x))
    return total


def _oracle_fold_right(terms, g):
    """Right-multiply a raw {window: {(pe, qe): int}} mapping by T_g."""
    dp, dq = (1, 0) if g == 0 else (0, 1)
    out = {}
    for w, c in terms.items():
        ws = w.apply_right(g)
        if not right_descent(w, g):
            _iadd_raw(out.setdefault(ws, {}), c)
            continue
        shifted = {(pe + dp, qe + dq): v for (pe, qe), v in c.items()}
        _iadd_raw(out.setdefault(ws, {}), shifted)
        tgt = out.setdefault(w, {})
        _iadd_raw(tgt, c)
        _isub_raw(tgt, shifted)
    return {w: c for w, c in out.items() if c}


def oracle_mult(h1, h2):
    """Oracle for mult: the tuple-keyed fold over windows and (pe, qe) monomials.

    Every basis element of h2 is expanded along a reduced word and folded
    into h1 one generator at a time, on SignedPermutation windows and
    BivarPoly-style term dicts.
    """
    assert h1.rank == h2.rank
    acc = {}
    for w2, c2 in h2._terms.items():
        cur = {w1: _mul_raw(c1._terms, c2._terms) for w1, c1 in h1._terms.items()}
        for g in w2.reduced_word():
            cur = _oracle_fold_right(cur, g)
        for w, c in cur.items():
            _iadd_raw(acc.setdefault(w, {}), c)
    return HeckeElement(h1.rank, {w: BivarPoly(c) for w, c in acc.items() if c})


def random_element(rank, rng, n_terms=3):
    pool = list(all_elements(rank))
    terms = {}
    for w in rng.sample(pool, n_terms):
        terms[w] = BivarPoly(
            {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(-4, 5) or 1
                for _ in range(2)
            }
        )
    return HeckeElement(rank, terms)


class TestBasics:
    def test_unit_is_neutral(self):
        h = t_of(SignedPermutation([-2, 1, 3]))
        assert mult(h, unit(3)) == h
        assert mult(unit(3), h) == h

    def test_t_squared(self):
        t = generator(0, 1)
        assert mult(t_of(t), t_of(t)) == HeckeElement(
            1, {identity(1): P, t: ONE - P}
        )

    def test_s1_squared(self):
        s1 = generator(1, 2)
        assert mult(t_of(s1), t_of(s1)) == HeckeElement(
            2, {identity(2): Q, s1: ONE - Q}
        )

    def test_unit_times_generator(self):
        s1 = t_of(generator(1, 2))
        assert mult(unit(2), s1) == s1
        assert mult(s1, unit(2)) == s1

    def test_left_mirror(self):
        t = generator(0, 2)
        assert mult(t_of(t), t_of(t)) == HeckeElement(
            2, {identity(2): P, t: ONE - P}
        )

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_quadratic_relations_all_generators(self, rank):
        for g in range(rank):
            param = P if g == 0 else Q
            s = generator(g, rank)
            assert mult(t_of(s), t_of(s)) == HeckeElement(
                rank, {identity(rank): param, s: ONE - param}
            )

    def test_braid_relation_rank2(self):
        t, s1 = t_of(generator(0, 2)), t_of(generator(1, 2))
        lhs = mult(mult(mult(t, s1), t), s1)
        rhs = mult(mult(mult(s1, t), s1), t)
        assert lhs == rhs

    @pytest.mark.parametrize("rank,i", [(3, 1), (4, 1), (4, 2)])
    def test_braid_relation_adjacent(self, rank, i):
        a, b = t_of(generator(i, rank)), t_of(generator(i + 1, rank))
        assert mult(mult(a, b), a) == mult(mult(b, a), b)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            mult(unit(2), unit(3))
        with pytest.raises(ValueError):
            mult(unit(2), t_of(generator(2, 2)))


class TestWellDefined:
    def test_two_reduced_words_same_product(self):
        # the longest element of B_2 has the two reduced words tsts and stst
        w0 = identity(2).negate()
        first, second = unit(2), unit(2)
        for g in (0, 1, 0, 1):
            first = mult(first, t_of(generator(g, 2)))
        for g in (1, 0, 1, 0):
            second = mult(second, t_of(generator(g, 2)))
        assert first == second == t_of(w0)

    def test_left_fold_of_reversed_word_squares(self):
        w = make_w_nk(0, 2)
        word = w.reduced_word()
        h = t_of(w)
        for g in reversed(word):
            h = mult(t_of(generator(g, 2)), h)
        assert h == mult(t_of(w), t_of(w))

    def test_fold_agreement_on_probe_b3(self):
        # right-multiplication by T_w is independent of the reduced word used
        probe = HeckeElement(
            3,
            {
                identity(3).negate(): ONE,
                SignedPermutation([-2, -1, 3]): P,
                identity(3): ONE + Q,
            },
        )
        for w in all_elements(3):
            results = []
            for pick_max in (False, True):
                h = probe
                v = w
                letters = []
                while not v.is_identity():
                    found = descents(v)
                    letters.append(found[-1] if pick_max else found[0])
                    v = v.apply_right(letters[-1])
                # letters strip w from the right, so the word is reversed(letters)
                for g in reversed(letters):
                    h = mult(h, t_of(generator(g, 3)))
                results.append(h)
            assert results[0] == results[1], w


class TestAssociativity:
    def test_randomized_triples_b3(self):
        rng = random.Random(2024)
        for _ in range(8):
            h1, h2, h3 = (random_element(3, rng) for _ in range(3))
            assert mult(mult(h1, h2), h3) == mult(h1, mult(h2, h3))

    def test_scalars_commute_through(self):
        rng = random.Random(5)
        h1, h2 = random_element(2, rng), random_element(2, rng)
        c = ONE + P * Q
        assert mult(h1.scale(c), h2) == mult(h1, h2).scale(c)


class TestGroupDegeneration:
    def test_exhaustive_b2(self):
        for u in all_elements(2):
            for v in all_elements(2):
                degenerated = mult(t_of(u), t_of(v)).specialize(1, 1)
                assert degenerated == {u * v: 1}

    def test_randomized_b5(self):
        rng = random.Random(99)
        pool = list(all_elements(5))
        for _ in range(20):
            u, v = rng.choice(pool), rng.choice(pool)
            degenerated = mult(t_of(u), t_of(v)).specialize(1, 1)
            assert degenerated == {u * v: 1}


class TestDistinguishedFactor:
    def test_parabolic_elements_factor_trivially(self):
        for w in parabolic_elements(1, 2):
            assert distinguished_factor(w, 1, 2) == (w, identity(3))

    def test_wnk_is_the_representative(self):
        w12 = make_w_nk(1, 2)
        for u in parabolic_elements(1, 2):
            wp, x = distinguished_factor(u * w12, 1, 2)
            assert (wp, x) == (u, w12)

    def test_exhaustive_b3_unique_and_additive(self):
        seen = {}
        for w in all_elements(3):
            wp, x = distinguished_factor(w, 1, 2)
            assert wp * x == w
            assert wp.length() + x.length() == w.length()
            assert is_min_representative(x, 1, 2)
            seen.setdefault(x, set()).add(w)
        # 48 elements split into |X| cosets of size |B_1 x S_2| = 4
        assert len(seen) == 12
        assert all(len(c) == 4 for c in seen.values())

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_matches_stripping_oracle_exhaustively(self, rank):
        for n in range(rank + 1):
            k = rank - n
            for w in all_elements(rank):
                wp, x = distinguished_factor(w, n, k)
                assert (wp, x) == stripping_factor(w, n, k), (w, n, k)
                assert w.length() == wp.length() + x.length()
                assert is_min_representative(x, n, k), (x, n, k)
                assert is_min_representative(w, n, k) == (x == w), (w, n, k)

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_decompose_files_every_element_under_its_factor(self, rank):
        elements = list(all_elements(rank))
        h = HeckeElement(rank, {w: BivarPoly(i + 1) for i, w in enumerate(elements)})
        for n in range(rank + 1):
            k = rank - n
            dec = parabolic_decompose(h, n, k)
            assert all(is_min_representative(x, n, k) for x in dec), (n, k)
            assert sum(len(comp._terms) for comp in dec.values()) == len(elements)
            for i, w in enumerate(elements):
                wp, x = distinguished_factor(w, n, k)
                assert dec[x].coefficient(wp) == BivarPoly(i + 1), (w, n, k)

    def test_parabolic_generator_indices(self):
        assert parabolic_generators(2, 2) == [0, 1, 3]
        assert parabolic_generators(0, 3) == [1, 2]

    def test_wnk_maximal_among_representatives(self):
        reps = {distinguished_factor(w, 1, 2)[1] for w in all_elements(3)}
        lengths = sorted(x.length() for x in reps)
        assert max(lengths) == make_w_nk(1, 2).length()
        assert lengths.count(lengths[-1]) == 1


class TestParabolicDecompose:
    def test_single_basis_element(self):
        x = make_w_nk(1, 2)
        dec = parabolic_decompose(t_of(x), 1, 2)
        assert set(dec) == {x}
        assert dec[x] == unit(3)

    def test_z_component_at_02(self):
        sq = mult(t_of(make_w_nk(0, 2)), t_of(make_w_nk(0, 2)))
        dec = parabolic_decompose(sq, 0, 2)
        z = dec[make_w_nk(0, 2)]
        assert trivial_quotient(z, 0, 2).coefficient(identity(0)) == F2

    def test_reassembly_round_trip(self):
        rng = random.Random(31)
        for _ in range(4):
            h = random_element(4, rng, n_terms=5)
            dec = parabolic_decompose(h, 2, 2)
            assert reassemble(dec, 4) == h

    @staticmethod
    def assert_components_share_keys(dec):
        first = {}  # w' -> the first key object met for it
        for comp in dec.values():
            for u in comp.support():
                assert first.setdefault(u, u) is u, u

    def test_components_of_the_square_share_keys(self):
        w = make_w_nk(2, 5)
        dec = parabolic_decompose(mult(t_of(w), t_of(w)), 2, 5)
        self.assert_components_share_keys(dec)
        keys = [u for comp in dec.values() for u in comp.support()]
        # 68,726 terms over the 960 elements of B_2 x S_5
        assert (len(keys), len({id(u) for u in keys})) == (68726, 960)

    @pytest.mark.parametrize("rank", range(1, 5))
    def test_components_share_keys_on_every_split(self, rank):
        elements = list(all_elements(rank))
        h = HeckeElement(rank, {w: BivarPoly(i + 1) for i, w in enumerate(elements)})
        for n in range(rank + 1):
            self.assert_components_share_keys(parabolic_decompose(h, n, rank - n))


class TestTrivialQuotient:
    def test_scalar_at_rank_zero(self):
        h = HeckeElement(
            2, {identity(2): P, generator(1, 2): ONE - P}
        )
        out = trivial_quotient(h, 0, 2)
        assert out.rank == 0
        assert out.coefficient(identity(0)) == ONE  # p + (1 - p)

    def test_product_factorization(self):
        u = SignedPermutation([-2, 1])
        v = generator(1, 2)  # transposition in the S_2 factor
        w = SignedPermutation(tuple(u) + tuple(x + 2 for x in v))
        h = t_of(w).scale(P * Q)
        assert trivial_quotient(h, 2, 2) == t_of(u).scale(P * Q)

    def test_rejects_support_outside_parabolic(self):
        with pytest.raises(ValueError):
            trivial_quotient(t_of(make_w_nk(1, 2)), 1, 2)


class TestCosetOracles:
    """The closed form against the loop tests it replaced, on every element
    of B_1..B_5 and every split n + k of the rank."""

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_wnk_coset_membership(self, rank):
        for n in range(rank):
            k = rank - n
            w_nk = make_w_nk(n, k)
            for w in all_elements(rank):
                closed = distinguished_factor(w, n, k)[1] == w_nk
                assert closed == in_wnk_coset(w, n, k), (w, n, k)

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_parabolic_membership(self, rank):
        for n in range(rank + 1):
            k = rank - n
            for w in all_elements(rank):
                try:
                    quotient = trivial_quotient(t_of(w), n, k)
                except ValueError:
                    assert not in_parabolic(w, n, k), (w, n, k)
                else:
                    assert in_parabolic(w, n, k), (w, n, k)
                    assert quotient == t_of(SignedPermutation(w[:n]))


class TestZCoefficient:
    def test_k2_base(self):
        z = z_coefficient(0, 2)
        scalar = trivial_quotient(z, 0, 2).coefficient(identity(0))
        assert reduce_mod_cyclotomic(scalar, cyclotomic(2)) == ONE + P**2

    def test_k3_base(self):
        z = z_coefficient(0, 3)
        scalar = trivial_quotient(z, 0, 3).coefficient(identity(0))
        assert reduce_mod_cyclotomic(scalar, cyclotomic(3)) == ONE - P**3

    def test_n1_k2(self):
        z = z_coefficient(1, 2)
        out = trivial_quotient(z, 1, 2).map_coefficients(
            lambda c: reduce_mod_cyclotomic(c, cyclotomic(2))
        )
        assert out == HeckeElement(1, {identity(1): ONE + P**2})

    def test_double_coset_support_vanishes(self):
        # products T_w T_w' with w outside the coset have no w_{n,k} component
        rng = random.Random(17)
        for n, k in ((1, 2), (2, 2)):
            w_nk = make_w_nk(n, k)
            pool = [
                w for w in all_elements(n + k) if not in_wnk_coset(w, n, k)
            ]
            parabolic = list(parabolic_elements(n, k))
            for _ in range(6):
                w, wp = rng.choice(pool), rng.choice(parabolic)
                prod = mult(t_of(w), t_of(wp))
                dec = parabolic_decompose(prod, n, k)
                assert w_nk not in dec


class TestFormats:
    def test_json_round_trip(self):
        rng = random.Random(12)
        h = random_element(3, rng, n_terms=4)
        assert HeckeElement.from_json(h.to_json()) == h

    def test_json_shape_and_order(self):
        sq = mult(t_of(make_w_nk(0, 2)), t_of(make_w_nk(0, 2)))
        data = sq.to_json()
        assert data["rank"] == 2
        lengths = [SignedPermutation(t["w"]).length() for t in data["terms"]]
        assert lengths == sorted(lengths)

    def test_str_of_zero(self):
        assert str(HeckeElement(2, {})) == "0"

    def test_str_formats_each_coefficient_object_once(self, monkeypatch):
        h = evaluate_word(parse_word("w_nk(0,3)^2"), 3)
        terms = h.sorted_terms()
        expected = " + ".join(f"({c})*T{w}" for w, c in terms)
        distinct = {id(c) for _, c in terms}
        assert len(distinct) < len(terms)
        calls = []
        text = BivarPoly.__str__
        monkeypatch.setattr(BivarPoly, "__str__", lambda c: calls.append(id(c)) or text(c))
        assert str(h) == expected
        assert sorted(calls) == sorted(distinct)

    def test_module_ops(self):
        a = t_of(generator(0, 2))
        b = t_of(generator(1, 2))
        assert a + b - a == b
        assert (a + a) == a.scale(2)
        assert a.scale(0) == HeckeElement(2, {})


_POOLS = {rank: list(all_elements(rank)) for rank in range(5)}


@st.composite
def hecke_elements(draw, rank):
    coeff = st.one_of(
        st.just({(0, 0): 1}),
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 6)), st.integers(-30, 30), max_size=5
        ),
    )
    terms = draw(st.dictionaries(st.sampled_from(_POOLS[rank]), coeff, max_size=4))
    return HeckeElement(rank, {w: BivarPoly(c) for w, c in terms.items()})


@st.composite
def hecke_pairs(draw):
    rank = draw(st.integers(0, 4))
    return draw(hecke_elements(rank)), draw(hecke_elements(rank))


class TestKernel:
    """The int-keyed kernel in mult against the tuple-keyed oracle."""

    @pytest.mark.parametrize("rank", range(1, 4))
    def test_every_basis_pair_matches_oracle(self, rank):
        pool = list(all_elements(rank))
        for x in pool:
            for y in pool:
                assert mult(t_of(x), t_of(y)) == oracle_mult(t_of(x), t_of(y)), (x, y)

    @settings(max_examples=60, deadline=None)
    @given(hecke_pairs())
    def test_multi_term_elements_match_oracle(self, pair):
        h1, h2 = pair
        assert mult(h1, h2) == oracle_mult(h1, h2)

    def test_high_degrees_do_not_overflow_the_stride(self):
        rng = random.Random(7)
        wide = BivarPoly({(50, 0): 3, (0, 200): -2, (50, 200): 5, (1, 1): 1})
        for rank in (2, 3):
            for _ in range(4):
                h1 = random_element(rank, rng).scale(wide)
                h2 = random_element(rank, rng).scale(wide)
                product = mult(h1, h2)
                assert product == oracle_mult(h1, h2)
                assert any(
                    pe >= 100 and qe >= 400
                    for c in product._terms.values()
                    for pe, qe in c._terms
                )

    def test_rank_zero(self):
        h = HeckeElement(0, {identity(0): ONE + P * Q})
        assert mult(h, h) == HeckeElement(0, {identity(0): (ONE + P * Q) ** 2})
        assert mult(h, HeckeElement(0, {})) == HeckeElement(0, {})

    def test_rank_one(self):
        t = generator(0, 1)
        h = HeckeElement(1, {identity(1): Q, t: ONE - P})
        assert mult(h, h) == oracle_mult(h, h)
        assert mult(t_of(t), h) == HeckeElement(1, {identity(1): P - P * P, t: Q + (ONE - P) ** 2})

    def test_rank_sixteen(self):
        rng = random.Random(16)
        rank = 16
        x = identity(rank).negate()
        y = SignedPermutation([-16] + list(range(2, 16)) + [1])
        short = identity(rank)
        for g in (15, 0, 14, 15, 1, 0):
            short = short.apply_right(g)
        for left in (x, y, x * y):
            for right in (short, generator(15, rank), generator(0, rank)):
                h1 = HeckeElement(rank, {left: ONE + P, short: Q})
                assert mult(h1, t_of(right)) == oracle_mult(h1, t_of(right))
        for _ in range(5):
            signs = rng.choices((1, -1), k=rank)
            v = SignedPermutation(
                [s * a for s, a in zip(signs, rng.sample(range(1, rank + 1), rank))]
            )
            assert mult(t_of(v), t_of(short)).specialize(1, 1) == {v * short: 1}

    @pytest.mark.parametrize("rank", [0, 1, 127, 128, 130])
    def test_windows_round_trip_at_field_width_boundaries(self, rank):
        # one-byte fields hold values up to +-127; from rank 128 on the
        # fields are two bytes wide, and the extremes +-rank must survive
        w0 = identity(rank).negate()
        h = HeckeElement(rank, {identity(rank): ONE + P, w0: Q})
        assert hecke._times_ts(h, ()) == h
        if rank:
            t = t_of(generator(0, rank))
            assert mult(h, t) == oracle_mult(h, t)

    def test_rank_one_hundred_thirty(self):
        rank = 130
        s1, t, s129 = generator(1, rank), generator(0, rank), generator(129, rank)
        assert right_descent(s1, 1) and not right_descent(t, 129)
        square = mult(t_of(s1), t_of(s1))
        assert square == oracle_mult(t_of(s1), t_of(s1))
        assert square == HeckeElement(rank, {identity(rank): Q, s1: ONE - Q})
        product = t_of(t) * t_of(s129)
        assert product == oracle_mult(t_of(t), t_of(s129))
        assert product == t_of(t * s129)
        # the window holds -1 and values past 127, which one-byte fields cannot
        assert list(product.support()) == [SignedPermutation([-1] + list(range(2, 129)) + [130, 129])]

    def test_a_window_too_wide_for_every_field_raises(self, monkeypatch):
        monkeypatch.setattr(hecke, "_FIELD_CODES", {1: "b"})
        with pytest.raises(ValueError, match="does not fit"):
            mult(t_of(generator(1, 130)), t_of(generator(1, 130)))

    def test_right_terms_that_cancel_at_a_window(self):
        # T_w (T_s - (1 - q)) = q T_{ws} when s shortens w: the (1 - q) T_w
        # part of T_w T_s cancels against the second right term
        rank = 3
        s = generator(1, rank)
        h2 = HeckeElement(rank, {s: ONE, identity(rank): Q - ONE})
        for w in all_elements(rank):
            product = mult(t_of(w), h2)
            assert product == oracle_mult(t_of(w), h2), w
            if right_descent(w, 1):
                assert product == HeckeElement(rank, {w * s: Q})
        rng = random.Random(11)
        h1 = random_element(rank, rng, n_terms=6)
        assert mult(h1, h2) == oracle_mult(h1, h2)

    def test_factors_are_not_changed(self):
        rng = random.Random(3)
        closed = closed_form_w0k_square(3)
        others = [random_element(3, rng, n_terms=5), t_of(make_w_nk(0, 3)), closed]
        before = [h.to_json() for h in others]
        for h1 in others:
            for h2 in others:
                mult(h1, h2)
        assert [h.to_json() for h in others] == before


def _shared_product():
    """A square whose terms share coefficient objects (one per distinct value)."""
    product = mult(t_of(make_w_nk(0, 4)), t_of(make_w_nk(0, 4)))
    coeffs = list(product._terms.values())
    assert len({id(c) for c in coeffs}) < len(coeffs)
    return product


class TestPool:
    """The hash-consed coefficients inside mult."""

    @pytest.fixture
    def colliding(self, monkeypatch):
        # every fingerprint becomes 0, so every pooled coefficient collides
        monkeypatch.setattr(hecke, "_FP_MODULUS", 1)

    @pytest.mark.parametrize("rank", range(1, 4))
    def test_colliding_fingerprints_every_basis_pair(self, colliding, rank):
        pool = list(all_elements(rank))
        for x in pool:
            for y in pool:
                assert mult(t_of(x), t_of(y)) == oracle_mult(t_of(x), t_of(y)), (x, y)

    @settings(max_examples=60, deadline=None)
    @given(hecke_pairs())
    def test_colliding_fingerprints_multi_term(self, pair):
        h1, h2 = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hecke, "_FP_MODULUS", 1)
            assert mult(h1, h2) == oracle_mult(h1, h2)

    def test_colliding_fingerprints_large_square(self, colliding):
        w = make_w_nk(1, 3)
        assert mult(t_of(w), t_of(w)) == oracle_mult(t_of(w), t_of(w))

    def test_equal_coefficients_share_one_object(self):
        product = _shared_product()
        by_value = {}
        for c in product._terms.values():
            by_value.setdefault(tuple(sorted(c._terms.items())), set()).add(id(c))
        assert all(len(ids) == 1 for ids in by_value.values())

    def test_shared_coefficients_are_never_mutated(self):
        product = _shared_product()
        before = product.to_json()
        other = t_of(make_w_nk(0, 4)).scale(ONE + P)
        product + product
        product + other
        product - product
        product.scale(ONE - Q)
        product.scale(3)
        product.map_coefficients(lambda c: c * c)
        mult(product, other)
        mult(other, product)
        mult(product, product)
        assert product.to_json() == before

    def test_fingerprint_table_follows_the_modulus(self):
        w = make_w_nk(0, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hecke, "_FP_MODULUS", 1)
            mult(t_of(w), t_of(w))
        square = mult(t_of(w), t_of(w))
        mod = hecke._FP_MODULUS
        assert list(hecke._FINGERPRINTS) == [mod]
        table = hecke._FINGERPRINTS[mod]
        assert table
        for (pe, qe), fp in table.items():
            assert fp == pow(hecke._FP_P, pe, mod) * pow(hecke._FP_Q, qe, mod) % mod
        assert square == oracle_mult(t_of(w), t_of(w))


class TestSharedWindows:
    """Decoded windows hold one int object per value -rank..rank, and the
    window codec of a rank is built once."""

    @pytest.mark.parametrize(
        "x,y",
        [
            (make_w_nk(0, 8), make_w_nk(0, 8)),
            (make_w_nk(2, 5), make_w_nk(2, 5)),
            # w0 of B_130 times w0 of B_2, t s1 t s1: every letter is a descent, and
            # most entries lie below -5, past Python's small-int cache
            (identity(130).negate(), SignedPermutation([-1, -2] + list(range(3, 131)))),
        ],
        ids=["w_0,8", "w_2,5", "rank-130"],
    )
    def test_windows_share_their_entries(self, x, y):
        product = mult(t_of(x), t_of(y))
        assert len(product._terms) > 1
        entries = {id(v) for w in product.support() for v in w}
        assert len(entries) <= 2 * product.rank + 1

    def test_codec_is_built_once_per_rank(self):
        hecke._window_codec.cache_clear()
        for w in all_elements(3):
            mult(t_of(w), t_of(w))
        evaluate_word(parse_word("( t s1 )^3 s2"), 3)
        assert hecke._window_codec.cache_info().misses == 1


@st.composite
def fold_chains(draw):
    """(h, letters): an element of rank 1-4 with two to four terms and small
    random coefficients, and up to twelve generator letters of the same
    rank, drawn with repeats, so many of the words are not reduced."""
    rank = draw(st.integers(1, 4))
    coeff = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), min_size=1, max_size=3
    ).filter(any)
    terms = draw(st.dictionaries(st.sampled_from(_POOLS[rank]), coeff, min_size=2, max_size=4))
    letters = draw(st.lists(st.integers(0, rank - 1), max_size=12))
    return HeckeElement(rank, {w: BivarPoly(c) for w, c in terms.items()}), letters


def chained_mult(h, letters):
    for g in letters:
        h = mult(h, t_of(generator(g, h.rank)))
    return h


class TestPooledFold:
    """_times_ts folds h along a word of generator letters, reduced or not,
    in one pool, compacting it to the live coefficients whenever it doubles."""

    @settings(max_examples=50, deadline=None)
    @given(fold_chains())
    @example((HeckeElement(1, {identity(1): ONE + P, generator(0, 1): Q}), [0, 0, 0]))
    @example((unit(2), [0, 1] * 5))  # longer than the longest element of B_2
    @example((t_of(identity(3).negate()), [2, 1, 2, 1, 2, 0, 0]))
    def test_matches_chained_products(self, chain):
        h, letters = chain
        assert hecke._times_ts(h, letters) == chained_mult(h, letters)

    @settings(max_examples=50, deadline=None)
    @given(fold_chains())
    def test_matches_chained_products_when_every_fingerprint_collides(self, chain):
        # every id is 0 + j * 1, so keep leaves holes in the collision chain
        h, letters = chain
        expected = chained_mult(h, letters)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hecke, "_FP_MODULUS", 1)
            assert hecke._times_ts(h, letters) == expected

    def test_keep_holds_the_live_ids_and_their_memo_entries(self, monkeypatch):
        keep = hecke._Pool.keep
        counts = []  # (memo entries kept, memo entries dropped) per compaction

        def names(key, value):
            return {i for x in (key, value) for i in (x if isinstance(x, tuple) else (x,))}

        def checking_keep(pool, ids):
            ids = list(ids)
            before = dict(pool.dicts)
            memos = [dict(pool.sums), dict(pool.split_p), dict(pool.split_q)]
            keep(pool, ids)
            live = set(ids) | {0}
            assert set(pool.dicts) == live
            assert all(pool.dicts[i] is before[i] for i in live)
            for old, new in zip(memos, (pool.sums, pool.split_p, pool.split_q)):
                # an entry stays exactly when every id it names survives
                assert new == {k: v for k, v in old.items() if names(k, v) <= live}
                counts.append((len(new), len(old) - len(new)))

        monkeypatch.setattr(hecke._Pool, "keep", checking_keep)
        for w, factors in ((identity(3).negate(), 3), (make_w_nk(1, 3), 2)):
            h = t_of(w)
            letters = list(w.reduced_word()) * factors
            assert hecke._times_ts(h, letters) == chained_mult(h, letters)
        assert any(kept for kept, _ in counts) and any(dropped for _, dropped in counts)

    def test_one_factor_compacts_once_its_pool_doubles(self, monkeypatch):
        sizes = []  # (pool size before, after) per compaction
        keep = hecke._Pool.keep

        def recording_keep(pool, ids):
            before = len(pool.dicts)
            keep(pool, ids)
            sizes.append((before, len(pool.dicts)))

        monkeypatch.setattr(hecke._Pool, "keep", recording_keep)
        t = generator(0, 1)
        assert mult(t_of(t), t_of(t)) == oracle_mult(t_of(t), t_of(t))
        assert not sizes  # zero, 1, 1 - p and p: the pool of 2 has not passed 4
        w = make_w_nk(1, 3)
        assert mult(t_of(w), t_of(w)) == oracle_mult(t_of(w), t_of(w))
        assert sizes
        # t_of(w) pools zero and 1, so the first compaction waits for more
        # than 4 dicts, and each later one for twice what the last one left
        limits = [4] + [2 * after for _, after in sizes[:-1]]
        assert all(before > limit for (before, _), limit in zip(sizes, limits))

    def test_long_run_pool_stays_within_twice_its_compacted_size(self, monkeypatch):
        # ( t s1 s2 s3 )^32 at rank 4 is one fold along 128 letters; before
        # each letter the pool holds at most twice what the last compaction
        # left (so at most that plus one letter's dicts at any time)
        fold, keep = hecke._fold, hecke._Pool.keep
        base = {}
        entries = []  # (pool size, size after the last compaction) per letter

        def watching_fold(terms, g, *args):
            pool = args[-1]
            entries.append((len(pool.dicts), base.setdefault(pool, len(pool.dicts))))
            return fold(terms, g, *args)

        def watching_keep(pool, ids):
            keep(pool, ids)
            base[pool] = len(pool.dicts)

        monkeypatch.setattr(hecke, "_fold", watching_fold)
        monkeypatch.setattr(hecke._Pool, "keep", watching_keep)
        evaluate_word(parse_word("( t s1 s2 s3 )^32"), 4)
        assert len(entries) == 128
        assert all(size <= 2 * last for size, last in entries)
