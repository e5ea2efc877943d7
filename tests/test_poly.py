"""Ring arithmetic, cyclotomic moduli, and the polynomial text/JSON formats."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckeb.poly import (
    BivarPoly,
    CyclotomicModulus,
    ONE,
    P,
    Q,
    ZERO,
    _mul_raw,
    cyclotomic,
    reduce_mod_cyclotomic,
)

from oracles import q_degree

F1 = ONE - P
F2 = ONE - (ONE + Q) * P + P * P
F3 = P * (ONE - Q * Q) * F1 + (ONE - P) * F2


def polys(max_exp=6, max_coeff=50):
    term = st.tuples(
        st.integers(0, max_exp), st.integers(0, max_exp), st.integers(-max_coeff, max_coeff)
    )
    return st.lists(term, max_size=8).map(
        lambda ts: BivarPoly({(a, b): c for a, b, c in ts if c})
    )


def double_loop_product(a, b):
    """Oracle for _mul_raw: every pair of terms, summed, zeros dropped."""
    out = {}
    for (pa, qa), ca in a.items():
        for (pb, qb), cb in b.items():
            key = (pa + pb, qa + qb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


# Raw term dicts; unlike BivarPoly they may hold negative exponents.
raw_monomials = st.tuples(st.integers(-3, 4), st.integers(-3, 4))
raw_coefficients = st.integers(-30, 30).filter(bool)
raw_terms = st.dictionaries(raw_monomials, raw_coefficients, max_size=8)
raw_one_term = st.dictionaries(raw_monomials, raw_coefficients, min_size=1, max_size=1)
one_term_polys = st.tuples(
    st.integers(0, 6), st.integers(0, 6), raw_coefficients
).map(lambda t: BivarPoly.monomial(t[2], t[0], t[1]))


class TestMulRaw:
    """The monomial-row path of _mul_raw against the double loop."""

    @given(raw_terms, raw_one_term)
    @example({(0, 0): 2, (-1, 3): -1}, {(0, 0): -1})
    @example({}, {(-2, 0): 5})
    def test_one_term_factor_on_either_side(self, a, m):
        before = (dict(a), dict(m))
        assert _mul_raw(a, m) == double_loop_product(a, m)
        assert _mul_raw(m, a) == double_loop_product(m, a)
        assert (a, m) == before

    @given(raw_terms, raw_terms)
    def test_general_products(self, a, b):
        assert _mul_raw(a, b) == double_loop_product(a, b)

    @given(polys(), one_term_polys)
    @example(F2, ONE)
    @example(F2, -ONE)
    def test_bivarpoly_monomial_products(self, a, m):
        assert (a * m)._terms == double_loop_product(a._terms, m._terms)
        assert (m * a)._terms == double_loop_product(m._terms, a._terms)


class TestRingAxioms:
    @given(polys(), polys(), polys())
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys())
    def test_additive_inverse_and_units(self, a):
        assert a + (-a) == ZERO
        assert a + ZERO == a
        assert ONE * a == a

    def test_int_coercion(self):
        assert 1 + P - 1 == P
        assert 2 * P == P + P
        assert (1 - P) + P == ONE


class TestExamples:
    def test_one_minus_p_plus_p(self):
        assert F1 + P == ONE

    def test_doubling(self):
        assert F1 + F1 == BivarPoly({(0, 0): 2, (1, 0): -2})

    def test_square(self):
        assert F1 * F1 == BivarPoly({(0, 0): 1, (1, 0): -2, (2, 0): 1})

    def test_recurrence_step(self):
        assert (ONE - P) * F2 + P * (ONE - Q * Q) * F1 == F3

    def test_power(self):
        assert P**0 == ONE
        assert P**3 == BivarPoly({(3, 0): 1})
        with pytest.raises(ValueError):
            P**-1

    def test_big_coefficients_exact(self):
        big = (ONE + P) ** 64
        assert big.coefficient(32, 0) == math.comb(64, 32)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1).as_poly() == Q - 1
        assert cyclotomic(2).as_poly() == Q + 1
        assert cyclotomic(6).as_poly() == Q * Q - Q + 1

    @pytest.mark.parametrize("k", range(1, 25))
    def test_product_over_divisors(self, k):
        prod = ONE
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic(d).as_poly()
        assert prod == Q**k - 1

    def test_degree_is_euler_phi(self):
        phi = lambda k: sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)
        for k in range(1, 20):
            assert cyclotomic(k).degree == phi(k)

    def test_value_semantics(self):
        mod = cyclotomic(6)
        assert (mod.k, mod.coeffs, mod.degree, str(mod)) == (6, (1, -1, 1), 2, "1 - q + q^2")
        fresh = CyclotomicModulus(6, mod.coeffs)
        assert fresh == mod and hash(fresh) == hash(mod)
        assert mod != CyclotomicModulus(3, (1, 1, 1)) and mod != (6, (1, -1, 1))
        with pytest.raises(AttributeError):
            mod.k = 3


class TestReduce:
    def test_f2_mod_phi2(self):
        assert reduce_mod_cyclotomic(F2, cyclotomic(2)) == ONE + P * P

    @pytest.mark.parametrize("k", range(2, 9))
    def test_geometric_sum_vanishes(self, k):
        total = BivarPoly({(0, i): 1 for i in range(k)})
        assert reduce_mod_cyclotomic(total, cyclotomic(k)) == ZERO

    def test_low_degree_fixed(self):
        a = ONE + P * Q  # q-degree 1 < phi(6) = 2
        assert reduce_mod_cyclotomic(a, cyclotomic(6)) == a

    @given(polys(max_exp=8), polys(max_exp=8), st.integers(1, 12))
    @settings(max_examples=60)
    def test_ring_homomorphism(self, a, b, k):
        mod = cyclotomic(k)
        red = lambda x: reduce_mod_cyclotomic(x, mod)
        assert red(a * b) == red(red(a) * red(b))
        assert red(a + b) == red(red(a) + red(b))

    @given(polys(max_exp=8), st.integers(1, 10))
    @settings(max_examples=40)
    def test_reduction_is_congruent(self, a, k):
        # a - reduce(a) must be divisible by phi_k: reducing it gives 0
        mod = cyclotomic(k)
        diff = a - reduce_mod_cyclotomic(a, mod)
        assert reduce_mod_cyclotomic(diff, mod) == ZERO
        assert q_degree(reduce_mod_cyclotomic(a, mod)) < mod.degree


class TestSpecialize:
    def test_examples(self):
        assert F1.specialize(1, 1) == 0
        assert (P * Q).specialize(2, 3) == 6
        assert ZERO.specialize(5, 7) == 0

    def test_fk_vanishes_at_group_algebra_point(self):
        from heckeb.verify import f_k_direct

        for k in range(1, 8):
            assert f_k_direct(k).specialize(1, 1) == 0


class TestFormats:
    def test_graded_lex_text(self):
        assert str(F2) == "1 - p - p*q + p^2"

    def test_zero_and_signs(self):
        assert str(ZERO) == "0"
        assert str(-P) == "-p"
        assert str(P - 1) == "-1 + p"
        assert str(2 * P * Q**2 - 3) == "-3 + 2*p*q^2"

    def test_json_round_trip(self):
        for poly in (ZERO, F1, F2, F3, (ONE + P) ** 9):
            assert BivarPoly.from_json(poly.to_json()) == poly

    def test_json_term_shape(self):
        data = F2.to_json()
        assert data[0] == {"p": 0, "q": 0, "c": "1"}
        assert all(set(t) == {"p", "q", "c"} for t in data)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BivarPoly({(-1, 0): 1})
        with pytest.raises(TypeError):
            BivarPoly({(0, 0): 1.5})

    def test_float_exponent_rejected(self):
        with pytest.raises(ValueError):
            BivarPoly({(1.5, 0): 1})

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError):
            BivarPoly({(True, 0): 1})

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            BivarPoly({(0, 0): True})
        with pytest.raises(TypeError):
            BivarPoly(True)
        with pytest.raises(TypeError):
            P * True

    def test_json_repeated_monomial_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            BivarPoly.from_json([{"p": 0, "q": 0, "c": "1"}, {"p": 0, "q": 0, "c": "2"}])

    @pytest.mark.parametrize(
        "term",
        [
            {"p": 1.5, "q": 0, "c": "1"},
            {"p": True, "q": 0, "c": "1"},
            {"p": "1", "q": 0, "c": "1"},
            {"p": 0, "q": 2.0, "c": "1"},
            {"p": 0, "q": False, "c": "1"},
            {"p": 0, "q": 0, "c": 1.5},
            {"p": 0, "q": 0, "c": True},
            {"p": 0, "q": 0, "c": "1.5"},
            {"p": 0, "q": 0, "c": " 1"},
            {"p": 0, "q": 0, "c": "+1"},
            {"p": 0, "q": 0, "c": "01"},
            {"p": 0, "q": 0, "c": "1_0"},
        ],
    )
    def test_json_field_refused_not_truncated(self, term):
        with pytest.raises(ValueError):
            BivarPoly.from_json([term])

    def test_json_int_and_negative_string_coefficients_read(self):
        data = [{"p": 0, "q": 0, "c": -3}, {"p": 1, "q": 0, "c": "-12"}, {"p": 0, "q": 1, "c": "0"}]
        assert BivarPoly.from_json(data) == -3 - 12 * P
