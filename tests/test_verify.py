"""The verification layer: closed forms, reports, witnesses, suites."""

import json

import pytest

from heckeb.combinat import enumerate_good, stat_a, symmetric_involutions
from heckeb.hecke import HeckeElement, mult, t_of, trivial_quotient, z_coefficient
from heckeb.poly import BivarPoly, ONE, P, Q, cyclotomic, reduce_mod_cyclotomic
from heckeb.signedperm import generator, identity, make_cycle, make_w_nk
from heckeb import verify as V

from oracles import neat_pairs_oracle, p_coefficients, stat_c


# -- reference oracles: one weight built per involution -------------------------

def closed_form_oracle(k):
    """T_{w_{0,k}}^2 over G_k, building every good involution's weight afresh."""
    terms = {}
    for w in enumerate_good(k):
        a, a_neg, c = stat_a(w), stat_a(w.negate()), stat_c(w)
        assert (k + a - a_neg) % 2 == 0 and (k - a - a_neg) % 2 == 0
        terms[w] = (
            P ** ((k + a - a_neg) // 2)
            * (ONE - P) ** a_neg
            * Q**c
            * (ONE - Q) ** ((k - a - a_neg) // 2)
        )
    return HeckeElement(k, terms)


def f_k_direct_oracle(k):
    """f_k summed one involution of S_k at a time."""
    total = BivarPoly(0)
    for w in symmetric_involutions(k):
        a, neat = stat_a(w), neat_pairs_oracle(w)
        total = total + (P * (ONE - Q)) ** ((k - a) // 2) * (ONE - P) ** a * Q**neat
    return total


class TestClosedForm:
    def test_k1(self):
        t = generator(0, 1)
        assert V.closed_form_w0k_square(1) == HeckeElement(
            1, {identity(1): P, t: ONE - P}
        )

    def test_k2_longest_coefficient(self):
        closed = V.closed_form_w0k_square(2)
        assert closed.coefficient(identity(2).negate()) == (ONE - P) ** 2

    @pytest.mark.parametrize("k", range(1, 7))
    def test_support_is_good_involutions(self, k):
        closed = V.closed_form_w0k_square(k)
        assert set(closed.support()) == set(enumerate_good(k))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_per_involution_oracle(self, k):
        assert V.closed_form_w0k_square(k) == closed_form_oracle(k)

    def test_shared_weights_are_never_mutated(self):
        closed = V.closed_form_w0k_square(4)
        coefficients = [c for _, c in closed.sorted_terms()]
        # several involutions share one weight object, so a mutation would spread
        assert len({id(c) for c in coefficients}) < len(coefficients)
        snapshot = closed.to_json()
        t = t_of(generator(0, 4))
        mult(closed, t)
        mult(t, closed)
        mult(closed, closed)
        closed + closed
        closed.scale(P - Q)
        closed.map_coefficients(lambda c: c * Q)
        assert closed.to_json() == snapshot


def weights_oracle(k):
    """(w, (a, a', c), weight) per good involution, from stat_a(w),
    stat_a(-w) and stat_c(w)."""
    out = []
    for w in enumerate_good(k):
        a, a_neg, c = stat_a(w), stat_a(w.negate()), stat_c(w)
        weight = (
            P ** ((k + a - a_neg) // 2)
            * (ONE - P) ** a_neg
            * Q**c
            * (ONE - Q) ** ((k - a - a_neg) // 2)
        )
        out.append((w, (a, a_neg, c), weight))
    return out


class TestGoodInvolutionWeights:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_per_element_oracle(self, k):
        assert list(V.good_involution_weights(k)) == weights_oracle(k)

    @pytest.mark.slow
    @pytest.mark.parametrize("k", [9, 10])
    def test_matches_per_element_oracle_large(self, k):
        assert list(V.good_involution_weights(k)) == weights_oracle(k)


class TestBenchmarkContract:
    """The enumeration counts perfbench pins (combinat.enumerated per check)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"enumerate_good": [], "symmetric_involutions": []}
        for name in seen:
            original = getattr(V, name)

            def counted(k, name=name, original=original):
                result = original(k)
                seen[name].append(len(result))
                return result

            monkeypatch.setattr(V, name, counted)
        return seen

    @pytest.mark.parametrize("k,size", [(1, 2), (4, 43), (6, 499)])
    def test_w0k_enumerates_g_k_once_and_no_involutions(self, calls, k, size):
        assert V.verify_w0k(k).passed
        assert calls["enumerate_good"] == [size]
        assert calls["symmetric_involutions"] == []

    @pytest.mark.parametrize("k", [1, 5])
    def test_fk_enumerates_involutions_once(self, calls, k):
        assert V.verify_fk(k).passed
        assert len(calls["symmetric_involutions"]) == 1
        assert calls["enumerate_good"] == []


class TestW0k:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_pass(self, k):
        report = V.verify_w0k(k)
        assert report.passed and report.witness is None

    def test_mutation_detected(self, monkeypatch):
        # perturbing one exponent in the closed form must fail with a witness
        original = V.closed_form_w0k_square

        def broken(k):
            closed = original(k)
            w0 = identity(k).negate()
            terms = dict(closed.sorted_terms())
            terms[w0] = terms[w0] * P
            return HeckeElement(k, terms)

        monkeypatch.setattr(V, "closed_form_w0k_square", broken)
        report = V.verify_w0k(3)
        assert not report.passed
        assert report.witness == [
            {
                "where": "T[-1,-2,-3]",
                "lhs": "1 - 3*p + 3*p^2 - p^3",
                "rhs": "p - 3*p^2 + 3*p^3 - p^4",
            }
        ]


class TestMismatches:
    def test_equal_elements_have_no_witness(self):
        h = V.closed_form_w0k_square(3)
        assert V._hecke_mismatches(h, h) == []

    def test_unequal_elements_capped_in_length_window_order(self):
        h = V.closed_form_w0k_square(3)
        assert len(h.support()) > V.WITNESS_LIMIT
        found = V._hecke_mismatches(h, HeckeElement(3, {}), label="x ")
        expected = [
            {"where": f"x T{w}", "lhs": str(c), "rhs": "0"}
            for w, c in h.sorted_terms()[: V.WITNESS_LIMIT]
        ]
        assert found == expected


class TestFk:
    def test_f1_f2_values(self):
        assert V.f_k_direct(1) == ONE - P
        assert V.f_k_direct(2) == ONE - (ONE + Q) * P + P * P

    @pytest.mark.parametrize("k", range(1, 7))
    def test_triple_agreement(self, k):
        assert V.f_k_direct(k) == V.f_k_recurrence(k) == V.f_k_separated(k)

    @pytest.mark.parametrize(
        "k", [*range(1, 10), *(pytest.param(k, marks=pytest.mark.slow) for k in (10, 11))]
    )
    def test_direct_matches_per_involution_oracle(self, k):
        assert V.f_k_direct(k) == f_k_direct_oracle(k)

    def test_k2_separated_expansion_sign(self):
        # the separated 2-set sum expands to 1 - (1+q)p + p^2, minus sign included
        expansion = (ONE - P) ** 2 + P * (ONE - Q)
        assert expansion == V.f_k_separated(2) == V.f_k_direct(2)
        assert expansion.coefficient(1, 0) == -1

    def test_verify_fk_report(self):
        assert V.verify_fk(3).passed

    @pytest.mark.parametrize("k", range(1, 9))
    def test_palindromic_coefficients(self, k):
        # reversing the p-coefficient list and scaling by (-1)^k restores f_k
        rows = p_coefficients(V.f_k_recurrence(k))
        assert len(rows) == k + 1
        sign = -1 if k % 2 else 1
        for lo, hi in zip(rows, reversed(rows)):
            assert lo == sign * hi


class TestBaseCase:
    def test_k2_value(self):
        mod = cyclotomic(2)
        assert reduce_mod_cyclotomic(V.f_k_direct(2), mod) == ONE + P**2

    def test_k3_value(self):
        mod = cyclotomic(3)
        assert reduce_mod_cyclotomic(V.f_k_direct(3), mod) == ONE - P**3

    @pytest.mark.parametrize("k", range(2, 7))
    def test_pass_with_engine(self, k):
        # the engine side of the same value is verify_main(0, k) (TestMain)
        assert V.verify_base_case(k).passed

    def test_makes_no_hecke_product(self, monkeypatch):
        def product(*args):
            raise AssertionError("verify_base_case made a Hecke product")

        monkeypatch.setattr(V, "z_coefficient", product)
        monkeypatch.setattr(V, "mult", product)
        assert all(V.verify_base_case(k).passed for k in range(2, 9))

    def test_unreduced_f2_differs(self):
        # before cyclotomic reduction the trivial quotient is f_2, not 1 + p^2
        z = z_coefficient(0, 2)
        scalar = trivial_quotient(z, 0, 2).coefficient(identity(0))
        assert scalar == V.f_k_direct(2)
        assert scalar != ONE + P**2


class TestConj:
    @pytest.mark.parametrize("k", range(1, 5))
    def test_pass(self, k):
        assert V.verify_conj_lemma(k).passed

    def test_k1_identity_has_three_successor_terms(self):
        from heckeb.combinat import conjugator

        x = conjugator(1)
        lhs = mult(mult(t_of(x), t_of(identity(2))), t_of(x.inverse()))
        assert len(lhs.support()) == 3


class TestTc:
    @pytest.mark.parametrize("n,k", [(0, 2), (1, 2), (0, 3)])
    def test_pass(self, n, k):
        assert V.verify_tc_identity(n, k).passed

    def test_group_algebra_degeneration(self):
        c = make_cycle(1, 2)
        product = mult(t_of(c.inverse()), t_of(c))
        assert product.specialize(1, 1) == {identity(4): 1}


class TestBaby:
    @pytest.mark.parametrize("n,k", [(0, 2), (1, 2), (0, 3)])
    def test_pass(self, n, k):
        assert V.verify_baby_succ(n, k).passed


class TestMain:
    @pytest.mark.parametrize("n,k", [(0, 2), (1, 2), (0, 3), (2, 2)])
    def test_pass(self, n, k):
        assert V.verify_main(n, k).passed

    @pytest.mark.parametrize("k", range(2, 7))
    def test_witness_when_the_n0_coefficient_is_off(self, monkeypatch, k):
        # the engine side of the base case f_k = 1 + (-p)^k mod phi_k
        z_coefficient = V.z_coefficient
        monkeypatch.setattr(
            V, "z_coefficient", lambda n, k: z_coefficient(n, k).scale(P if n == 0 else 1)
        )
        report = V.verify_main(0, k)
        target = reduce_mod_cyclotomic(ONE + (-P) ** k, cyclotomic(k))
        assert report.witness == [{"where": "T[]", "lhs": str(P * target), "rhs": str(target)}]

    def test_witness_on_forced_mismatch(self, monkeypatch):
        monkeypatch.setattr(V, "hecke_parameter", lambda k: P**k)
        report = V.verify_matrix(2)
        assert not report.passed and report.witness


class TestParameter:
    def test_values(self):
        assert V.hecke_parameter(2) == -(P**2)
        assert V.hecke_parameter(3) == P**3

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matrix_relation(self, k):
        assert V.verify_matrix(k).passed

    def test_printed_matrix_entry_would_fail(self):
        # with the top-right entry read as -(-p^k) = p^k the relation breaks for even k
        qq = V.hecke_parameter(2)
        mat = ((BivarPoly(0), P**2), (ONE, ONE + (-P) ** 2))
        entry = (mat[0][0] - ONE) * (mat[0][0] + qq) + mat[0][1] * mat[1][0]
        assert entry != BivarPoly(0)


class TestCounts:
    @pytest.mark.parametrize("k", [1, 2, 7, 12])
    def test_separated(self, k):
        assert V.verify_separated_count(k).passed

    @pytest.mark.parametrize("k", [0, 1, 17, 30])
    def test_binom(self, k):
        assert V.verify_binom(k).passed


class TestReports:
    def test_json_schema(self):
        report = V.verify_fk(2)
        data = report.to_json()
        assert set(data) == {"statement", "params", "status", "witness", "ms"}
        assert data["status"] == "pass" and data["witness"] is None
        json.dumps(data)  # serializable

    def test_str_contains_status(self):
        assert "[PASS]" in str(V.verify_binom(3))

    def test_suite_sorted_and_passing(self):
        reports = V.run_suite(["tc", "baby"], max_rank=5)
        keys = [r.sort_key() for r in reports]
        assert keys == sorted(keys)
        assert all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            V.build_checks("nonsense")
