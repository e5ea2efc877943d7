"""The verification layer: closed forms, reports, witnesses, suites."""

import json
import tracemalloc

import pytest

from heckeb.combinat import enumerate_good, stat_a, symmetric_involutions
from heckeb.hecke import (
    HeckeElement,
    distinguished_factor,
    mult,
    t_of,
    trivial_quotient,
    z_coefficient,
)
from heckeb.poly import BivarPoly, ONE, P, Q, cyclotomic, reduce_mod_cyclotomic
from heckeb.signedperm import generator, identity, make_cycle, make_w_nk
from heckeb import cli, combinat
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


class TestBinomialWeights:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_every_occurring_weight_matches_four_powers(self, k):
        _, signatures = V._good_signatures(k)
        weights = V._Weights(k)
        for a, a_neg, c in set(signatures):
            x, y = (k + a - a_neg) // 2, (k - a - a_neg) // 2
            assert 2 * x == k + a - a_neg and 2 * y == k - a - a_neg
            four_powers = P**x * (ONE - P) ** a_neg * Q**c * (ONE - Q) ** y
            assert weights[a, a_neg, c] == four_powers, (a, a_neg, c)


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


def perturb_weight(monkeypatch, signature, change):
    """Patch ``_Weights`` so that the weight of one (a, a', c) is
    ``change(weight)``, for the streamed pass and the witness path alike."""

    class Perturbed(V._Weights):
        def __missing__(self, key):
            weight = super().__missing__(key)
            if key == signature:
                weight = self[key] = change(weight)
            return weight

    monkeypatch.setattr(V, "_Weights", Perturbed)


class TestW0k:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_pass(self, k):
        report = V.verify_w0k(k)
        assert report.passed and report.witness is None

    def test_mutation_detected(self, monkeypatch):
        # perturbing one weight must fail with a witness; w_0 = -1 is the one
        # window with a' = k
        perturb_weight(monkeypatch, (0, 3, 0), lambda weight: weight * P)
        report = V.verify_w0k(3)
        assert not report.passed
        assert report.witness == [
            {
                "where": "T[-1,-2,-3]",
                "lhs": "1 - 3*p + 3*p^2 - p^3",
                "rhs": "p - 3*p^2 + 3*p^3 - p^4",
            }
        ]


class TestW0kStreamed:
    """verify_w0k checks the square against the weights in one pass; each
    mutant must fail with the witness of the term-by-term comparison."""

    K = 5

    @staticmethod
    def square(k):
        """The square as verify_w0k computes it, through its ``mult``."""
        w = make_w_nk(0, k)
        return V.mult(t_of(w), t_of(w))

    @staticmethod
    def edit_windows(monkeypatch, edit):
        """Patch ``_good_signatures`` to apply ``edit`` to its window and
        signature lists, for the pass and the closed form alike."""
        original = V._good_signatures

        def edited(k):
            windows, signatures = original(k)
            windows, signatures = list(windows), list(signatures)
            edit(windows, signatures)
            return windows, iter(signatures)

        monkeypatch.setattr(V, "_good_signatures", edited)

    def failing_witness(self):
        report = V.verify_w0k(self.K)
        assert not report.passed
        assert report.witness == V._mismatches(
            V._hecke_comparisons(self.square(self.K), V.closed_form_w0k_square(self.K))
        )
        return report.witness

    def test_perturbed_shared_weight(self, monkeypatch):
        signatures = list(V._good_signatures(self.K)[1])
        shared = max(set(signatures), key=signatures.count)
        assert signatures.count(shared) > 1
        perturb_weight(monkeypatch, shared, lambda weight: weight + Q)
        witness = self.failing_witness()
        assert len(witness) == signatures.count(shared)
        assert all(item["lhs"] != item["rhs"] for item in witness)

    def test_weight_of_another_window(self, monkeypatch):
        # window i shares its coefficient object with a later window, which
        # keeps its own weight; each (object, weight) pair is compared
        windows, signatures = map(list, V._good_signatures(self.K))
        i = next(i for i, s in enumerate(signatures) if signatures[i + 1 :].count(s))
        j = next(j for j, s in enumerate(signatures) if s != signatures[i])

        def move_weight(windows, signatures):
            signatures[i] = signatures[j]

        self.edit_windows(monkeypatch, move_weight)
        assert self.failing_witness() == [
            {
                "where": f"T{windows[i]}",
                "lhs": str(self.square(self.K).coefficient(windows[i])),
                "rhs": str(V._Weights(self.K)[signatures[j]]),
            }
        ]

    def test_dropped_window(self, monkeypatch):
        windows = list(V._good_signatures(self.K)[0])
        dropped = windows[7]

        def drop(windows, signatures):
            del windows[7], signatures[7]

        self.edit_windows(monkeypatch, drop)
        assert self.failing_witness() == [
            {"where": f"T{dropped}", "lhs": str(self.square(self.K).coefficient(dropped)), "rhs": "0"}
        ]

    def test_repeated_window_in_place_of_another(self, monkeypatch):
        windows = list(V._good_signatures(self.K)[0])
        replaced = windows[9]

        def repeat_one(windows, signatures):
            windows[9], signatures[9] = windows[3], signatures[3]

        self.edit_windows(monkeypatch, repeat_one)
        assert self.failing_witness() == [
            {"where": f"T{replaced}", "lhs": str(self.square(self.K).coefficient(replaced)), "rhs": "0"}
        ]

    def test_window_listed_twice(self, monkeypatch):
        # the closed form's dict keeps one copy, so only the pass sees it
        def append_one(windows, signatures):
            windows.append(windows[3])
            signatures.append(signatures[3])

        self.edit_windows(monkeypatch, append_one)
        report = V.verify_w0k(self.K)
        assert not report.passed
        size = len(enumerate_good(self.K))
        assert report.witness == [
            {"where": "G_k", "lhs": f"{size + 1} windows", "rhs": f"{size} distinct"}
        ]

    def test_extra_term_in_the_square(self, monkeypatch):
        extra = generator(1, self.K)  # an involution, but not good
        assert extra not in set(enumerate_good(self.K))
        original = V.mult

        def with_extra(a, b):
            return original(a, b) + HeckeElement(self.K, {extra: Q})

        monkeypatch.setattr(V, "mult", with_extra)
        assert self.failing_witness() == [{"where": f"T{extra}", "lhs": "q", "rhs": "0"}]

    def test_equal_but_distinct_coefficient_objects_pass(self, monkeypatch):
        original = V.mult

        def unshared(a, b):
            h = original(a, b)
            return HeckeElement._raw(
                h.rank, {w: BivarPoly._raw(dict(c._terms)) for w, c in h._terms.items()}
            )

        monkeypatch.setattr(V, "mult", unshared)
        assert V.verify_w0k(self.K).passed

    def test_compares_each_distinct_pair_once_with_no_closed_form(self, monkeypatch):
        k = 6
        square, closed = self.square(k), V.closed_form_w0k_square(k)
        pairs = {(id(square.coefficient(w)), id(c)) for w, c in closed._terms.items()}
        assert len(pairs) < len(closed.support())
        calls, in_mult = [], []
        original_eq, original_mult = BivarPoly.__eq__, V.mult

        def counted(a, b):
            if not in_mult:  # mult compares its right factor's coefficient with 1
                calls.append(1)
            return original_eq(a, b)

        def flagged(a, b):
            in_mult.append(True)
            try:
                return original_mult(a, b)
            finally:
                in_mult.pop()

        def forbidden(k):
            raise AssertionError("the passing path built the closed form")

        monkeypatch.setattr(BivarPoly, "__eq__", counted)
        monkeypatch.setattr(V, "closed_form_w0k_square", forbidden)
        monkeypatch.setattr(V, "mult", flagged)
        assert V.verify_w0k(k).passed
        assert 0 < len(calls) <= len(pairs)

    def test_pops_each_window_as_it_is_built(self, monkeypatch):
        # windows built by enumerate_good but not yet popped from the
        # square, read at every pop: never more than one group, 2^k
        k = 6
        built, lags = [0], []
        original_group, original_mult = combinat.GoodInvolutions._group, V.mult

        def counted(self, s):
            for window in original_group(self, s):
                built[0] += 1
                yield window

        class Square(dict):
            def pop(self, key, default):
                lags.append(built[0] - len(lags))
                return super().pop(key, default)

        def square(a, b):
            h = original_mult(a, b)
            return HeckeElement._raw(h.rank, Square(h._terms))

        monkeypatch.setattr(combinat.GoodInvolutions, "_group", counted)
        monkeypatch.setattr(V, "mult", square)
        assert V.verify_w0k(k).passed
        assert len(lags) == built[0] == 499
        assert max(lags) <= 2**k


class TestMismatches:
    def test_equal_elements_have_no_witness(self):
        h = V.closed_form_w0k_square(3)
        assert V._mismatches(V._hecke_comparisons(h, h)) == []

    def test_unequal_elements_capped_in_length_window_order(self):
        h = V.closed_form_w0k_square(3)
        assert len(h.support()) > V.WITNESS_LIMIT
        found = V._mismatches(V._hecke_comparisons(h, HeckeElement(3, {}), label="x "))
        expected = [
            {"where": f"x T{w}", "lhs": str(c), "rhs": "0"}
            for w, c in h.sorted_terms()[: V.WITNESS_LIMIT]
        ]
        assert found == expected


class TestFk:
    def test_f1_f2_values(self):
        assert V.f_k_direct(1) == ONE - P
        assert V.f_k_direct(2) == ONE - (ONE + Q) * P + P * P

    def test_direct_refuses_a_bool_k(self):
        # True passes k >= 1; the involutions' view refuses it
        with pytest.raises(ValueError, match="not an int"):
            V.f_k_direct(True)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_recurrence_refuses_a_non_int_k(self, k):
        # True passed k >= 1 and gave f_1; 2.5 failed in range with a TypeError
        with pytest.raises(ValueError, match="not an int"):
            V.f_k_recurrence(k)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_separated_refuses_a_non_int_k(self, k):
        with pytest.raises(ValueError, match="not an int"):
            V.f_k_separated(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_triple_agreement(self, k):
        assert V.f_k_direct(k) == V.f_k_recurrence(k) == V.f_k_separated(k)

    @pytest.mark.parametrize(
        "k", [*range(1, 10), *(pytest.param(k, marks=pytest.mark.slow) for k in (10, 11))]
    )
    def test_direct_matches_per_involution_oracle(self, k):
        assert V.f_k_direct(k) == f_k_direct_oracle(k)

    def test_direct_streams_the_involutions(self):
        # a list of the 35,696 involutions of S_11 alone peaks near 5 MB
        tracemalloc.start()
        try:
            direct = V.f_k_direct(11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert direct == V.f_k_recurrence(11)

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

    # stat_a off by one multiplies the two weights q^a by q; the fixed point
    # terms keep theirs, so each w gives two mismatches, in length-window order
    WITNESSES = {
        1: [
            ("w=[-1] T[1,-2]", "p", "p*q"),
            ("w=[-1] T[-1,-2]", "1 - p", "q - p*q"),
            ("w=[1] T[1,2]", "p*q", "p*q^2"),
            ("w=[1] T[-1,2]", "q - p*q", "q^2 - p*q^2"),
        ],
        3: [
            ("w=[-1,-2,-3] T[1,-2,-3,-4]", "p", "p*q"),
            ("w=[-1,-2,-3] T[-1,-2,-3,-4]", "1 - p", "q - p*q"),
            ("w=[-1,-2,3] T[1,-2,-3,4]", "p*q", "p*q^2"),
            ("w=[-1,-2,3] T[-1,-2,-3,4]", "q - p*q", "q^2 - p*q^2"),
            ("w=[-1,2,-3] T[1,-2,3,-4]", "p*q", "p*q^2"),
            ("w=[-1,2,-3] T[-1,-2,3,-4]", "q - p*q", "q^2 - p*q^2"),
            ("w=[-1,2,3] T[1,-2,3,4]", "p*q^2", "p*q^3"),
            ("w=[-1,2,3] T[-1,-2,3,4]", "q^2 - p*q^2", "q^3 - p*q^3"),
            ("w=[1,-2,-3] T[1,2,-3,-4]", "p*q", "p*q^2"),
            ("w=[1,-2,-3] T[-1,2,-3,-4]", "q - p*q", "q^2 - p*q^2"),
        ],
        4: [
            ("w=[-1,-2,-3,-4] T[1,-2,-3,-4,-5]", "p", "p*q"),
            ("w=[-1,-2,-3,-4] T[-1,-2,-3,-4,-5]", "1 - p", "q - p*q"),
            ("w=[-1,-2,-3,4] T[1,-2,-3,-4,5]", "p*q", "p*q^2"),
            ("w=[-1,-2,-3,4] T[-1,-2,-3,-4,5]", "q - p*q", "q^2 - p*q^2"),
            ("w=[-1,-2,3,-4] T[1,-2,-3,4,-5]", "p*q", "p*q^2"),
            ("w=[-1,-2,3,-4] T[-1,-2,-3,4,-5]", "q - p*q", "q^2 - p*q^2"),
            ("w=[-1,-2,3,4] T[1,-2,-3,4,5]", "p*q^2", "p*q^3"),
            ("w=[-1,-2,3,4] T[-1,-2,-3,4,5]", "q^2 - p*q^2", "q^3 - p*q^3"),
            ("w=[-1,2,-3,-4] T[1,-2,3,-4,-5]", "p*q", "p*q^2"),
            ("w=[-1,2,-3,-4] T[-1,-2,3,-4,-5]", "q - p*q", "q^2 - p*q^2"),
        ],
    }

    @pytest.mark.parametrize("k", sorted(WITNESSES))
    def test_witness_of_a_wrong_weight(self, monkeypatch, k):
        # k = 3 and 4 stop at the tenth mismatch, the fifth w
        checked = []
        monkeypatch.setattr(V, "stat_a", lambda w: checked.append(w) or stat_a(w) + 1)
        report = V.verify_conj_lemma(k)
        assert not report.passed
        assert [tuple(item.values()) for item in report.witness] == self.WITNESSES[k]
        assert len(checked) == min(len(enumerate_good(k)), 5)


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

    # (n, k) -> (the witness, the coset lookups made) when every third
    # lookup returns the wrong representative
    WITNESSES = {
        (1, 3): (
            [
                ("coset membership of c*[1,-4,-2,-3,5]*c^-1", "[1,2,-5,-3,-4]", "(B_2 x S_3) w_2,3"),
                ("coset membership of c*[1,-2,-3,-4,5]*c^-1", "[1,2,-3,-4,-5]", "(B_2 x S_3) w_2,3"),
                ("coset membership of c*[-1,-4,-2,-3,5]*c^-1", "[-1,2,-5,-3,-4]", "(B_2 x S_3) w_2,3"),
                ("coset membership of c*[-1,-2,-3,-4,5]*c^-1", "[-1,2,-3,-4,-5]", "(B_2 x S_3) w_2,3"),
                ("return conjugation of [1,2,-5,-3,-4]", "False", "True"),
                ("return conjugation of [1,2,-3,-4,-5]", "False", "True"),
                ("return conjugation of [-1,2,-5,-3,-4]", "False", "True"),
                ("return conjugation of [-1,2,-3,-4,-5]", "False", "True"),
            ],
            24,
        ),
        (0, 4): (
            [
                ("coset membership of c*[-4,-2,-3,-1,5]*c^-1", "[1,-5,-3,-4,-2]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-2,-3,-4,-1,5]*c^-1", "[1,-3,-4,-5,-2]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-4,-1,-3,-2,5]*c^-1", "[1,-5,-2,-4,-3]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-1,-3,-4,-2,5]*c^-1", "[1,-2,-4,-5,-3]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-4,-1,-2,-3,5]*c^-1", "[1,-5,-2,-3,-4]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-1,-2,-4,-3,5]*c^-1", "[1,-2,-3,-5,-4]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-3,-1,-2,-4,5]*c^-1", "[1,-4,-2,-3,-5]", "(B_1 x S_4) w_1,4"),
                ("coset membership of c*[-1,-2,-3,-4,5]*c^-1", "[1,-2,-3,-4,-5]", "(B_1 x S_4) w_1,4"),
                ("return conjugation of [1,-5,-3,-4,-2]", "False", "True"),
                ("return conjugation of [1,-3,-4,-5,-2]", "False", "True"),
            ],
            30,
        ),
        (3, 2): (
            [
                ("coset membership of c*[1,2,-3,-5,-4,6]*c^-1", "[1,2,-3,4,-6,-5]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[1,-2,3,-4,-5,6]*c^-1", "[1,-2,3,4,-5,-6]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[-1,2,3,-5,-4,6]*c^-1", "[-1,2,3,4,-6,-5]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[-1,2,-3,-4,-5,6]*c^-1", "[-1,2,-3,4,-5,-6]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[-1,-2,-3,-5,-4,6]*c^-1", "[-1,-2,-3,4,-6,-5]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[1,3,2,-4,-5,6]*c^-1", "[1,3,2,4,-5,-6]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[1,-3,2,-5,-4,6]*c^-1", "[1,-3,2,4,-6,-5]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[1,-3,-2,-4,-5,6]*c^-1", "[1,-3,-2,4,-5,-6]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[-1,3,-2,-5,-4,6]*c^-1", "[-1,3,-2,4,-6,-5]", "(B_4 x S_2) w_4,2"),
                ("coset membership of c*[-1,-3,2,-4,-5,6]*c^-1", "[-1,-3,2,4,-5,-6]", "(B_4 x S_2) w_4,2"),
            ],
            30,
        ),
    }

    @pytest.mark.parametrize("n,k", sorted(WITNESSES))
    def test_witness_of_wrong_coset_lookups(self, monkeypatch, n, k):
        # (0, 4) reaches the tenth mismatch in the return loop, (3, 2) in
        # the first; either way no lookup follows it
        lookups = []

        def every_third_wrong(w, n, k):
            lookups.append(w)
            factor, x = distinguished_factor(w, n, k)
            return (factor, x.negate()) if len(lookups) % 3 == 0 else (factor, x)

        monkeypatch.setattr(V, "distinguished_factor", every_third_wrong)
        report = V.verify_baby_succ(n, k)
        assert not report.passed
        witness, made = self.WITNESSES[n, k]
        assert [tuple(item.values()) for item in report.witness] == witness
        assert len(lookups) == made


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

    @pytest.mark.parametrize("k", [-1, -3])
    def test_binom_rejects_negative_k(self, k):
        # range(k + 1) is empty there, so the check would pass having checked nothing
        with pytest.raises(ValueError):
            V.verify_binom(k)


class TestScalarWitnesses:
    """Each scalar check's witness, with one side of its statement replaced."""

    def test_fk(self, monkeypatch):
        monkeypatch.setattr(V, "f_k_recurrence", lambda k: ONE)
        monkeypatch.setattr(V, "f_k_separated", lambda k: P)
        assert V.verify_fk(2).witness == [
            {"where": "direct vs recurrence", "lhs": "1 - p - p*q + p^2", "rhs": "1"},
            {"where": "direct vs separated", "lhs": "1 - p - p*q + p^2", "rhs": "p"},
        ]

    def test_base(self, monkeypatch):
        monkeypatch.setattr(V, "f_k_direct", lambda k: P)
        assert V.verify_base_case(3).witness == [
            {"where": "f_k mod phi_k", "lhs": "p", "rhs": "1 - p^3"}
        ]

    def test_matrix(self, monkeypatch):
        monkeypatch.setattr(V, "hecke_parameter", lambda k: P**k)
        assert V.verify_matrix(2).witness == [
            {"where": "entry (0,1)", "lhs": "2*p^4", "rhs": "0"},
            {"where": "entry (1,0)", "lhs": "2*p^2", "rhs": "0"},
            {"where": "entry (1,1)", "lhs": "2*p^2 + 2*p^4", "rhs": "0"},
        ]

    def test_sep_count(self, monkeypatch):
        monkeypatch.setattr(V, "count_separated", lambda k, i: 0)
        assert V.verify_separated_count(5).witness == [
            {"where": "cardinality 0", "lhs": "1", "rhs": "0"},
            {"where": "cardinality 1", "lhs": "5", "rhs": "0"},
            {"where": "cardinality 2", "lhs": "5", "rhs": "0"},
        ]

    def test_binom_capped_at_the_witness_limit(self, monkeypatch):
        monkeypatch.setattr(V, "binomial_sum", lambda k, i: i)
        assert V.verify_binom(12).witness == [
            {"where": f"i = {i}", "lhs": str(i), "rhs": "1"} for i in (0, *range(2, 11))
        ]


class TestReports:
    def test_json_schema(self):
        report = V.verify_fk(2)
        data = report.to_json()
        assert set(data) == {"statement", "params", "status", "witness", "ms"}
        assert data["status"] == "pass" and data["witness"] is None
        json.dumps(data)  # serializable

    def test_defaults(self):
        report = V.VerificationReport("x", {}, "pass")
        assert report.witness is None and report.ms == 0.0 and report.passed
        assert report.to_json() == {
            "statement": "x",
            "params": {},
            "status": "pass",
            "witness": None,
            "ms": 0.0,
        }
        assert str(report) == "[PASS] x()  0.0 ms"

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


def expected_ids(suite, r):
    """(statement, params) of every check of a suite at rank cap r, written out
    from the suite definitions, in the order run_suite sorts its reports."""
    pairs = [(n, k) for k in range(2, r) for n in range(r - k)]
    ids = {
        "w0k": [("w0k", {"k": k}) for k in range(1, r + 1)],
        "fk": [("fk", {"k": k}) for k in range(1, max(8, r) + 1)],
        "base": [("base", {"k": k}) for k in range(2, max(8, r) + 1)],
        "conj": [("conj", {"k": k}) for k in range(1, r)],
        "tc": [("tc", {"k": k, "n": n}) for n, k in pairs],
        "baby": [("baby", {"k": k, "n": n}) for n, k in pairs],
        "main": [("main", {"k": k, "n": n}) for k in range(2, r + 1) for n in range(r - k + 1)]
        + [("matrix", {"k": k}) for k in range(2, max(8, r) + 1)],
        "binom": [("sep-count", {"k": k}) for k in range(1, max(12, r) + 1)]
        + [("binom", {"k": k}) for k in range(31)],
    }[suite]
    return sorted(ids, key=lambda i: (i[0], tuple(sorted(i[1].items()))))


class TestSuiteTable:
    @pytest.mark.parametrize("suite", sorted(cli.VERIFY_MAX_RANK))
    @pytest.mark.parametrize("r", [0, 1, 2, 6])
    def test_run_suite_reports_every_check_once(self, suite, r):
        reports = V.run_suite([suite], r)
        assert [(x.statement, x.params) for x in reports] == expected_ids(suite, r)
        assert all(x.passed for x in reports)

    @pytest.mark.parametrize("suite,cap", sorted(cli.VERIFY_MAX_RANK.items()))
    def test_check_count_at_the_cli_cap(self, suite, cap):
        assert len(V.build_checks(suite, cap)) == len(expected_ids(suite, cap))

    def test_checks_call_the_function_on_the_module_when_run(self, monkeypatch):
        calls = []

        def recorder(n, k):
            calls.append((n, k))
            return V.VerificationReport("main", {"k": k, "n": n}, "pass")

        monkeypatch.setattr(V, "verify_main", recorder)
        V.run_suite(["main"], 3)
        assert calls == [(0, 2), (1, 2), (0, 3)]
