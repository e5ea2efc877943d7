"""The word-expression parser and its Hecke evaluation."""

import pytest

from heckeb.hecke import mult, t_of, unit
from heckeb.signedperm import generator, identity, make_cycle, make_w_nk
from heckeb.words import (
    MAX_EXPONENT,
    GenAtom,
    WordFactor,
    WordSyntaxError,
    evaluate_word,
    parse_word,
)


class TestParse:
    def test_three_letters(self):
        expr = parse_word("t s1 t")
        assert len(expr.factors) == 3
        assert str(expr) == "t s1 t"

    @pytest.mark.parametrize(
        "text",
        ["t", "t s1 t", "w0", "w_nk(0,2)^2", "c(1,2)", "( t s1 )^3 w0", "s2^0"],
    )
    def test_print_parse_round_trip(self, text):
        expr = parse_word(text)
        assert parse_word(str(expr)) == expr

    def test_whitespace_insensitive(self):
        assert parse_word(" t   s1\tt ") == parse_word("t s1 t")

    @pytest.mark.parametrize(
        "bad",
        ["", "t $", "( t", "t ^", "foo", "w_nk(1)", "w_nk(1,)", "s0", "t )", "^2"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)

    def test_error_offset(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("t s1 $")
        assert err.value.offset == 5

    def test_exponent_cap(self):
        assert parse_word(f"t^{MAX_EXPONENT}").factors[0].exponent == MAX_EXPONENT
        with pytest.raises(WordSyntaxError) as err:
            parse_word(f"t s1^{MAX_EXPONENT + 1}")
        assert err.value.offset == 5
        with pytest.raises(ValueError):
            WordFactor(GenAtom(1), MAX_EXPONENT + 1)


class TestEvaluate:
    def test_word_evaluates_to_basis_element(self):
        w = identity(2).apply_right(0).apply_right(1).apply_right(0)
        assert evaluate_word(parse_word("t s1 t"), 2) == t_of(w)

    def test_named_square(self):
        expr = parse_word("w_nk(0,2)^2")
        expected = mult(t_of(make_w_nk(0, 2)), t_of(make_w_nk(0, 2)))
        assert evaluate_word(expr, 2) == expected

    def test_named_elements(self):
        assert evaluate_word(parse_word("w0"), 3) == t_of(identity(3).negate())
        assert evaluate_word(parse_word("c(1,2)"), 4) == t_of(make_cycle(1, 2))
        assert evaluate_word(parse_word("w_nk(1,2)"), 4) == t_of(
            make_w_nk(1, 2).embed(4)
        )

    def test_group_with_exponent(self):
        lhs = evaluate_word(parse_word("( t s1 )^2"), 2)
        rhs = evaluate_word(parse_word("t s1 t s1"), 2)
        assert lhs == rhs

    def test_zero_exponent_is_unit(self):
        assert evaluate_word(parse_word("t^0"), 2) == unit(2)

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate_word(parse_word("s9"), 3)

    def test_named_element_needs_room(self):
        with pytest.raises(ValueError):
            evaluate_word(parse_word("w_nk(1,2)"), 2)
        with pytest.raises(ValueError):
            evaluate_word(parse_word("c(1,2)"), 3)

    def test_quadratic_relation_via_words(self):
        lhs = evaluate_word(parse_word("s1^2"), 2)
        s1 = t_of(generator(1, 2))
        assert lhs == mult(s1, s1)
