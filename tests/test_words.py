"""The word-expression parser and its Hecke evaluation."""

import random

import pytest

from heckeb import hecke, words
from heckeb.hecke import mult, t_of, unit
from heckeb.signedperm import generator, identity, make_cycle, make_w_nk
from heckeb.words import (
    MAX_DEPTH,
    MAX_EXPONENT,
    GenAtom,
    WordFactor,
    WordSyntaxError,
    evaluate_word,
    parse_word,
)

MAX_LETTERS = 20  # keeps the letter-by-letter reference product small


def _random_factor(rng, rank, depth):
    """(text, letters) of one factor: a token or a group, with an exponent."""
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        parts = [_random_factor(rng, rank, depth + 1) for _ in range(rng.randint(1, 3))]
        text = "( " + " ".join(t for t, _ in parts) + " )"
        letters = [g for _, word in parts for g in word]
    elif roll < 0.4 and rank <= 4:
        text, letters = "w0", list(identity(rank).negate().reduced_word())
    elif roll < 0.5:
        k = rng.randint(1, min(2, rank))
        n = rng.randint(0, min(2, rank - k))
        text, letters = f"w_nk({n},{k})", list(make_w_nk(n, k).embed(rank).reduced_word())
    elif roll < 0.6:
        k = rng.randint(1, min(2, rank - 1))
        n = rng.randint(0, rank - k - 1)
        text, letters = f"c({n},{k})", list(make_cycle(n, k).embed(rank).reduced_word())
    else:
        g = rng.randrange(rank)
        text, letters = ("t" if g == 0 else f"s{g}"), [g]
    exponent = rng.choice((0, 1, 1, 2, 3))
    if exponent != 1:
        text += f"^{exponent}"
    return text, letters * exponent


def seeded_expressions():
    """(rank, text, letters) at ranks 2-6, with the letters multiplied out
    independently of the parser."""
    rng = random.Random(2017)
    out = []
    for rank in range(2, 7):
        while sum(r == rank for r, _, _ in out) < 8:
            parts = [_random_factor(rng, rank, 0) for _ in range(rng.randint(1, 3))]
            letters = [g for _, word in parts for g in word]
            if len(letters) <= MAX_LETTERS:
                out.append((rank, " ".join(t for t, _ in parts), letters))
    return out


EXPRESSIONS = seeded_expressions()


def group_element(rank, letters):
    w = identity(rank)
    for g in letters:
        w = w.apply_right(g)
    return w


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

    @pytest.mark.parametrize(
        "text,offset,repeats", [("( ( t s1 )^32 )^4", 16, 128), ("( t^2 s1 )^17", 11, 34)]
    )
    def test_nested_exponents_multiply(self, text, offset, repeats):
        # refused at the exponent whose product with the inner ones crosses the cap
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text)
        assert err.value.offset == offset
        assert str(repeats) in str(err.value)

    def test_nested_exponents_within_the_cap(self):
        expr = parse_word("( ( t )^4 s1 )^8 ( t )^32")
        assert [f.exponent for f in expr.factors] == [8, 32]

    def test_zero_exponent_inside_a_group(self):
        assert parse_word(f"( t^0 )^{MAX_EXPONENT}").factors[0].exponent == MAX_EXPONENT

    def test_nesting_depth_cap(self):
        at_cap = "( " * MAX_DEPTH + "t" + " )" * MAX_DEPTH
        expr = parse_word(at_cap)
        assert str(expr) == at_cap and hash(expr) == hash(parse_word(at_cap))
        assert evaluate_word(expr, 1) == t_of(generator(0, 1))
        over = MAX_DEPTH + 1
        with pytest.raises(WordSyntaxError) as err:
            parse_word("( " * over + "t" + " )" * over)
        assert err.value.offset == 2 * MAX_DEPTH  # the first "(" past the cap


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


class TestReducedRuns:
    """Evaluation is one pooled fold of the unit along the expression's own
    letters, reduced or not: the whole word is a single run."""

    def test_expressions_cover_every_feature(self):
        texts = [text for _, text, _ in EXPRESSIONS]
        for feature in ("( (", "^0", "w0", "w_nk(", "c("):
            assert any(feature in text for text in texts), feature
        assert any(not letters for _, _, letters in EXPRESSIONS)
        # and words that are not reduced, which the fold takes as they are
        assert any(len(ws) > group_element(rank, ws).length() for rank, _, ws in EXPRESSIONS)

    @pytest.mark.parametrize("rank,text,letters", EXPRESSIONS)
    def test_every_right_factor_is_one_run(self, monkeypatch, rank, text, letters):
        # one _times_ts call on the unit, along exactly the expression's letters
        calls = []

        def recording_times_ts(h, word):
            word = list(word)
            calls.append((h, word))
            return hecke._times_ts(h, word)

        monkeypatch.setattr(words, "_times_ts", recording_times_ts)
        evaluate_word(parse_word(text), rank)
        ((h, word),) = calls
        assert h == unit(rank)
        assert word == letters

    @pytest.mark.parametrize("rank,text,letters", EXPRESSIONS)
    def test_matches_letter_by_letter_product(self, rank, text, letters):
        element = evaluate_word(parse_word(text), rank)
        expected = unit(rank)
        for g in letters:
            expected = mult(expected, t_of(generator(g, rank)))
        assert element == expected
        assert element.specialize(1, 1) == {group_element(rank, letters): 1}

    def test_nested_power_equals_flat_power(self):
        nested = evaluate_word(parse_word("( ( t s1 s2 )^16 )^2"), 3)
        assert nested == evaluate_word(parse_word("( t s1 s2 )^32"), 3)
