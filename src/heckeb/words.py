"""A small parser for word expressions over the Hecke algebra.

Grammar:

    expr   := factor+
    factor := atom ("^" INT)?
    atom   := token | "(" expr ")"

Tokens are the generators ("t", "s1", "s2", ...) and the named elements
"w0" (longest element of the ambient rank), "w_nk(n,k)" and "c(n,k)".
Parsing and printing are mutually inverse on canonical forms; unknown or
malformed input is rejected with the byte offset of the offending token.

Evaluation flattens the expression to its letters (a reduced word per
token, a factor's letters repeated per unit of its exponent) and makes one
call of the kernel of ``heckeb.hecke``: the unit folded along those
letters.  The running product is encoded once and decoded once, and the
kernel's pool is compacted to the coefficients the product still holds
whenever it has doubled, so a long word's intermediate coefficients do not
pile up.  Each letter costs more as the coefficient degrees grow, so
exponents are capped at MAX_EXPONENT.  At the cap, ``( t s1 s2 )^32`` at
rank 3 takes about 0.4-0.5 s and 23 MB in a fresh process on a 2-vCPU host.
Nested exponents multiply: a factor's exponent times the exponents of every group around it
is also capped at MAX_EXPONENT, so ``( ( t s1 )^32 )^4`` is refused at its
``4``, and ``( ( t s1 s2 )^16 )^2`` has the letters of ``( t s1 s2 )^32``
and about its time.  Groups nest at most MAX_DEPTH deep; printing, hashing
and flattening recurse once per level.
"""

from __future__ import annotations

import re

# Evaluation never calls mult; the name stays a module attribute because the
# traced benchmark run (perfbench/spans.py) wraps words.mult.
from .hecke import HeckeElement, _times_ts, mult, unit  # noqa: F401
from .poly import _Frozen
from .signedperm import identity, make_cycle, make_w_nk

__all__ = [
    "MAX_EXPONENT",
    "MAX_DEPTH",
    "WordSyntaxError",
    "WordExpression",
    "WordFactor",
    "parse_word",
    "evaluate_word",
]


class WordSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class GenAtom(_Frozen):
    __slots__ = ("index",)  # 0 is t, i >= 1 is s_i

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)

    def __str__(self):
        return "t" if self.index == 0 else f"s{self.index}"


class LongestAtom(_Frozen):
    __slots__ = ()

    def __str__(self):
        return "w0"


class WnkAtom(_Frozen):
    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __str__(self):
        return f"w_nk({self.n},{self.k})"


class CycleAtom(_Frozen):
    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __str__(self):
        return f"c({self.n},{self.k})"


class GroupAtom(_Frozen):
    __slots__ = ("expr",)

    def __init__(self, expr: WordExpression):
        object.__setattr__(self, "expr", expr)

    def __str__(self):
        return f"( {self.expr} )"


MAX_EXPONENT = 32
MAX_DEPTH = 32


class WordFactor(_Frozen):
    __slots__ = ("atom", "exponent")

    def __init__(self, atom, exponent: int = 1):
        if not 0 <= exponent <= MAX_EXPONENT:
            raise ValueError(f"exponent {exponent} is outside 0..{MAX_EXPONENT}")
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "exponent", exponent)

    def __str__(self):
        text = str(self.atom)
        return text if self.exponent == 1 else f"{text}^{self.exponent}"


class WordExpression(_Frozen):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[WordFactor, ...]):
        object.__setattr__(self, "factors", factors)

    def __str__(self):
        return " ".join(str(f) for f in self.factors)


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()^,]))")
_S_GEN_RE = re.compile(r"s(\d+)$")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise WordSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        if m.lastgroup == "int":
            tokens.append(("INT", m.group("int"), m.start("int")))
        elif m.lastgroup == "ident":
            tokens.append(("IDENT", m.group("ident"), m.start("ident")))
        else:
            tokens.append((m.group("sym"), m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise WordSyntaxError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self, inside_group: bool = False) -> WordExpression:
        factors = []
        while True:
            tok = self.peek()
            if tok is None or (inside_group and tok[0] == ")"):
                break
            factors.append(self.parse_factor())
        if not factors:
            where = self.peek()[2] if self.peek() else len(self.text)
            raise WordSyntaxError("empty expression", where)
        return WordExpression(tuple(factors))

    def parse_factor(self) -> WordFactor:
        atom = self.parse_atom()
        tok = self.peek()
        if tok and tok[0] == "^":
            self.next()
            exp_tok = self.expect("INT")
            try:
                factor = WordFactor(atom, int(exp_tok[1]))
            except ValueError as exc:
                raise WordSyntaxError(str(exc), exp_tok[2]) from None
            repeats = factor.exponent * _repeats(atom)
            if repeats > MAX_EXPONENT:
                raise WordSyntaxError(
                    f"nested exponents multiply to {repeats}, above {MAX_EXPONENT}", exp_tok[2]
                )
            return factor
        return WordFactor(atom)

    def parse_atom(self):
        tok = self.next()
        kind, text, offset = tok
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise WordSyntaxError(f"groups nested more than {MAX_DEPTH} deep", offset)
            self.depth += 1
            expr = self.parse_expr(inside_group=True)
            self.expect(")")
            self.depth -= 1
            return GroupAtom(expr)
        if kind != "IDENT":
            raise WordSyntaxError(f"unexpected token {text!r}", offset)
        if text == "t":
            return GenAtom(0)
        m = _S_GEN_RE.fullmatch(text)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise WordSyntaxError(f"invalid generator {text!r}", offset)
            return GenAtom(idx)
        if text == "w0":
            return LongestAtom()
        if text in ("w_nk", "c"):
            self.expect("(")
            n_tok = self.expect("INT")
            self.expect(",")
            k_tok = self.expect("INT")
            self.expect(")")
            n, k = int(n_tok[1]), int(k_tok[1])
            return WnkAtom(n, k) if text == "w_nk" else CycleAtom(n, k)
        raise WordSyntaxError(f"unknown token {text!r}", offset)


def _repeats(atom) -> int:
    """How many times evaluation repeats atom's most repeated factor: the
    largest product of the exponents nested inside it, 1 for a token."""
    if not isinstance(atom, GroupAtom):
        return 1
    return max(f.exponent * _repeats(f.atom) for f in atom.expr.factors)


def parse_word(text: str) -> WordExpression:
    """Parse an expression; raises WordSyntaxError with the byte offset on failure."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise WordSyntaxError(f"unexpected token {trailing[1]!r}", trailing[2])
    return expr


def _letters(expr: WordExpression, rank: int) -> list:
    """The expression's letters (0 is t, i >= 1 is s_i): a reduced word per
    token, and a factor's letters repeated once per unit of its exponent.
    Every token is checked against the rank, also under exponent 0."""
    letters = []
    for factor in expr.factors:
        atom = factor.atom
        if isinstance(atom, GroupAtom):
            word = _letters(atom.expr, rank)
        elif isinstance(atom, GenAtom):
            if atom.index > rank - 1 or rank < 1:
                raise ValueError(f"generator {atom} out of range for rank {rank}")
            word = [atom.index]
        elif isinstance(atom, LongestAtom):
            word = identity(rank).negate().reduced_word()
        elif isinstance(atom, WnkAtom):
            if atom.n + atom.k > rank:
                raise ValueError(f"{atom} does not fit in rank {rank}")
            word = make_w_nk(atom.n, atom.k).embed(rank).reduced_word()
        elif isinstance(atom, CycleAtom):
            if atom.n + atom.k + 1 > rank:
                raise ValueError(f"{atom} does not fit in rank {rank}")
            word = make_cycle(atom.n, atom.k).embed(rank).reduced_word()
        else:
            raise TypeError(f"unknown atom {atom!r}")
        letters.extend(word * factor.exponent)
    return letters


def evaluate_word(expr: WordExpression, rank: int) -> HeckeElement:
    """Evaluate the expression in the Hecke algebra of B_rank: one pooled
    fold of the unit along its letters, ``_times_ts(unit(rank), letters)``.
    With no letters the result is the unit.
    """
    return _times_ts(unit(rank), _letters(expr, rank))
