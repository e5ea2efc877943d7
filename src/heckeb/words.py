"""A small parser for word expressions over the Hecke algebra.

Grammar:

    expr   := factor+
    factor := atom ("^" INT)?
    atom   := token | "(" expr ")"

Tokens are the generators ("t", "s1", "s2", ...) and the named elements
"w0" (longest element of the ambient rank), "w_nk(n,k)" and "c(n,k)".
Parsing and printing are mutually inverse on canonical forms; unknown or
malformed input is rejected with the byte offset of the offending token.

Evaluation multiplies the running product by a factor's base once per unit
of its exponent, and the cost of each product grows with the coefficient
degrees, so exponents are capped at MAX_EXPONENT.  At the cap,
``( t s1 s2 )^32`` at rank 3 takes about 1.1 s on a 2-vCPU host, against
12 s for ``^64``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .hecke import HeckeElement, mult, t_of, unit
from .signedperm import generator, identity, make_cycle, make_w_nk

__all__ = [
    "MAX_EXPONENT",
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


@dataclass(frozen=True)
class GenAtom:
    index: int  # 0 is t, i >= 1 is s_i

    def __str__(self):
        return "t" if self.index == 0 else f"s{self.index}"


@dataclass(frozen=True)
class LongestAtom:
    def __str__(self):
        return "w0"


@dataclass(frozen=True)
class WnkAtom:
    n: int
    k: int

    def __str__(self):
        return f"w_nk({self.n},{self.k})"


@dataclass(frozen=True)
class CycleAtom:
    n: int
    k: int

    def __str__(self):
        return f"c({self.n},{self.k})"


@dataclass(frozen=True)
class GroupAtom:
    expr: "WordExpression"

    def __str__(self):
        return f"( {self.expr} )"


MAX_EXPONENT = 32


@dataclass(frozen=True)
class WordFactor:
    atom: object
    exponent: int = 1

    def __post_init__(self):
        if not 0 <= self.exponent <= MAX_EXPONENT:
            raise ValueError(f"exponent {self.exponent} is outside 0..{MAX_EXPONENT}")

    def __str__(self):
        text = str(self.atom)
        return text if self.exponent == 1 else f"{text}^{self.exponent}"


@dataclass(frozen=True)
class WordExpression:
    factors: tuple[WordFactor, ...]

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
                return WordFactor(atom, int(exp_tok[1]))
            except ValueError as exc:
                raise WordSyntaxError(str(exc), exp_tok[2]) from None
        return WordFactor(atom)

    def parse_atom(self):
        tok = self.next()
        kind, text, offset = tok
        if kind == "(":
            expr = self.parse_expr(inside_group=True)
            self.expect(")")
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


def parse_word(text: str) -> WordExpression:
    """Parse an expression; raises WordSyntaxError with the byte offset on failure."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise WordSyntaxError(f"unexpected token {trailing[1]!r}", trailing[2])
    return expr


def _atom_element(atom, rank: int) -> HeckeElement:
    if isinstance(atom, GenAtom):
        if atom.index > rank - 1 or rank < 1:
            raise ValueError(f"generator {atom} out of range for rank {rank}")
        return t_of(generator(atom.index, rank))
    if isinstance(atom, LongestAtom):
        return t_of(identity(rank).negate())
    if isinstance(atom, WnkAtom):
        if atom.n + atom.k > rank:
            raise ValueError(f"{atom} does not fit in rank {rank}")
        return t_of(make_w_nk(atom.n, atom.k).embed(rank))
    if isinstance(atom, CycleAtom):
        if atom.n + atom.k + 1 > rank:
            raise ValueError(f"{atom} does not fit in rank {rank}")
        return t_of(make_cycle(atom.n, atom.k).embed(rank))
    if isinstance(atom, GroupAtom):
        return evaluate_word(atom.expr, rank)
    raise TypeError(f"unknown atom {atom!r}")


def evaluate_word(expr: WordExpression, rank: int) -> HeckeElement:
    """Evaluate the expression in the Hecke algebra of B_rank.

    The product starts from its first factor rather than from the unit, so
    n factors (exponents multiplied out) cost n - 1 products; when every
    exponent is 0 the result is the unit.
    """
    result = None
    for factor in expr.factors:
        base = _atom_element(factor.atom, rank)
        for _ in range(factor.exponent):
            result = base if result is None else mult(result, base)
    return unit(rank) if result is None else result
