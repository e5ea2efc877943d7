"""Exact arithmetic in Z[p, q], the coefficient ring of the Hecke algebra.

Polynomials are sparse maps (p-exponent, q-exponent) -> integer with no
stored zeros.  Coefficients are Python ints, so every operation is exact at
arbitrary precision.  A polynomial's term dict is never changed in place, so
dicts may be shared: the Hecke multiplication kernel pools these same dicts
and runs the raw add and subtract helpers on them.  Specializing q at a
primitive k-th root of unity is done symbolically, by reducing modulo the
k-th cyclotomic polynomial; floating-point roots never appear.

Printing and JSON use graded-lex term order: ascending total degree, then
ascending p-exponent.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = [
    "BivarPoly",
    "CyclotomicModulus",
    "P",
    "Q",
    "ONE",
    "ZERO",
    "cyclotomic",
    "reduce_mod_cyclotomic",
]


# -- raw term-dict helpers (the Hecke kernel shares _iadd_raw and _isub_raw) --

def _iadd_raw(dst: dict, src: dict) -> None:
    """dst += src in place, pruning zero entries; src holds no zeros."""
    for key, v in src.items():
        nv = dst.get(key, 0) + v
        if nv:
            dst[key] = nv
        else:
            del dst[key]


def _isub_raw(dst: dict, src: dict) -> None:
    """dst -= src in place, pruning zero entries; src holds no zeros."""
    for key, v in src.items():
        nv = dst.get(key, 0) - v
        if nv:
            dst[key] = nv
        else:
            del dst[key]


def _mul_raw(a: dict, b: dict) -> dict:
    """The term dict of a * b; neither input is changed.

    The first term of the shorter factor shifts every key of the longer one,
    so that row is built in one pass with no collisions; a monomial factor
    needs nothing more.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {}
    rows = iter(b.items())
    (pb, qb), cb = next(rows)
    out = {(pa + pb, qa + qb): ca * cb for (pa, qa), ca in a.items()}
    for (pb, qb), cb in rows:
        for (pa, qa), ca in a.items():
            key = (pa + pb, qa + qb)
            nv = out.get(key, 0) + ca * cb
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def _term_order(item):
    (pe, qe), _ = item
    return (pe + qe, pe)


class BivarPoly:
    """An integer polynomial in the two Hecke parameters p and q."""

    __slots__ = ("_terms",)

    def __init__(self, terms=0):
        if type(terms) is int:  # a bool, like a float, is refused below
            self._terms = {(0, 0): terms} if terms else {}
            return
        if isinstance(terms, BivarPoly):
            self._terms = dict(terms._terms)
            return
        clean = {}
        for key, c in dict(terms).items():
            pe, qe = key
            if type(pe) is not int or type(qe) is not int or pe < 0 or qe < 0:
                raise ValueError(f"exponents {key} are not nonnegative ints")
            if type(c) is not int:  # a bool would be stored as itself
                raise TypeError(f"coefficient {c!r} is not an int")
            if c:
                clean[(pe, qe)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "BivarPoly":
        """Wrap an already-canonical term dict without copying."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def monomial(cls, coeff: int, p_exp: int = 0, q_exp: int = 0) -> "BivarPoly":
        return cls({(p_exp, q_exp): coeff})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        _iadd_raw(out, other._terms)
        return BivarPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        _isub_raw(out, other._terms)
        return BivarPoly._raw(out)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return BivarPoly._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return BivarPoly._raw(_mul_raw(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    # -- queries --------------------------------------------------------------

    def terms(self):
        """Terms ((p_exp, q_exp), coeff) in graded-lex order."""
        return sorted(self._terms.items(), key=_term_order)

    def coefficient(self, p_exp: int, q_exp: int) -> int:
        return self._terms.get((p_exp, q_exp), 0)

    def specialize(self, p_val: int, q_val: int) -> int:
        """Exact evaluation at integer parameter values."""
        return sum(c * p_val**pe * q_val**qe for (pe, qe), c in self._terms.items())

    # -- formatting -------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for (pe, qe), c in self.terms():
            factors = []
            if abs(c) != 1 or (pe == 0 and qe == 0):
                factors.append(str(abs(c)))
            if pe:
                factors.append("p" if pe == 1 else f"p^{pe}")
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            mono = "*".join(factors)
            if not pieces:
                pieces.append(mono if c > 0 else "-" + mono)
            else:
                pieces.append((" + " if c > 0 else " - ") + mono)
        return "".join(pieces)

    def __repr__(self):
        return f"BivarPoly({self})"

    def to_json(self) -> list[dict]:
        return [
            {"p": pe, "q": qe, "c": str(c)} for (pe, qe), c in self.terms()
        ]

    @classmethod
    def from_json(cls, data) -> "BivarPoly":
        """The inverse of ``to_json``.  Exponents must be ints; a coefficient
        an int or the decimal string ``to_json`` writes.  A bool, a float or
        any other string raises ValueError rather than being truncated."""
        terms = {(t["p"], t["q"]): _coefficient_from_json(t["c"]) for t in data}
        if len(terms) != len(data):
            raise ValueError("a monomial is listed twice")
        return cls(terms)


_DECIMAL = re.compile(r"-?[1-9][0-9]*|0")


def _coefficient_from_json(c) -> int:
    if type(c) is int or (type(c) is str and _DECIMAL.fullmatch(c)):
        return int(c)
    raise ValueError(f"coefficient {c!r} is neither an int nor its decimal string")


def _coerce(value):
    if isinstance(value, BivarPoly):
        return value
    if type(value) is int:
        return BivarPoly(value)
    return None


ZERO = BivarPoly(0)
ONE = BivarPoly(1)
P = BivarPoly.monomial(1, 1, 0)
Q = BivarPoly.monomial(1, 0, 1)


class _Frozen:
    """An immutable record.  A subclass names its fields in ``__slots__`` and
    sets them in its own ``__init__`` with ``object.__setattr__``.  A record
    is equal only to a record of its own class with equal fields, and its
    hash is that of its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CyclotomicModulus(_Frozen):
    """The k-th cyclotomic polynomial, ascending coefficients in q, monic."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: tuple[int, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_poly(self) -> BivarPoly:
        return BivarPoly({(0, e): c for e, c in enumerate(self.coeffs)})

    def __str__(self):
        return str(self.as_poly())


def _divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of univariate integer polynomials (den monic)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> CyclotomicModulus:
    """The k-th cyclotomic polynomial, by dividing q^k - 1 by all proper ones."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    for d in range(1, k):
        if k % d == 0:
            num = _divide_exact(num, cyclotomic(d).coeffs)
    return CyclotomicModulus(k, tuple(num))


def reduce_mod_cyclotomic(a: BivarPoly, mod: CyclotomicModulus) -> BivarPoly:
    """Remainder of a modulo phi_k(q), as a polynomial in q over Z[p].

    The result has q-degree below deg(phi_k) and is congruent to ``a``;
    reduction is a ring homomorphism onto Z[p][q]/(phi_k).
    """
    deg = mod.degree
    rows: dict[int, dict[int, int]] = {}
    for (pe, qe), c in a._terms.items():
        rows.setdefault(qe, {})[pe] = c
    while rows:
        e = max(rows)
        if e < deg:
            break
        top = rows.pop(e)
        # q^e = q^(e-deg) * q^deg with q^deg = -sum_{j<deg} phi_j q^j
        for j, phi_j in enumerate(mod.coeffs[:-1]):
            if not phi_j:
                continue
            tgt = rows.setdefault(e - deg + j, {})
            for pe, c in top.items():
                nv = tgt.get(pe, 0) - phi_j * c
                if nv:
                    tgt[pe] = nv
                else:
                    del tgt[pe]
            if not tgt:
                del rows[e - deg + j]
    out = {}
    for qe, row in rows.items():
        for pe, c in row.items():
            out[(pe, qe)] = c
    return BivarPoly._raw(out)

