"""Sparse T-basis arithmetic in the Hecke algebra of B_m.

Elements are finite sums sum_w c_w T_w with c_w in Z[p, q], stored as a
mapping from window to coefficient.  The generator T_t carries parameter p,
every T_{s_i} carries q, and the defining relation is
(T_g - 1)(T_g + param(g)) = 0.

Products are computed by expanding the right factor basis element by basis
element along a reduced word and folding single-generator multiplications
into the left factor, so no multiplication tables are ever materialized.
Left multiplication by a generator goes through the anti-automorphism
iota: T_w -> T_{w^-1}, as T_g h = iota(iota(h) T_g), so the right fold is the
only multiplication kernel.  Inverses of basis elements are never formed;
coefficients stay polynomial.

Kernel representation.  Inside one call of ``mult`` everything is keyed by
ints, and the result is decoded to windows and BivarPoly once, at the end:

- A window is one int with a field of width (2*rank).bit_length() per
  position, holding w(i) + rank, so field order is value order.  s_i swaps
  two fields, t reflects field 0, and a right descent is one field
  comparison.
- A monomial p^a q^b is the int a*S + b, so a shift by q adds 1, a shift by
  p adds S, and multiplying monomials adds keys.  Coefficients are
  {monomial: int} dicts that the fold owns and updates in place; the
  factors' own dicts are only read.

Stride guard.  S = qdeg(h1) + qdeg(h2) + max len(w2) + 1, computed per call.
The product of two coefficients has q-degree at most qdeg(h1) + qdeg(h2),
and each folded letter raises it by at most one, so every q-exponent met
stays below S and never carries into the p-part, which lives in the
unbounded high digits of the key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import BivarPoly, ONE, _iadd_raw
from .signedperm import SignedPermutation, generator, identity, make_w_nk

__all__ = [
    "HeckeElement",
    "ParabolicDecomposition",
    "t_of",
    "unit",
    "mult",
    "mult_simple_right",
    "mult_simple_left",
    "distinguished_factor",
    "parabolic_decompose",
    "trivial_quotient",
    "z_coefficient",
]


def _sort_key(w: SignedPermutation):
    return (w.length(), tuple(w))


class HeckeElement:
    """A sparse element sum_w c_w T_w of the Hecke algebra of B_rank."""

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms=None):
        clean: dict[SignedPermutation, BivarPoly] = {}
        for w, c in dict(terms or {}).items():
            if not isinstance(w, SignedPermutation):
                w = SignedPermutation(w)
            if len(w) != rank:
                raise ValueError(f"term {w} has rank {len(w)}, element has rank {rank}")
            c = c if isinstance(c, BivarPoly) else BivarPoly(c)
            if c:
                clean[w] = c
        self.rank = rank
        self._terms = clean

    @classmethod
    def _raw(cls, rank: int, terms: dict) -> "HeckeElement":
        self = object.__new__(cls)
        self.rank = rank
        self._terms = terms
        return self

    # -- module structure ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_rank(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                del out[w]
        return HeckeElement._raw(self.rank, out)

    def __sub__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElement":
        c = c if isinstance(c, BivarPoly) else BivarPoly(c)
        if not c:
            return HeckeElement._raw(self.rank, {})
        return HeckeElement._raw(
            self.rank, {w: cw * c for w, cw in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return mult(self, other)
        if isinstance(other, (BivarPoly, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (BivarPoly, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    # -- queries ----------------------------------------------------------------

    def support(self):
        return self._terms.keys()

    def coefficient(self, w) -> BivarPoly:
        if not isinstance(w, SignedPermutation):
            w = SignedPermutation(w)
        return self._terms.get(w, BivarPoly(0))

    def sorted_terms(self):
        """Terms (w, coeff) ordered by length(w), then lexicographic window."""
        return sorted(self._terms.items(), key=lambda wc: _sort_key(wc[0]))

    def map_coefficients(self, fn) -> "HeckeElement":
        out = {}
        for w, c in self._terms.items():
            nc = fn(c)
            if nc:
                out[w] = nc
        return HeckeElement._raw(self.rank, out)

    def specialize(self, p_val: int, q_val: int) -> dict[SignedPermutation, int]:
        """Evaluate every coefficient at integer parameters; drops zeros."""
        out = {}
        for w, c in self._terms.items():
            v = c.specialize(p_val, q_val)
            if v:
                out[w] = v
        return out

    # -- formatting ----------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*T{w}" for w, c in self.sorted_terms())

    def __repr__(self):
        return f"HeckeElement(rank={self.rank}, {len(self._terms)} terms)"

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"w": list(w), "coeff": c.to_json()} for w, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "HeckeElement":
        terms = {
            SignedPermutation(t["w"]): BivarPoly.from_json(t["coeff"])
            for t in data["terms"]
        }
        return cls(int(data["rank"]), terms)


def unit(rank: int) -> HeckeElement:
    return HeckeElement._raw(rank, {identity(rank): ONE})


def t_of(w: SignedPermutation) -> HeckeElement:
    """The basis element T_w."""
    if not isinstance(w, SignedPermutation):
        w = SignedPermutation(w)
    return HeckeElement._raw(len(w), {w: ONE})


# -- the multiplication kernel (int keys; see the module docstring) -------------

def _mul_coeffs(a: dict, b: dict) -> dict:
    """The product of two int-keyed coefficients, as a new dict."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = ka + kb
            nv = out.get(key, 0) + va * vb
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def _fold(terms: dict, g: int, width: int, rank: int, stride: int) -> dict:
    """Right-multiply an int-keyed {window: coeff} mapping by T_g, consuming it.

    Length-increasing terms move; the rest split by the quadratic relation
    T_w T_g = param*T_{wg} + (1-param)*T_w with param p (g = 0) or q.
    """
    mask = (1 << width) - 1
    if g == 0:
        shift = stride  # p
        low, step = 0, 0
    else:
        shift = 1  # q
        low = (g - 1) * width
        step = (1 << (low + width)) - (1 << low)
    high = low + width
    out: dict = {}
    get = out.get
    for w, c in terms.items():
        if g == 0:
            a = w & mask
            ws = w + 2 * (rank - a)  # w(1) -> -w(1)
            descent = a < rank
        else:
            a = w >> low & mask
            b = w >> high & mask
            ws = w + (a - b) * step  # swap w(g) and w(g+1)
            descent = a > b
        if not descent:
            tgt = get(ws)
            if tgt is None:
                out[ws] = c
            else:
                _iadd_raw(tgt, c)
                if not tgt:
                    del out[ws]
            continue
        shifted = {key + shift: v for key, v in c.items()}
        for key, v in shifted.items():  # c becomes (1 - param) * c
            nv = c.get(key, 0) - v
            if nv:
                c[key] = nv
            else:
                del c[key]
        tgt = get(w)
        if tgt is None:
            if c:
                out[w] = c
        else:
            _iadd_raw(tgt, c)
            if not tgt:
                del out[w]
        tgt = get(ws)
        if tgt is None:
            out[ws] = shifted
        else:
            _iadd_raw(tgt, shifted)
            if not tgt:
                del out[ws]
    return out


def mult_simple_right(h: HeckeElement, g: int) -> HeckeElement:
    """h * T_g for a single generator index g."""
    if not 0 <= g < h.rank:
        raise ValueError(f"generator index {g} invalid for rank {h.rank}")
    return mult(h, t_of(generator(g, h.rank)))


def mult_simple_left(g: int, h: HeckeElement) -> HeckeElement:
    """T_g * h, computed as iota(iota(h) * T_g) with iota: T_w -> T_{w^-1}."""
    return _iota(mult_simple_right(_iota(h), g))


def _iota(h: HeckeElement) -> HeckeElement:
    """The anti-automorphism T_w -> T_{w^-1}; it fixes coefficients."""
    return HeckeElement._raw(h.rank, {w.inverse(): c for w, c in h._terms.items()})


def _q_degree(h: HeckeElement) -> int:
    return max((qe for c in h._terms.values() for _, qe in c._terms), default=0)


def mult(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra.

    Expands each basis element of h2 along a reduced word and folds the
    generators into h1; well-definedness over the choice of word is a
    consequence of the braid relations (and is exercised by the tests).
    The fold runs on int keys with the per-call stride described in the
    module docstring; neither factor is changed.
    """
    h1._check_rank(h2)
    rank = h1.rank
    if not h1._terms or not h2._terms:
        return HeckeElement._raw(rank, {})
    words = [(w2.reduced_word().letters, c2) for w2, c2 in h2._terms.items()]
    stride = _q_degree(h1) + _q_degree(h2) + max(len(word) for word, _ in words) + 1
    width = (2 * rank).bit_length()
    shifts = [i * width for i in range(rank)]

    def monomials(c: BivarPoly) -> dict:
        return {pe * stride + qe: v for (pe, qe), v in c._terms.items()}

    left = [
        (sum((v + rank) << s for v, s in zip(w1, shifts)), monomials(c1))
        for w1, c1 in h1._terms.items()
    ]
    acc: dict = {}
    for word, c2 in words:
        right = monomials(c2)
        cur = {}
        for w1, c1 in left:
            prod = _mul_coeffs(c1, right)
            if prod:
                cur[w1] = prod
        for g in word:
            cur = _fold(cur, g, width, rank, stride)
        if not acc:
            acc = cur
            continue
        for w, c in cur.items():
            tgt = acc.get(w)
            if tgt is None:
                acc[w] = c
            else:
                _iadd_raw(tgt, c)
                if not tgt:
                    del acc[w]

    # Decode once, popping as we go so the int-keyed form is freed while the
    # BivarPoly form is built; each distinct monomial gets one shared tuple.
    mask = (1 << width) - 1
    exponents: dict = {}
    out = {}
    while acc:
        w, c = acc.popitem()
        poly = {}
        for key, v in c.items():
            pq = exponents.get(key)
            if pq is None:
                pq = exponents[key] = divmod(key, stride)
            poly[pq] = v
        window = [(w >> s & mask) - rank for s in shifts]
        out[tuple.__new__(SignedPermutation, window)] = BivarPoly._raw(poly)
    return HeckeElement._raw(rank, out)


# -- parabolic coset machinery ----------------------------------------------------

def distinguished_factor(
    w: SignedPermutation, n: int, k: int
) -> tuple[SignedPermutation, SignedPermutation]:
    """Factor w = w' * x with w' in B_n x S_k and x the minimal coset representative.

    Closed form (Bjorner & Brenti, Combinatorics of Coxeter Groups, Section 2.4):
    x^-1 is the minimal element of the left coset w^-1 (B_n x S_k), which
    right multiplication by the parabolic makes positive and increasing on
    positions 1..n and increasing on positions n+1..n+k.  So x^-1 is w^-1
    with its first n entries made positive and sorted and its last k entries
    sorted, and w' = w * x^-1.  length(w) = length(w') + length(x).
    """
    if len(w) != n + k:
        raise ValueError(f"rank mismatch: {len(w)} vs n + k = {n + k}")
    inv = w.inverse()
    x_inv = SignedPermutation(
        sorted(abs(v) for v in inv[:n]) + sorted(inv[n:]), check=False
    )
    return w * x_inv, x_inv.inverse()


def is_distinguished(x: SignedPermutation, n: int, k: int) -> bool:
    """True iff x is the minimal-length element of its coset (B_n x S_k) x.

    That is, x is its own closed-form representative (Bjorner & Brenti, Section 2.4):
    x^-1 is positive and increasing on positions 1..n and increasing on
    positions n+1..n+k.
    """
    return distinguished_factor(x, n, k)[1] == x


@dataclass(frozen=True)
class ParabolicDecomposition:
    """A Hecke element regrouped as sum_x (component_x) * T_x over coset representatives.

    Components are supported on the parabolic subgroup B_n x S_k; keys are
    checked to be distinguished representatives on construction.
    """

    n: int
    k: int
    components: dict[SignedPermutation, HeckeElement]

    def __post_init__(self):
        for x in self.components:
            if not is_distinguished(x, self.n, self.k):
                raise ValueError(f"{x} is not a distinguished representative")


def parabolic_decompose(h: HeckeElement, n: int, k: int) -> ParabolicDecomposition:
    """Group the terms of h by their distinguished factorization."""
    if h.rank != n + k:
        raise ValueError(f"rank mismatch: {h.rank} vs n + k = {n + k}")
    buckets: dict[SignedPermutation, dict] = {}
    for w, c in h._terms.items():
        wprime, x = distinguished_factor(w, n, k)
        buckets.setdefault(x, {})[wprime] = c
    return ParabolicDecomposition(
        n, k, {x: HeckeElement._raw(h.rank, terms) for x, terms in buckets.items()}
    )


def trivial_quotient(h: HeckeElement, n: int, k: int) -> HeckeElement:
    """Image of an element supported on B_n x S_k under T_{uv} -> T_u.

    Every support element must factor as u * v with u in B_n and v in S_k
    (the factors commute); the S_k part acts through the trivial character,
    leaving an element of the Hecke algebra of B_n.
    """
    if h.rank != n + k:
        raise ValueError(f"rank mismatch: {h.rank} vs n + k = {n + k}")
    out: dict[SignedPermutation, BivarPoly] = {}
    for w, c in h._terms.items():
        if any(abs(w[i]) > n for i in range(n)) or any(
            w[i] <= n for i in range(n, n + k)
        ):
            raise ValueError(f"support element {w} is not in B_{n} x S_{k}")
        u = SignedPermutation(w[:n], check=False)
        s = out.get(u)
        s = c if s is None else s + c
        if s:
            out[u] = s
        else:
            del out[u]
    return HeckeElement._raw(n, out)


def z_coefficient(n: int, k: int) -> HeckeElement:
    """The coefficient of T_{w_{n,k}} in the coset decomposition of T_{w_{n,k}}^2.

    Returned as an element of the ambient algebra supported on B_n x S_k.
    """
    w = make_w_nk(n, k)
    square = mult(t_of(w), t_of(w))
    dec = parabolic_decompose(square, n, k)
    return dec.components.get(w, HeckeElement._raw(n + k, {}))
