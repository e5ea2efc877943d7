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

Kernel representation.  Inside one call of ``mult`` windows are ints and
coefficients are ids into a pool of hash-consed int-keyed dicts (Filliatre &
Conchon, "Type-safe modular hash-consing", 2006); the result is decoded to
windows and BivarPoly once, at the end:

- A window is one int with a field of width (2*rank).bit_length() per
  position, holding w(i) + rank, so field order is value order.  s_i swaps
  two fields, t reflects field 0, and a right descent is one field
  comparison.
- A monomial p^a q^b is the int a*S + b, so a shift by q adds 1, a shift by
  p adds S, and multiplying monomials adds keys.  A coefficient is a
  {monomial: int} dict, and the pool gives each distinct dict one id; id 0
  is zero.  Pooled dicts are never changed.
- The fold maps windows to ids.  A move keeps its id.  A descent looks up a
  per-shift memo id -> (id of (1 - param)*c, id of param*c), a merge looks
  up a memo (a, b) -> id of a + b, and the left-times-right coefficient
  products are memoised the same way; a unit right coefficient keeps the
  left id.  So the per-monomial work runs once per distinct operation, not
  once per term and letter, and only a memo miss calls into the pool.
- Fingerprints.  Each pooled dict has a fingerprint: its value at q = X,
  p = X^S modulo the prime 2^61 - 1.  That is a ring homomorphism, so the
  fingerprint of a sum, a product or a split follows from its inputs' in
  O(1); only the factors' coefficients are hashed monomial by monomial.  A
  dict's id is its fingerprint, or the fingerprint plus the first multiple
  of the modulus whose slot is free or holds an equal dict: a fingerprint
  hit is always confirmed by comparing the dicts, a collision between
  unequal dicts gets a fresh id, and the output stays exact.
- Decoding.  Each window is decoded per term; each id becomes one BivarPoly
  shared by every term that carries it, and each distinct monomial one
  (pe, qe) tuple.  BivarPoly is never changed in place, so sharing is safe.

Stride guard.  S = qdeg(h1) + qdeg(h2) + max len(w2) + 1, computed per call.
The product of two coefficients has q-degree at most qdeg(h1) + qdeg(h2),
and each folded letter raises it by at most one, so every q-exponent met
stays below S and never carries into the p-part, which lives in the
unbounded high digits of the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, mul

from .poly import BivarPoly, ONE
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


# -- the multiplication kernel (int keys, pooled coefficients; see above) ------

# The fingerprint of a pooled coefficient is its value at q = _FP_BASE,
# p = _FP_BASE^stride modulo the prime _FP_MODULUS (read at every mult call).
_FP_MODULUS = (1 << 61) - 1
_FP_BASE = 0x2545F4914F6CDD1D


class _Pool:
    """The hash-consed int-keyed coefficients of one ``mult`` call.

    ``dicts`` maps each id to its {monomial: int} dict.  A dict's id is its
    fingerprint fp, or fp + j*mod for the first j whose slot is free or holds
    an equal dict, so every id is congruent to its fingerprint modulo
    ``mod`` and a fingerprint hit is always confirmed by ==.  Id 0 is zero.
    Pooled dicts are never changed.  The memos ``sums``, ``products``,
    ``split_p`` and ``split_q`` map ids to ids; the fold reads them inline
    and calls a method only on a miss.
    """

    __slots__ = (
        "dicts", "mod", "base", "stride", "powers", "one",
        "sums", "products", "split_p", "split_q",
    )

    def __init__(self, stride: int):
        mod = _FP_MODULUS
        self.mod = mod
        self.base = _FP_BASE % mod
        self.stride = stride
        self.dicts = {0: {}}
        self.powers: dict = {}
        self.sums: dict = {}
        self.products: dict = {}
        self.split_p: dict = {}
        self.split_q: dict = {}
        self.one = self.intern({0: 1}, 1 % mod)

    def intern(self, d: dict, fp: int) -> int:
        """The id of d, whose fingerprint is fp."""
        if not d:
            return 0
        dicts = self.dicts
        while True:
            e = dicts.get(fp)
            if e is None:
                dicts[fp] = d
                return fp
            if e == d:
                return fp
            fp += self.mod

    def encode(self, terms: dict) -> int:
        """The id of a BivarPoly term dict; the one place monomials are hashed."""
        if len(terms) == 1 and terms.get((0, 0)) == 1:
            return self.one
        stride, powers, base, mod = self.stride, self.powers, self.base, self.mod
        d = {}
        fp = 0
        for (pe, qe), v in terms.items():
            key = pe * stride + qe
            d[key] = v
            x = powers.get(key)
            if x is None:
                x = powers[key] = pow(base, key, mod)
            fp += v * x
        return self.intern(d, fp % mod)

    def add(self, a: int, b: int) -> int:
        """The id of dicts[a] + dicts[b], memoised under (a, b)."""
        x, y = self.dicts[a], self.dicts[b]
        if len(x) < len(y):
            x, y = y, x
        d = dict(x)
        for key, v in y.items():
            nv = d.get(key, 0) + v
            if nv:
                d[key] = nv
            else:
                del d[key]
        s = self.sums[a, b] = self.intern(d, (a + b) % self.mod)
        return s

    def mul(self, a: int, b: int) -> int:
        """The id of dicts[a] * dicts[b], memoised under (a, b)."""
        x, y = self.dicts[a], self.dicts[b]
        if len(x) < len(y):
            x, y = y, x
        if len(y) == 1:  # a monomial factor shifts keys; no two products meet
            ((kb, vb),) = y.items()
            out = {ka + kb: va * vb for ka, va in x.items()}
        else:
            out = {}
            for ka, va in x.items():
                for kb, vb in y.items():
                    key = ka + kb
                    nv = out.get(key, 0) + va * vb
                    if nv:
                        out[key] = nv
                    else:
                        del out[key]
        s = self.products[a, b] = self.intern(out, a * b % self.mod)
        return s

    def split(self, c: int, p: bool) -> tuple:
        """The ids of (1 - param) * dicts[c] and param * dicts[c], memoised under c."""
        shift, memo = (self.stride, self.split_p) if p else (1, self.split_q)
        fx = self.powers.get(shift)  # the fingerprint of param
        if fx is None:
            fx = self.powers[shift] = pow(self.base, shift, self.mod)
        src = self.dicts[c]
        moved = {key + shift: v for key, v in src.items()}
        rest = dict(src)
        for key, v in moved.items():
            nv = rest.get(key, 0) - v
            if nv:
                rest[key] = nv
            else:
                del rest[key]
        mod = self.mod
        fm = c * fx % mod
        pair = memo[c] = (self.intern(rest, (c - fm) % mod), self.intern(moved, fm))
        return pair


def _fold(terms: dict, g: int, width: int, rank: int, pool: _Pool) -> dict:
    """Right-multiply an int-keyed {window: id} mapping by T_g.

    Length-increasing terms move with their id; the rest split by the
    quadratic relation T_w T_g = param*T_{wg} + (1-param)*T_w with param p
    (g = 0) or q.  Coefficient arithmetic is a memo lookup in ``pool``.
    """
    mask = (1 << width) - 1
    if g == 0:
        low, step = 0, 0
        splits = pool.split_p
    else:
        low = (g - 1) * width
        step = (1 << (low + width)) - (1 << low)
        splits = pool.split_q
    high = low + width
    sums = pool.sums
    p = g == 0
    out: dict = {}
    get = out.get
    for w, c in terms.items():
        if p:
            a = w & mask
            ws = w + 2 * (rank - a)  # w(1) -> -w(1)
            descent = a < rank
        else:
            a = w >> low & mask
            b = w >> high & mask
            ws = w + (a - b) * step  # swap w(g) and w(g+1)
            descent = a > b
        if descent:
            pair = splits.get(c)
            if pair is None:
                pair = pool.split(c, p)
            rest, c = pair  # (1 - param) * c stays at w, param * c moves to ws
            t = get(w)
            if t is None:
                out[w] = rest
            else:
                s = sums.get((t, rest))
                if s is None:
                    s = pool.add(t, rest)
                if s:
                    out[w] = s
                else:
                    del out[w]
        t = get(ws)
        if t is None:
            out[ws] = c
        else:
            s = sums.get((t, c))
            if s is None:
                s = pool.add(t, c)
            if s:
                out[ws] = s
            else:
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
    The fold runs on int keys and pooled coefficient ids, as described in
    the module docstring; neither factor is changed.
    """
    h1._check_rank(h2)
    rank = h1.rank
    if not h1._terms or not h2._terms:
        return HeckeElement._raw(rank, {})
    words = [(w2.reduced_word().letters, c2) for w2, c2 in h2._terms.items()]
    stride = _q_degree(h1) + _q_degree(h2) + max(len(word) for word, _ in words) + 1
    width = (2 * rank).bit_length()
    shifts = [i * width for i in range(rank)]
    pool = _Pool(stride)
    encoded: dict = {}  # id(BivarPoly) -> pool id; the factors keep the objects alive

    def encode(c: BivarPoly) -> int:
        i = encoded.get(id(c))
        if i is None:
            i = encoded[id(c)] = pool.encode(c._terms)
        return i

    windows: dict = {}  # packed window -> the left factor's SignedPermutation
    left: dict = {}
    for w1, c1 in h1._terms.items():
        key = sum((v + rank) << s for v, s in zip(w1, shifts))
        windows[key] = w1
        left[key] = encode(c1)
    products = pool.products
    sums = pool.sums
    acc: dict = {}
    for word, c2 in words:
        r = encode(c2)
        if r == pool.one:
            cur = left
        else:
            cur = {}
            for w1, c1 in left.items():
                c = products.get((c1, r))
                cur[w1] = pool.mul(c1, r) if c is None else c
        for g in word:
            cur = _fold(cur, g, width, rank, pool)
        if not acc and cur is not left:
            acc = cur
            continue
        for w, c in cur.items():
            t = acc.get(w)
            if t is None:
                acc[w] = c
            else:
                s = sums.get((t, c))
                if s is None:
                    s = pool.add(t, c)
                if s:
                    acc[w] = s
                else:
                    del acc[w]

    # Decode each window per term and each coefficient id once: every term
    # with the same id shares one BivarPoly, and each distinct monomial one
    # (pe, qe) tuple.
    mask = (1 << width) - 1
    dicts = pool.dicts
    exponents: dict = {}
    polys: dict = {}
    out = {}
    for w, c in acc.items():
        poly = polys.get(c)
        if poly is None:
            terms = {}
            for key, v in dicts[c].items():
                pq = exponents.get(key)
                if pq is None:
                    pq = exponents[key] = divmod(key, stride)
                terms[pq] = v
            poly = polys[c] = BivarPoly._raw(terms)
        window = windows.get(w)  # the left factor's windows are already decoded
        if window is None:
            window = tuple.__new__(SignedPermutation, [(w >> s & mask) - rank for s in shifts])
        out[window] = poly
    return HeckeElement._raw(rank, out)


# -- parabolic coset machinery ----------------------------------------------------

def _pattern_classes(n: int, k: int) -> list:
    """Indexed by a window value v of B_{n+k} (negative v from the end):
    0 if |v| <= n, else the sign of v."""
    classes = [0] * (2 * (n + k) + 1)
    for v in range(n + 1, n + k + 1):
        classes[v] = 1
        classes[-v] = -1
    return classes


def _coset_form(pattern: tuple, n: int) -> tuple:
    """The closed form of the coset (B_n x S_k) w with the given pattern.

    Left multiplication by B_n x S_k permutes the values of absolute value
    at most n among themselves and the larger values without changing their
    signs, so the coset is fixed by its pattern: per position, 0 for a small
    value and else the sign of the value.  Returns (x, pick, signs):

    - ``pick`` takes the window entries at the small positions in increasing
      order, then at the large positions i in increasing order of the signed
      position sign * i;
    - x, the minimal representative, puts 1..n at the small positions and
      sign * (n + 1), sign * (n + 2), ... at the large ones, in that order
      (its inverse is the form of Bjorner & Brenti, Combinatorics of Coxeter
      Groups, Section 2.4: positive and increasing on 1..n, increasing on
      n+1..n+k);
    - w' = w * x^-1 is ``tuple(map(mul, signs, pick(w)))``: the small values
      in position order, then the absolute large values in signed-position
      order.  length(w) = length(w') + length(x).
    """
    small = [i for i, e in enumerate(pattern) if not e]
    large = sorted((i for i, e in enumerate(pattern) if e), key=lambda i: pattern[i] * (i + 1))
    order = small + large
    signs = (1,) * len(small) + tuple(pattern[i] for i in large)
    x = [0] * len(order)
    for j, i in enumerate(order, start=1):
        x[i] = signs[j - 1] * j
    # itemgetter of one index returns a bare value; below rank 2 order is the identity
    pick = itemgetter(*order) if len(order) > 1 else tuple
    return tuple.__new__(SignedPermutation, x), pick, signs


def distinguished_factor(
    w: SignedPermutation, n: int, k: int
) -> tuple[SignedPermutation, SignedPermutation]:
    """Factor w = w' * x with w' in B_n x S_k and x the minimal coset representative.

    The closed form of ``_coset_form``, applied to the pattern of w.
    """
    if len(w) != n + k:
        raise ValueError(f"rank mismatch: {len(w)} vs n + k = {n + k}")
    x, pick, signs = _coset_form(tuple(map(_pattern_classes(n, k).__getitem__, w)), n)
    return tuple.__new__(SignedPermutation, map(mul, signs, pick(w))), x


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
    """Group the terms of h by their distinguished factorization.

    The factorization is built once per coset pattern (``_coset_form``) and
    applied to each term by C-level maps over its window.
    """
    if h.rank != n + k:
        raise ValueError(f"rank mismatch: {h.rank} vs n + k = {n + k}")
    classify = _pattern_classes(n, k).__getitem__
    forms: dict = {}  # pattern -> (pick, signs, {w': coefficient})
    buckets: dict[SignedPermutation, dict] = {}
    new = tuple.__new__
    for w, c in h._terms.items():
        pattern = tuple(map(classify, w))
        form = forms.get(pattern)
        if form is None:
            x, pick, signs = _coset_form(pattern, n)
            form = forms[pattern] = (pick, signs, buckets.setdefault(x, {}))
        pick, signs, terms = form
        terms[new(SignedPermutation, map(mul, signs, pick(w)))] = c
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
