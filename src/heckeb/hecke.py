"""Sparse T-basis arithmetic in the Hecke algebra of B_m.

Elements are finite sums sum_w c_w T_w with c_w in Z[p, q], stored as a
mapping from window to coefficient.  The generator T_t carries parameter p,
every T_{s_i} carries q, and the defining relation is
(T_g - 1)(T_g + param(g)) = 0.

The one multiplication kernel is h * T_{x_1} * ... * T_{x_r}: h is folded
along a reduced word of each x_i in turn, and each letter either lengthens
a term's window or splits it by the quadratic relation (Geck & Pfeiffer,
Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000).
``mult`` is linear in its right factor: h1 * h2 is the sum over the terms
c * T_x of h2 of (h1 * T_x) * c, each h1 * T_x a fold with one factor.  A
word expression is one fold of the unit with a factor per maximal reduced
run of its letters (``heckeb.words``).  No multiplication table is ever
materialized, inverses of basis elements are never formed, and
coefficients stay polynomial.

Kernel representation.  Inside one fold windows are ints and coefficients
are ids into a pool of hash-consed BivarPoly term dicts (Filliatre &
Conchon, "Type-safe modular hash-consing", 2006); h is encoded once at the
start and the windows are decoded once, at the end:

- A window is one int with a field of width (2*rank).bit_length() per
  position, holding w(i) + rank, so field order is value order.  s_i swaps
  two fields, t reflects field 0, and a right descent is one field
  comparison.
- A coefficient is a BivarPoly term dict {(pe, qe): int}, pooled as it is,
  with no copy.  The pool gives each distinct dict one id; id 0 is zero.
  Pooled dicts are never changed.  Sums and splits run poly's raw term-dict
  helpers, the same loops as BivarPoly's own arithmetic.
- The fold maps windows to ids.  A move keeps its id.  A descent looks up a
  per-shift memo id -> (id of (1 - param)*c, id of param*c), and a merge
  looks up a memo (a, b) -> id of a + b.  So the per-monomial work runs once
  per distinct operation, not once per term and letter, and only a memo
  miss calls into the pool.
- Fingerprints.  Each pooled dict has a fingerprint: its value at p = X_p,
  q = X_q, two fixed bases, modulo the prime 2^61 - 1.  That is a ring
  homomorphism, so the fingerprint of a sum or a split follows from its
  inputs' in O(1); only the left factor's coefficients are fingerprinted
  monomial by monomial, through a table kept across calls.  A dict's id is
  its fingerprint, or the fingerprint plus the first multiple of the modulus
  whose slot is free or holds an equal dict: a fingerprint hit is always
  confirmed by comparing the dicts, a collision between unequal dicts gets a
  fresh id, and the output stays exact.
- Shared monomials.  A split shifts each monomial through a table
  monomial -> monomial * param kept across calls, so every pooled dict that
  holds a given shifted monomial holds the same tuple.
- Pool lifetime.  One pool serves every factor of a fold.  Between factors
  it keeps only the dicts of the ids the running product holds, and zero,
  and clears the memos, whose entries may name a dropped id.  So the
  intermediate coefficients of a factor live only as long as its own fold,
  as if each factor had its own pool, while the running product is never
  decoded and re-encoded.  A fold with one factor never compacts.
- Decoding.  Each window is decoded per term; each id becomes one BivarPoly
  around its pooled dict, shared by every term that carries it.  BivarPoly is
  never changed in place, so sharing is safe.

Cosets.  The parabolic subgroup B_n x S_k is handled by one closed form per
coset pattern (``_coset_form``): ``distinguished_factor`` splits a window,
``parabolic_decompose`` returns the plain dict {x: component} keyed by the
minimal representatives it builds, and ``trivial_quotient`` reads
membership in B_n x S_k off the same pattern.  The keys are not checked
again; the tests hold them to the Bjorner-Brenti condition on every element
of B_1..B_5.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul

from .poly import ONE, BivarPoly, _iadd_raw, _isub_raw
from .signedperm import SignedPermutation, identity, make_w_nk

__all__ = [
    "HeckeElement",
    "t_of",
    "unit",
    "mult",
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
        """The terms in ``sorted_terms`` order; terms that share a coefficient
        object share its one encoded list, so treat the result as read-only."""
        encoded: dict = {}  # id(c) -> c.to_json(); self keeps every c alive
        terms = []
        for w, c in self.sorted_terms():
            coeff = encoded.get(id(c))
            if coeff is None:
                coeff = encoded[id(c)] = c.to_json()
            terms.append({"w": list(w), "coeff": coeff})
        return {"rank": self.rank, "terms": terms}

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


# -- the multiplication kernel (int windows, pooled coefficients; see above) ---

# The fingerprint of a pooled coefficient is its value at p = _FP_P, q = _FP_Q
# modulo the prime _FP_MODULUS (read at the start of every fold).
_FP_MODULUS = (1 << 61) - 1
_FP_P = 0x2545F4914F6CDD1D
_FP_Q = 0x9E3779B97F4A7C15

# Tables kept across folds.  _FINGERPRINTS holds one table
# {monomial: fingerprint}, under the modulus it was built for; a call under
# another modulus replaces it.  _TIMES_P and _TIMES_Q map a monomial to
# monomial * p and monomial * q, so splits share the shifted tuples.
_FINGERPRINTS: dict = {}
_TIMES_P: dict = {}
_TIMES_Q: dict = {}


class _Pool:
    """The hash-consed coefficient term dicts of one fold.

    ``dicts`` maps each id to a BivarPoly term dict.  A dict's id is its
    fingerprint fp, or fp + j*mod for the first j whose slot is free or holds
    an equal dict, so every id is congruent to its fingerprint modulo
    ``mod`` and a fingerprint hit is always confirmed by ==.  Id 0 is zero.
    Pooled dicts are never changed.  The memos ``sums``, ``split_p`` and
    ``split_q`` map ids to ids; the fold reads them inline and calls a
    method only on a miss.
    """

    __slots__ = ("dicts", "mod", "fingerprints", "fp_p", "fp_q", "sums", "split_p", "split_q")

    def __init__(self):
        mod = _FP_MODULUS
        self.mod = mod
        self.fingerprints = _FINGERPRINTS.get(mod)
        if self.fingerprints is None:
            _FINGERPRINTS.clear()
            self.fingerprints = _FINGERPRINTS[mod] = {}
        self.fp_p = _FP_P % mod
        self.fp_q = _FP_Q % mod
        self.dicts = {0: {}}
        self.sums: dict = {}
        self.split_p: dict = {}
        self.split_q: dict = {}

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
        """The id of a BivarPoly term dict, pooled as it is; the one place
        monomials are fingerprinted."""
        fingerprints, mod = self.fingerprints, self.mod
        fp = 0
        for m, v in terms.items():
            x = fingerprints.get(m)
            if x is None:
                pe, qe = m
                x = fingerprints[m] = pow(self.fp_p, pe, mod) * pow(self.fp_q, qe, mod) % mod
            fp += v * x
        return self.intern(terms, fp % mod)

    def keep(self, ids) -> None:
        """Drop every pooled dict but those of ids and zero, and clear the
        memos, whose entries may name a dropped id."""
        dicts = self.dicts
        kept = self.dicts = {i: dicts[i] for i in ids}
        kept[0] = dicts[0]
        self.sums.clear()
        self.split_p.clear()
        self.split_q.clear()

    def add(self, a: int, b: int) -> int:
        """The id of dicts[a] + dicts[b], memoised under (a, b)."""
        x, y = self.dicts[a], self.dicts[b]
        if len(x) < len(y):
            x, y = y, x
        d = dict(x)
        _iadd_raw(d, y)
        s = self.sums[a, b] = self.intern(d, (a + b) % self.mod)
        return s

    def split(self, c: int, p: bool) -> tuple:
        """The ids of (1 - param) * dicts[c] and param * dicts[c], memoised under c."""
        if p:
            times, memo, fx = _TIMES_P, self.split_p, self.fp_p
        else:
            times, memo, fx = _TIMES_Q, self.split_q, self.fp_q
        src = self.dicts[c]
        try:
            moved = {times[m]: v for m, v in src.items()}
        except KeyError:
            for m in src:
                if m not in times:
                    pe, qe = m
                    times[m] = (pe + 1, qe) if p else (pe, qe + 1)
            moved = {times[m]: v for m, v in src.items()}
        rest = dict(src)
        _isub_raw(rest, moved)
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


def _times_ts(h: HeckeElement, xs) -> HeckeElement:
    """h * T_{x_1} * ... * T_{x_r} in one pool: h is encoded once, folded
    along a reduced word of each x_i in turn and decoded once.

    Between factors the pool keeps only the ids the running product holds
    (``_Pool.keep``), so a factor's intermediate coefficients live as long as
    its own fold.  Well-definedness over the choice of word is a consequence
    of the braid relations (and is exercised by the tests).  The fold runs on
    int windows and pooled coefficient ids, as described in the module
    docstring; h is not changed.
    """
    rank = h.rank
    width = (2 * rank).bit_length()
    shifts = [i * width for i in range(rank)]
    pool = _Pool()
    encoded: dict = {}  # id(BivarPoly) -> pool id; h keeps the objects alive
    windows: dict = {}  # packed window -> h's SignedPermutation
    cur: dict = {}
    for w, c in h._terms.items():
        key = sum((v + rank) << s for v, s in zip(w, shifts))
        windows[key] = w
        i = encoded.get(id(c))
        if i is None:
            i = encoded[id(c)] = pool.encode(c._terms)
        cur[key] = i
    for j, x in enumerate(xs):
        if j:
            pool.keep(cur.values())
        for g in x.reduced_word():
            cur = _fold(cur, g, width, rank, pool)

    # Decode each window per term and each coefficient id once: every term
    # with the same id shares one BivarPoly around the pooled dict.
    mask = (1 << width) - 1
    dicts = pool.dicts
    polys: dict = {}
    out = {}
    for w, c in cur.items():
        poly = polys.get(c)
        if poly is None:
            poly = polys[c] = BivarPoly._raw(dicts[c])
        window = windows.get(w)  # h's windows are already decoded
        if window is None:
            window = tuple.__new__(SignedPermutation, [(w >> s & mask) - rank for s in shifts])
        out[window] = poly
    return HeckeElement._raw(rank, out)


def mult(h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra, linear in h2: the sum over the terms
    c * T_x of h2 of (h1 * T_x) * c.

    Each h1 * T_x is one fold (``_times_ts`` with the one factor x); a right
    factor T_x with coefficient 1 is that fold alone.  Neither factor is
    changed.
    """
    h1._check_rank(h2)
    out = HeckeElement._raw(h1.rank, {})
    for x, c in h2._terms.items():
        term = _times_ts(h1, (x,))
        if c != ONE:
            term = term.scale(c)
        out = out + term if out._terms else term
    return out


# -- parabolic coset machinery ----------------------------------------------------

@lru_cache(maxsize=64)
def _pattern_classes(n: int, k: int) -> tuple:
    """Indexed by a window value v of B_{n+k} (negative v from the end):
    0 if |v| <= n, else the sign of v.  Cached, so it is a tuple."""
    classes = [0] * (2 * (n + k) + 1)
    for v in range(n + 1, n + k + 1):
        classes[v] = 1
        classes[-v] = -1
    return tuple(classes)


@lru_cache(maxsize=256)
def _coset_form(pattern: tuple, n: int) -> tuple:
    """The closed form of the coset (B_n x S_k) w with the given pattern.

    Left multiplication by B_n x S_k permutes the values of absolute value
    at most n among themselves and the larger values without changing their
    signs, so the coset is fixed by its pattern: per position, 0 for a small
    value and else the sign of the value.  The 256 most recent forms are
    cached by (pattern, n), which keeps the memory of a sweep flat; every
    part of the result is immutable.  Returns (x, pick, signs):

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


def parabolic_decompose(
    h: HeckeElement, n: int, k: int
) -> dict[SignedPermutation, HeckeElement]:
    """Regroup h as sum_x (component_x) * T_x over the minimal representatives
    x of the cosets (B_n x S_k) x, returned as {x: component_x}; each
    component is supported on B_n x S_k.

    The factorization is built once per coset pattern (``_coset_form``) and
    applied to each term by C-level maps over its window.
    """
    if h.rank != n + k:
        raise ValueError(f"rank mismatch: {h.rank} vs n + k = {n + k}")
    # a list copy: a list's bound __getitem__ is a faster call than a tuple's
    classify = list(_pattern_classes(n, k)).__getitem__
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
    return {x: HeckeElement._raw(h.rank, terms) for x, terms in buckets.items()}


def trivial_quotient(h: HeckeElement, n: int, k: int) -> HeckeElement:
    """Image of an element supported on B_n x S_k under T_{uv} -> T_u.

    Every support element must factor as u * v with u in B_n and v in S_k
    (the factors commute); the S_k part acts through the trivial character,
    leaving an element of the Hecke algebra of B_n.  Membership is the
    closed form of ``_coset_form``: w lies in B_n x S_k exactly when its
    pattern is (0,)*n + (1,)*k, the pattern of the identity.
    """
    if h.rank != n + k:
        raise ValueError(f"rank mismatch: {h.rank} vs n + k = {n + k}")
    # a list copy: a list's bound __getitem__ is a faster call than a tuple's
    classify = list(_pattern_classes(n, k)).__getitem__
    parabolic = (0,) * n + (1,) * k
    out: dict[SignedPermutation, BivarPoly] = {}
    for w, c in h._terms.items():
        if tuple(map(classify, w)) != parabolic:
            raise ValueError(f"support element {w} is not in B_{n} x S_{k}")
        u = tuple.__new__(SignedPermutation, w[:n])
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
    return parabolic_decompose(square, n, k).get(w, HeckeElement._raw(n + k, {}))
