"""Sparse T-basis arithmetic in the Hecke algebra of B_m.

Elements are finite sums sum_w c_w T_w with c_w in Z[p, q], stored as a
mapping from window to coefficient.  The generator T_t carries parameter p,
every T_{s_i} carries q, and the defining relation is
(T_g - 1)(T_g + param(g)) = 0.

The one multiplication kernel is h * T_{g_1} * ... * T_{g_L} for generator
letters g_1 ... g_L, reduced or not: each letter either lengthens a term's
window or splits it by the quadratic relation (Geck & Pfeiffer, Characters
of Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000).  ``mult`` is
linear in its right factor: h1 * h2 is the sum over the terms c * T_x of h2
of (h1 * T_x) * c, each h1 * T_x a fold along a reduced word of x.  A word
expression is one fold of the unit along its own letters
(``heckeb.words``).  No multiplication table is ever materialized, inverses
of basis elements are never formed, and coefficients stay polynomial.

Kernel representation.  Inside one fold windows are ints and coefficients
are ids into a pool of hash-consed BivarPoly term dicts (Filliatre &
Conchon, "Type-safe modular hash-consing", 2006); h is encoded once at the
start and the windows are decoded once, at the end:

- A window is one int key with a whole-byte field per position (one byte
  below rank 128, then two, four or eight).  A field of W bits holds
  v - 1 + 2^(W-1) for a value v > 0 and v + 2^(W-1) for v < 0, so field
  order is value order and the complement of a field holds -v.
- The signed position frame.  A key is never re-keyed as the fold moves
  its term.  One frame (pos, neg) per fold says which field holds each
  window position and whether it is read complemented: the key u stands
  for the window i -> field pos[i] of u, complemented where neg[i] is set.
  A letter moves every term from w to wg by changing the frame alone: s_i
  swaps two entries of (pos, neg) and t complements neg[0], O(rank) per
  letter and nothing per term.  A right descent is one field comparison
  read through the frame, so a letter that lengthens a term writes nothing.
- A coefficient is a BivarPoly term dict {(pe, qe): int}, pooled as it is,
  with no copy.  The pool gives each distinct dict one id; id 0 is zero.
  Pooled dicts are never changed.  Sums and splits run poly's raw term-dict
  helpers, the same loops as BivarPoly's own arithmetic.
- The fold maps keys to ids.  An ascent keeps its key and id.  A descent
  looks up a per-shift memo id -> (id of (1 - param)*c, id of param*c): its
  key takes the id of param*c, and (1 - param)*c is added at the partner
  key, the one that stands for w once the frame has moved.  A merge looks
  up a memo (a, b) -> id of a + b.  So the per-monomial work runs once per
  distinct operation, not once per term and letter, and only a memo miss
  calls into the pool.
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
- Pool lifetime.  One pool serves every letter of a fold.  After each
  letter, once the pool has grown past twice the size its last compaction
  left, it keeps only the dicts of the ids the running product holds, and
  zero, and drops only the memo entries that name a dropped id.  The factor
  2 makes compaction amortised O(1) per pooled dict.  So however long the
  word is, the pool holds at most twice what its last compaction left, plus
  one letter's new dicts, and the running product is never decoded and
  re-encoded.
- Decoding.  The pool keeps only the live dicts, and each id becomes one
  BivarPoly around its pooled dict, shared by every term that carries it;
  BivarPoly is never changed in place, so sharing is safe.  The {key: id}
  table is then traded for a coefficient list and one buffer of every
  key's field bytes, built in bounded chunks, so the key ints are freed
  before any tuple is built.  The frame is applied once: position i reads
  field column pos[i] of the buffer, a strided C-level pass that maps each
  field to one of the 2*rank int objects -rank..-1, 1..rank (complemented
  where the frame says so), so every decoded window shares them, where a
  fresh int per entry below -5 would cost 28 bytes.  The field bytes of each
  value and the two field tables are built once per rank and field size
  and cached (``_window_codec``).

Cosets.  The parabolic subgroup B_n x S_k is handled by one closed form per
coset pattern (``_coset_form``): ``distinguished_factor`` splits a window,
``parabolic_decompose`` returns the plain dict {x: component} keyed by the
minimal representatives it builds, and ``trivial_quotient`` reads
membership in B_n x S_k off the same pattern.  The components share one
window per element of B_n x S_k: equal keys of different components are
one object.  The keys are not checked again; the tests hold them to the
Bjorner-Brenti condition on every element of B_1..B_5.

Pruned products.  Every fold is bucketed by coset pattern.  Right
multiplication by T_g sends a term with pattern P to P or to P * g
(``_pattern_times``): at each letter a bucket's label P becomes P * g, and
the (1 - param) parts of its descents go to the bucket labelled P after the
letter.  A side that cannot reach a named coset (``mult``'s ``cosets``) by
the end of the word is never written: a bucket whose new label is dead is
dropped with its ascents, and a dead label P gets no rests.  What can reach
them is one dict per fold, the last-live index {pattern: the last letter
index from which the pattern can still reach a named coset}
(``_last_live``), built backwards along the word with each pattern entered
once: one dict lookup per bucket, not per term.  Only the named cosets'
terms are decoded.  The whole product is the one bucket of the trivial
split B_rank x S_0, whose index has one entry, updated in place.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain, islice, repeat
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
    """A sparse element sum_w c_w T_w of the Hecke algebra of B_rank.  Its
    text formats each distinct coefficient object once (``_formatted_terms``)."""

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
        if len(w) != self.rank:
            raise ValueError(f"window {w} has rank {len(w)}, element has rank {self.rank}")
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

    def _formatted_terms(self, fmt):
        """(w, fmt(c)) in ``sorted_terms`` order, with fmt called once per
        distinct coefficient object: a product's terms share few of them."""
        done: dict = {}  # id(c) -> fmt(c); self keeps every c alive
        for w, c in self.sorted_terms():
            text = done.get(id(c))
            if text is None:
                text = done[id(c)] = fmt(c)
            yield w, text

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*T{w}" for w, c in self._formatted_terms(str))

    def __repr__(self):
        return f"HeckeElement(rank={self.rank}, {len(self._terms)} terms)"

    def to_json(self) -> dict:
        """The terms in ``sorted_terms`` order; terms that share a coefficient
        object share its one encoded list, so treat the result as read-only."""
        terms = self._formatted_terms(BivarPoly.to_json)
        return {"rank": self.rank, "terms": [{"w": list(w), "coeff": c} for w, c in terms]}

    def _json_chunks(self, newline: str, encode):
        """The text of json.dumps(self.to_json(), indent=2) where ``newline``
        (a newline and the indent) starts the element's lines, one chunk per
        term, with no payload built.  ``encode(o, newline)`` yields the text
        of a JSON value o; it runs once per distinct coefficient object."""
        i1, i2, i3, i4 = (newline + "  " * d for d in range(1, 5))
        head = f'{{{i1}"rank": {self.rank},{i1}"terms": '
        if not self._terms:
            yield f"{head}[]{newline}}}"
            return
        terms = self._formatted_terms(lambda c: "".join(encode(c.to_json(), i3)))
        sep, comma = head + "[" + i2, "," + i4
        for w, text in terms:
            window = f"[{i4}{comma.join(map(str, w))}{i3}]" if w else "[]"
            yield f'{sep}{{{i3}"w": {window},{i3}"coeff": {text}{i2}}}'
            sep = "," + i2
        yield f"{i1}]{newline}}}"

    @classmethod
    def from_json(cls, data) -> "HeckeElement":
        terms = {
            SignedPermutation(t["w"]): BivarPoly.from_json(t["coeff"])
            for t in data["terms"]
        }
        if len(terms) != len(data["terms"]):
            raise ValueError("a window is listed twice")
        rank = data["rank"]
        if type(rank) is not int:  # a bool or a float is refused, not truncated
            raise ValueError(f"rank {rank!r} is not an int")
        return cls(rank, terms)


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
        """Drop every pooled dict but those of ids and zero, and every memo
        entry that names a dropped id; the other entries stay."""
        live = set(ids)
        live.add(0)
        dicts = self.dicts
        self.dicts = {i: dicts[i] for i in live}
        self.sums = {ab: s for ab, s in self.sums.items() if s in live and live.issuperset(ab)}
        self.split_p = {
            c: pair for c, pair in self.split_p.items() if c in live and live.issuperset(pair)
        }
        self.split_q = {
            c: pair for c, pair in self.split_q.items() if c in live and live.issuperset(pair)
        }

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


# memoryview codes of the unsigned whole-byte field widths a window may use
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=64)
def _window_codec(rank: int, size: int) -> tuple:
    """The window codec of a rank with fields of ``size`` bytes, built once
    per (rank, size) and cached, as every part is immutable or never
    changed.  Returns (width, fields, code, canonical, negated):

    - a field of ``width`` bits holds v - 1 + 2^(width-1) for a value v > 0
      and v + 2^(width-1) for v < 0, so field order is value order and the
      complement of a field's bits holds -v; ``fields`` maps each value
      -rank..rank but 0 to the little-endian bytes of its field;
    - ``memoryview.cast(code)`` reads the fields of little-endian window
      bytes as unsigned ints, ``canonical`` maps each such field to its
      value and ``negated`` to minus its value: the same one int object per
      value, shared by every decoded window.  (The keys are the fields as a
      native memoryview reads them, so the tables are right on either byte
      order.)
    """
    width = 8 * size
    zero, mask = 1 << (width - 1), (1 << width) - 1
    fields = {v: (v + zero - (v > 0)).to_bytes(size, "little") for v in range(-rank, rank + 1) if v}
    canonical = {int.from_bytes(f, sys.byteorder): v for v, f in fields.items()}
    negated = {f: canonical[f ^ mask] for f in canonical}
    return width, fields, _FIELD_CODES[size], canonical, negated


def _times_ts(h: HeckeElement, letters, cosets=None) -> HeckeElement:
    """h * T_{g_1} * ... * T_{g_L} in one pool, for generator letters g_i
    (0 is t, i >= 1 is s_i), reduced or not: h is encoded once, folded
    along the letters through the signed position frame of the module
    docstring, and decoded once.  h is not changed.

    At letter g, s_g compares window positions g and g + 1, and t compares
    position 1 with its own negation.  A descent's partner key, where
    (1-param)*c goes, has the two fields swapped, and complemented when
    their signs in the frame differ (for t, field pos[0] complemented).
    Before the frame moves it stands for wg, an ascent, so no key is split
    twice in one letter.

    The pool is compacted (``_Pool.keep``) after any letter that leaves it
    past twice its size after the last compaction, at an amortised O(1)
    cost per pooled dict.

    ``cosets=(n, k, patterns)`` keeps only the terms whose coset pattern is
    one of ``patterns``, bucketed {pattern: {key: id}} as the module
    docstring describes.  A side whose pattern the last-live index
    (``_last_live``) does not map above the letter's index j (counted from
    0) is never written, and a term of h whose pattern the index lacks is
    never encoded.  The default is the trivial split B_rank x S_0, whose one
    pattern is all zeros and is fixed by every letter: its one bucket is the
    whole product, updated in place.
    """
    rank = h.rank
    size = next((n for n in _FIELD_CODES if rank < 1 << (8 * n - 1)), None)
    if size is None:
        raise ValueError(f"rank {rank} does not fit in a window field")
    width, fields, code, canonical, negated = _window_codec(rank, size)
    mask = (1 << width) - 1
    n, k, patterns = cosets if cosets is not None else (rank, 0, {(0,) * rank})
    classify = _pattern_classes(n, k).__getitem__
    live = _last_live(patterns, letters)
    pool = _Pool()
    encoded: dict = {}  # id(BivarPoly) -> pool id; h keeps the objects alive
    buckets: dict = {}  # pattern -> {key: id}
    field = fields.__getitem__
    for w, c in h._terms.items():
        pattern = tuple(map(classify, w))
        if pattern not in live:
            continue
        i = encoded.get(id(c))
        if i is None:
            i = encoded[id(c)] = pool.encode(c._terms)
        buckets.setdefault(pattern, {})[int.from_bytes(b"".join(map(field, w)), "little")] = i
    pos, neg = list(range(rank)), [0] * rank  # the frame
    limit = 2 * len(pool.dicts)
    live_get = live.get
    for j, g in enumerate(letters):
        # s_g compares (and at a descent swaps) window positions a = g - 1
        # and b = g; t compares position 1 with its own negation, read as
        # the same field complemented
        if g:
            a, b, splits = g - 1, g, pool.split_q
            na, nb = neg[a], neg[b]
        else:
            a = b = 0
            splits = pool.split_p
            nb = neg[0]
            na = nb ^ mask
        lx, ly = pos[a] * width, pos[b] * width
        nab, both = na ^ nb, (1 << lx) | (1 << ly)
        sums = pool.sums
        out: dict = {}
        for pattern, terms in buckets.items():
            moved = _pattern_times(pattern, g)
            descents = [u for u in terms if (u >> lx & mask ^ na) > (u >> ly & mask ^ nb)]
            keep_move = live_get(moved, -1) > j
            if keep_move:
                out[moved] = terms
            stay = None
            if live_get(pattern, -1) > j:
                # the rests go to the bucket that the letter relabels P
                stay = buckets.get(moved)
                if stay is None:
                    stay = out[pattern] = {}
            for u in descents:
                c = terms[u]
                # (1 - param) * c stays at w, param * c moves to wg
                rest, c = splits.get(c) or pool.split(c, not g)
                if keep_move:
                    terms[u] = c
                if stay is None:
                    continue
                u ^= ((u >> lx ^ u >> ly ^ nab) & mask) * both  # the key of w once the frame moves
                t = stay.get(u)
                if t is None:
                    stay[u] = rest
                    continue
                s = sums.get((t, rest))
                if s is None:
                    s = pool.add(t, rest)
                if s:
                    stay[u] = s
                else:
                    del stay[u]
        buckets = out
        # for t (a = b = 0) the second assignment wins: neg[0] becomes na
        pos[a], pos[b], neg[a], neg[b] = pos[b], pos[a], nb, na
        if len(pool.dicts) > limit:
            pool.keep(chain.from_iterable(map(dict.values, buckets.values())))
            limit = 2 * len(pool.dicts)
    cur = buckets.popitem()[1] if buckets else {}
    for pattern in buckets:
        cur.update(buckets[pattern])
    # cur alone holds the product, for the decode to free.  The memos go too:
    # their ids sit among the freed keys and would pin memory from the tuples
    buckets = out = terms = stay = descents = sums = splits = None

    # Keep only the live dicts, one BivarPoly per id shared by every term
    # that carries it.  Then trade the {key: id} table for a coefficient
    # list and a buffer of every key's field bytes, joined 4096 keys at a
    # time, freeing the key ints before any tuple is built.  Position i is
    # field column pos[i] of the buffer, read through ``negated`` where the
    # frame complements it.
    dicts = pool.dicts
    polys = {c: BivarPoly._raw(dicts[c]) for c in set(cur.values())}
    del pool, dicts
    coefficients = list(map(polys.__getitem__, cur.values()))
    chunks = map(int.to_bytes, cur, repeat(rank * size), repeat("little"))
    buffer = bytearray()
    while chunk := b"".join(islice(chunks, 4096)):
        buffer += chunk
    del cur, polys, chunks
    view = memoryview(buffer).cast(code)
    columns = [
        map((negated if flip else canonical).__getitem__, view[x::rank]) for x, flip in zip(pos, neg)
    ]
    windows = map(tuple.__new__, repeat(SignedPermutation), zip(*columns) if rank else repeat(()))
    return HeckeElement._raw(rank, dict(zip(windows, coefficients)))


def mult(h1: HeckeElement, h2: HeckeElement, cosets=None) -> HeckeElement:
    """Product in the Hecke algebra, linear in h2: the sum over the terms
    c * T_x of h2 of (h1 * T_x) * c.

    Each h1 * T_x is one fold along a reduced word of x (``_times_ts``); a
    right factor T_x with coefficient 1 is that fold alone.  That the word
    does not matter follows from the braid relations (and is exercised by
    the tests).  Neither factor is changed.

    ``cosets=(n, k, windows)``, with windows of rank n + k = h1.rank,
    returns only the terms of h1 * h2 in the cosets (B_n x S_k) x of the
    windows x (any member of a coset selects it).  Each fold reads its
    word's last-live index, one dict {pattern: the last letter index from
    which it can reach one of those cosets}, and drops a bucket of terms as
    soon as its pattern has passed that index.  The default, None, is the
    whole product.
    """
    h1._check_rank(h2)
    if cosets is not None:
        n, k, windows = cosets
        if n + k != h1.rank:
            raise ValueError(f"B_{n} x S_{k} is not a parabolic subgroup of B_{h1.rank}")
        classify = _pattern_classes(n, k).__getitem__
        patterns = set()
        for x in windows:
            if not isinstance(x, SignedPermutation):
                x = SignedPermutation(x)
            if len(x) != n + k:
                raise ValueError(f"coset window {x} has rank {len(x)}, not n + k = {n + k}")
            patterns.add(tuple(map(classify, x)))
        cosets = n, k, patterns
    out = HeckeElement._raw(h1.rank, {})
    for x, c in h2._terms.items():
        term = _times_ts(h1, x.reduced_word(), cosets)
        if c != ONE:
            term = term.scale(c)
        out = out + term if out._terms else term
    return out


# -- parabolic coset machinery ----------------------------------------------------

@lru_cache(maxsize=64)
def _pattern_classes(n: int, k: int) -> list:
    """Indexed by a window value v of B_{n+k} (negative v from the end):
    0 if |v| <= n, else the sign of v.  A list, whose bound __getitem__ is a
    faster call than a tuple's; cached, so it is never changed.  Every coset
    function refuses a negative n or k here."""
    if n < 0 or k < 0:
        raise ValueError(f"B_{n} x S_{k} is not a parabolic subgroup: n, k must be >= 0")
    classes = [0] * (2 * (n + k) + 1)
    for v in range(n + 1, n + k + 1):
        classes[v] = 1
        classes[-v] = -1
    return classes


def _pattern_times(pattern: tuple, g: int) -> tuple:
    """The pattern of w * g for any w of the given pattern: t flips the sign
    at position 1 and s_i swaps positions i and i + 1.  So right
    multiplication by T_g sends a term with pattern P to P (the (1 - param)
    part at a descent) or to P * g."""
    if g == 0:
        return (-pattern[0],) + pattern[1:]
    return pattern[: g - 1] + (pattern[g], pattern[g - 1]) + pattern[g + 1 :]


def _last_live(patterns, letters) -> dict:
    """The last-live index of the letters g_0 ... g_{L-1}: {pattern: the
    largest i such that a term of that pattern, with g_i ... g_{L-1} still
    to come, can reach one of ``patterns``}.  A pattern that cannot reach
    them at all is absent, and a requested pattern maps to L.

    Built backwards, one pattern entered once: at letter i, each pattern
    already present (those that can reach ``patterns`` from i + 1 on) adds
    its image under g_i with i, unless the image is already present with a
    larger index.  So after letter j, a bucket of pattern P can still reach
    ``patterns`` exactly when ``live.get(P, -1) > j``.
    """
    live = dict.fromkeys(patterns, len(letters))
    for j in reversed(range(len(letters))):
        g = letters[j]
        for pattern in list(live):
            live.setdefault(_pattern_times(pattern, g), j)
    return live


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


def parabolic_decompose(h: HeckeElement, n: int, k: int) -> dict[SignedPermutation, HeckeElement]:
    """Regroup h as sum_x (component_x) * T_x over the minimal representatives
    x of the cosets (B_n x S_k) x, returned as {x: component_x}; each
    component is supported on B_n x S_k.

    The factorization is built once per coset pattern (``_coset_form``) and
    applied to each term by C-level maps over its window.  Every component
    keys an element w' of B_n x S_k by the same window object.
    """
    if h.rank != n + k:
        raise ValueError(f"rank mismatch: {h.rank} vs n + k = {n + k}")
    classify = _pattern_classes(n, k).__getitem__
    forms: dict = {}  # pattern -> (pick, signs, {w': coefficient})
    buckets: dict[SignedPermutation, dict] = {}
    shared: dict = {}  # w' -> the one window of w' that every component holds
    new = tuple.__new__
    for w, c in h._terms.items():
        pattern = tuple(map(classify, w))
        form = forms.get(pattern)
        if form is None:
            x, pick, signs = _coset_form(pattern, n)
            form = forms[pattern] = (pick, signs, buckets.setdefault(x, {}))
        pick, signs, terms = form
        u = new(SignedPermutation, map(mul, signs, pick(w)))
        terms[shared.setdefault(u, u)] = c
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
    classify = _pattern_classes(n, k).__getitem__
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
    Only the w_{n,k} coset of the square is formed (``mult`` with
    ``cosets``): over every n + k <= 7 it holds 4,892 of the squares'
    177,643 terms.
    """
    w = make_w_nk(n, k)
    square = mult(t_of(w), t_of(w), cosets=(n, k, (w,)))
    return parabolic_decompose(square, n, k).get(w, HeckeElement._raw(n + k, {}))
