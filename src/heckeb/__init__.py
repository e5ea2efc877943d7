"""Exact computations in Iwahori-Hecke algebras of type B.

Signed-permutation arithmetic for B_m, sparse T-basis multiplication over
Z[p, q], parabolic coset decompositions, good-involution combinatorics, and
a verification suite that recomputes every supported closed form from first
principles.  The package exports the names the README documents; everything
else is reached through its module (``heckeb.verify``, ``heckeb.cli``, ...).
"""

from .combinat import enumerate_good, enumerate_separated, stat_a, stat_d
from .hecke import (
    HeckeElement,
    distinguished_factor,
    mult,
    parabolic_decompose,
    t_of,
    trivial_quotient,
)
from .poly import BivarPoly, cyclotomic, reduce_mod_cyclotomic
from .signedperm import SignedPermutation, make_w_nk
from .words import evaluate_word, parse_word

__all__ = [
    "BivarPoly",
    "HeckeElement",
    "SignedPermutation",
    "cyclotomic",
    "distinguished_factor",
    "enumerate_good",
    "enumerate_separated",
    "evaluate_word",
    "make_w_nk",
    "mult",
    "parabolic_decompose",
    "parse_word",
    "reduce_mod_cyclotomic",
    "stat_a",
    "stat_d",
    "t_of",
    "trivial_quotient",
]
