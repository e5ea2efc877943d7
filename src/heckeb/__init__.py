"""Exact computations in Iwahori-Hecke algebras of type B.

Signed-permutation arithmetic for B_m, sparse T-basis multiplication over
Z[p, q], parabolic coset decompositions, good-involution combinatorics, and
a verification suite that recomputes every supported closed form from first
principles.
"""

from .combinat import (
    binomial_sum,
    count_separated,
    enumerate_good,
    enumerate_separated,
    neat_count,
    stat_a,
    stat_c,
    stat_d,
)
from .hecke import (
    HeckeElement,
    distinguished_factor,
    mult,
    parabolic_decompose,
    t_of,
    trivial_quotient,
    unit,
    z_coefficient,
)
from .poly import (
    BivarPoly,
    CyclotomicModulus,
    ONE,
    P,
    Q,
    ZERO,
    cyclotomic,
    reduce_mod_cyclotomic,
)
from .signedperm import (
    SignedPermutation,
    generator,
    identity,
    make_cycle,
    make_w_nk,
)
from .verify import (
    VerificationReport,
    closed_form_w0k_square,
    f_k_direct,
    f_k_recurrence,
    f_k_separated,
    hecke_parameter,
    run_suite,
)
from .words import WordExpression, evaluate_word, parse_word

__all__ = [
    "BivarPoly",
    "CyclotomicModulus",
    "HeckeElement",
    "ONE",
    "P",
    "Q",
    "SignedPermutation",
    "VerificationReport",
    "WordExpression",
    "ZERO",
    "binomial_sum",
    "closed_form_w0k_square",
    "count_separated",
    "cyclotomic",
    "distinguished_factor",
    "enumerate_good",
    "enumerate_separated",
    "evaluate_word",
    "f_k_direct",
    "f_k_recurrence",
    "f_k_separated",
    "generator",
    "hecke_parameter",
    "identity",
    "make_cycle",
    "make_w_nk",
    "mult",
    "neat_count",
    "parabolic_decompose",
    "parse_word",
    "reduce_mod_cyclotomic",
    "run_suite",
    "stat_a",
    "stat_c",
    "stat_d",
    "t_of",
    "trivial_quotient",
    "unit",
    "z_coefficient",
]
