"""Span tracing for the traced benchmark run.

The tracer replaces public heckeb functions at the module attributes through
which the program calls them.  ``verify`` and ``words`` import names by
value, so a function is wrapped in each module that calls it.  Every call
becomes a span ``[name, start, end, parent, check]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``check`` names the verification
check or expression in progress.  Spans are kept in memory and written out
when the run ends.

Counts (terms in and out, calls) are taken by hooks that run after a span
closes.  Each hook runs inside its own ``trace.hook`` span, so its cost is
never charged to a layer's self time.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

from workloads import check_id

# (module, attribute, span name).  The verify functions named in VERIFY_CHECKS
# also set the check id for every span they enclose.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "run_suite", "verify.run_suite"),
    ("verify", "verify_main", "verify.check"),
    ("verify", "verify_w0k", "verify.check"),
    ("verify", "verify_fk", "verify.check"),
    ("verify", "verify_matrix", "verify.check"),
    ("hecke", "mult", "hecke.mult"),
    ("verify", "mult", "hecke.mult"),
    ("words", "mult", "hecke.mult"),
    ("hecke", "parabolic_decompose", "hecke.extract"),
    ("verify", "trivial_quotient", "hecke.quotient"),
    ("verify", "reduce_mod_cyclotomic", "poly.reduce"),
    ("verify", "closed_form_w0k_square", "verify.closed_form"),
    ("verify", "f_k_direct", "verify.fk_direct"),
    ("verify", "f_k_recurrence", "verify.fk_other"),
    ("verify", "f_k_separated", "verify.fk_other"),
    ("verify", "enumerate_good", "combinat.enumerate"),
    ("verify", "symmetric_involutions", "combinat.enumerate"),
    ("verify", "enumerate_separated", "combinat.enumerate"),
    ("words", "parse_word", "words.parse"),
    ("words", "evaluate_word", "words.evaluate"),
]

VERIFY_CHECKS = {
    "verify_main": "main",
    "verify_w0k": "w0k",
    "verify_fk": "fk",
    "verify_matrix": "matrix",
}

# z_coefficient gets a hook but no span: its own work is one dict lookup.
COUNT_ONLY = [("verify", "z_coefficient")]

# Per-layer metrics: name -> unit.  The order is the order of BENCHMARK.json.
LAYER_UNITS = {
    "hecke.mult_s": "s",
    "hecke.mult_calls": "count",
    "hecke.mult_terms_out": "count",
    "hecke.extract_s": "s",
    "hecke.extract_terms_in": "count",
    "hecke.coset_terms": "count",
    "hecke.coset_yield": "ratio",
    "hecke.quotient_s": "s",
    "hecke.quotient_terms": "count",
    "poly.reduce_s": "s",
    "poly.reduce_calls": "count",
    "poly.max_coeff_bits": "bits",
    "poly.max_coeff_monomials": "count",
    "combinat.enumerate_s": "s",
    "combinat.enumerated": "count",
    "verify.closed_form_s": "s",
    "verify.fk_direct_s": "s",
    "verify.fk_other_s": "s",
    "verify.self_s": "s",
    "words.parse_s": "s",
    "words.evaluate_self_s": "s",
    "words.expr_terms": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.check: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.per_check: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.max_coeff_bits = 0
        self.max_coeff_monomials = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.check]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def _hook(self, hook, args, result) -> None:
        span = self._open("trace.hook")
        try:
            hook(args, result)
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        fn = getattr(module, attr)
        statement = VERIFY_CHECKS.get(attr)
        signature = inspect.signature(fn) if statement else None

        def wrapper(*args, **kwargs):
            outer_check = self.check
            if statement:
                bound = signature.bind(*args, **kwargs)
                self.check = check_id(statement, dict(bound.arguments))
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                self.check = outer_check
            if hook is not None:
                self._hook(hook, args, result)
            return result

        setattr(module, attr, wrapper)

    def count_only(self, module, attr: str, hook) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._hook(hook, args, result)
            return result

        setattr(module, attr, wrapper)

    # -- hooks ----------------------------------------------------------------

    def _add(self, key: str, value: int) -> None:
        self.counts[key] += value
        if self.check is not None:
            self.per_check[self.check][key] += value

    def _on_mult(self, args, result) -> None:
        self._add("hecke.mult_calls", 1)
        self._add("hecke.mult_terms_out", len(result._terms))
        for coeff in result._terms.values():
            terms = coeff._terms
            if len(terms) > self.max_coeff_monomials:
                self.max_coeff_monomials = len(terms)
            for v in terms.values():
                bits = abs(v).bit_length()
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

    def _on_extract(self, args, result) -> None:
        self._add("hecke.extract_terms_in", len(args[0]._terms))

    def _on_z(self, args, result) -> None:
        self._add("hecke.coset_terms", len(result._terms))

    def _on_quotient(self, args, result) -> None:
        self._add("hecke.quotient_terms", len(result._terms))

    def _on_reduce(self, args, result) -> None:
        self._add("poly.reduce_calls", 1)

    def _on_enumerate(self, args, result) -> None:
        self._add("combinat.enumerated", len(result))

    def install(self, heckeb) -> None:
        """Wrap the targets in the already imported package ``heckeb``."""
        hooks = {
            "hecke.mult": self._on_mult,
            "hecke.extract": self._on_extract,
            "hecke.quotient": self._on_quotient,
            "poly.reduce": self._on_reduce,
            "combinat.enumerate": self._on_enumerate,
        }
        for module_name, attr, name in TARGETS:
            self.wrap(getattr(heckeb, module_name), attr, name, hooks.get(name))
        for module_name, attr in COUNT_ONLY:
            self.count_only(getattr(heckeb, module_name), attr, self._on_z)

    def evaluated(self, element) -> None:
        """Called by the products workload with each top-level result."""
        self._add("words.expr_terms", len(element._terms))

    # -- reduction ------------------------------------------------------------

    def _times(self):
        """Per span name: (inclusive time of outermost spans, self time)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _check) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return inclusive, self_time

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* pair, which needs an
        untraced run to compare with."""
        inc, own = self._times()
        c = self.counts
        extract_in = c["hecke.extract_terms_in"]
        return {
            "hecke.mult_s": inc["hecke.mult"],
            "hecke.mult_calls": c["hecke.mult_calls"],
            "hecke.mult_terms_out": c["hecke.mult_terms_out"],
            "hecke.extract_s": inc["hecke.extract"],
            "hecke.extract_terms_in": extract_in,
            "hecke.coset_terms": c["hecke.coset_terms"],
            "hecke.coset_yield": c["hecke.coset_terms"] / extract_in if extract_in else 0.0,
            "hecke.quotient_s": inc["hecke.quotient"],
            "hecke.quotient_terms": c["hecke.quotient_terms"],
            "poly.reduce_s": inc["poly.reduce"],
            "poly.reduce_calls": c["poly.reduce_calls"],
            "poly.max_coeff_bits": self.max_coeff_bits,
            "poly.max_coeff_monomials": self.max_coeff_monomials,
            "combinat.enumerate_s": inc["combinat.enumerate"],
            "combinat.enumerated": c["combinat.enumerated"],
            "verify.closed_form_s": own["verify.closed_form"],
            "verify.fk_direct_s": own["verify.fk_direct"],
            "verify.fk_other_s": own["verify.fk_other"],
            "verify.self_s": own["verify.check"] + own["verify.run_suite"],
            "words.parse_s": inc["words.parse"],
            "words.evaluate_self_s": own["words.evaluate"],
            "words.expr_terms": c["words.expr_terms"],
            "cli.self_s": own["cli.main"],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "check"], "spans": self.spans},
                fh,
            )
