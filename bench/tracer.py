"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the functions named in `SPANS` and rebinds every
reference to them across the `realspec.*` module dicts, because
`from .polynomials import gcd` copies the name into the importing module.
Methods (`Poly.__mul__`, `Poly.__divmod__`, `Ring.ideal`) are patched on
their class. Spans nest: a span's self time is its duration minus the
durations of the spans it encloses, and the tracer's own bookkeeping after
a call is charged to no span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name). `_factor_cached` is the one entry point
# every factorization goes through (`real_part` reaches it without calling
# `factor`), so the factor span sits there.
SPANS = (
    ("polynomials", "gcd", "polynomials.gcd"),
    ("polynomials", "ext_gcd", "polynomials.ext_gcd"),
    ("polynomials", "_factor_cached", "polynomials.factor"),
    ("polynomials", "count_real_roots", "polynomials.count_real_roots"),
    ("polynomials", "real_part", "polynomials.real_part"),
    ("rings", "find_certificate", "rings.find_certificate"),
    ("rings", "verify_certificate", "rings.verify_certificate"),
    ("rings", "real_radical_member", "rings.real_radical_member"),
    ("rings", "annihilator", "rings.annihilator"),
    ("spectrum", "cover_check", "spectrum.cover_check"),
    ("spectrum", "finite_subcover", "spectrum.finite_subcover"),
    ("spectrum", "v_of", "spectrum.v_of"),
    ("spectrum", "enumerate_primes", "spectrum.enumerate_primes"),
    ("sheaves", "section_validate", "sheaves.section_validate"),
    ("sheaves", "equalize", "sheaves.equalize"),
    ("sheaves", "glue", "sheaves.glue"),
    ("sheaves", "psi", "sheaves.psi"),
    ("sheaves", "section_eq", "sheaves.section_eq"),
    ("sheaves", "sigma_eq", "sheaves.sigma_eq"),
    ("parsing", "parse_poly", "parsing.parse_poly"),
    ("parsing", "parse_ring", "parsing.parse_ring"),
    ("cli", "main", "cli.main"),
    ("explore", "explore_question", "explore.explore_question"),
    ("explore", "sample_section", "explore.sample_section"),
)
METHOD_SPANS = (
    ("polynomials", "Poly", "__mul__", "polynomials.mul"),
    ("polynomials", "Poly", "__divmod__", "polynomials.divmod"),
    ("rings", "Ring", "ideal", "rings.ideal"),
)


def _coeff_bits(*polys) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for p in polys for c in p.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # outcome tallies
        self.coeff_bits_max = 0
        self._stack: list[float] = []  # enclosed time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                enclosed = stack.pop()
                calls[name] += 1
                self_s[name] += dur - enclosed
                if stack:
                    stack[-1] += dur
            if after is not None:
                t1 = clock()
                after(args, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return traced

    def _after_find(self, _args, outcome) -> None:
        self.counts[f"find_certificate.{outcome.status.value}"] += 1

    def _after_glue(self, _args, outcome) -> None:
        self.counts[f"glue.{outcome.status.value}"] += 1

    def _after_divmod(self, args, _result) -> None:
        bits = _coeff_bits(*args)
        if bits > self.coeff_bits_max:
            self.coeff_bits_max = bits

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "realspec" or n.startswith("realspec.")]
        after = {"rings.find_certificate": self._after_find, "sheaves.glue": self._after_glue}
        for module_name, attr, name in SPANS:
            original = getattr(sys.modules[f"realspec.{module_name}"], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules[f"realspec.{module_name}"], cls_name)
            original = cls.__dict__[attr]
            hook = self._after_divmod if attr == "__divmod__" else None
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "coeff_bits_max": self.coeff_bits_max,
        }
