"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are immutable dense coefficient tuples of ``fractions.Fraction``
(index = degree, no trailing zeros; the zero polynomial is the empty tuple).
On top of the arithmetic this module provides the number-theoretic toolbox
the rest of the library runs on: monic gcd with Bezout coefficients,
squarefree parts, complete factorization over Q, Sturm real-root counting,
and the real part (the monic product of the real-rooted irreducible
factors).

``Poly`` keeps ``Fraction`` coefficients, but gcd, squarefree parts and
Sturm counts run over integer coefficient lists (sympy's dense ``dup_*``
routines over ZZ), which avoids the coefficient growth of Euclid over Q.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import sympy
from sympy.polys.densearith import dup_prem
from sympy.polys.densetools import dup_diff
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.sqfreetools import dup_sqf_part

from .errors import DomainError

#: Degree of the zero polynomial. A distinguished marker that still compares
#: below every integer degree; never a -1 sentinel.
NEG_INF = float("-inf")

Coeff = Union[Fraction, int]


def _as_fraction(value: Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


class Poly:
    """Dense polynomial in one variable x with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def x() -> "Poly":
        return _X

    @staticmethod
    def const(value: Coeff) -> "Poly":
        return Poly([_as_fraction(value)])

    @staticmethod
    def monomial(coeff: Coeff, power: int) -> "Poly":
        if power < 0:
            raise DomainError("monomial power must be nonnegative")
        return Poly([0] * power + [coeff])

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> Union[int, float]:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._coeffs == (Fraction(1),)

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def scale(self, value: Coeff) -> "Poly":
        v = _as_fraction(value)
        return Poly([c * v for c in self._coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        nonzero = [(i, c) for i, c in enumerate(self._coeffs) if c]
        if len(nonzero) == 1:  # monomials power by shifting, not by squaring
            i, c = nonzero[0]
            return Poly.monomial(c**n, i * n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO, _ZERO
        rem = list(self._coeffs)
        div = other._coeffs
        dn = len(div) - 1
        lead = div[-1]
        if len(rem) - 1 < dn:
            return _ZERO, self
        quot = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if c:
                q = c / lead
                quot[k - dn] = q
                for j in range(dn + 1):
                    rem[k - dn + j] -= q * div[j]
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self divides other exactly (zero divides only zero)."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            raise DomainError("cannot normalize the zero polynomial")
        lead = self._coeffs[-1]
        if lead == 1:
            return self
        return Poly([c / lead for c in self._coeffs])

    def evaluate(self, point: Coeff) -> Fraction:
        p = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * p + c
        return acc

    def compose_affine(self, a: Coeff, b: Coeff) -> "Poly":
        """Return p(a*x + b), exactly."""
        arg = Poly([_as_fraction(b), _as_fraction(a)])
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * arg + Poly.const(c)
        return acc

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def sort_key(self) -> tuple:
        """Canonical order: degree, then coefficients leading to constant."""
        return (len(self._coeffs), tuple(reversed(self._coeffs)))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for power in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[power]
            if c == 0:
                continue
            body = _term_str(abs(c), power)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def _term_str(c: Fraction, power: int) -> str:
    if power == 0:
        return str(c)
    xpart = "x" if power == 1 else f"x^{power}"
    if c == 1:
        return xpart
    return f"{c}*{xpart}"


_ZERO = Poly()
_ONE = Poly([1])
_X = Poly([0, 1])


# ---------------------------------------------------------------------------
# gcd / Bezout


def _to_zz(coeffs: tuple[Fraction, ...]) -> list[int]:
    """Multiple by the lcm of the denominators, as sympy's dense list over ZZ."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in reversed(coeffs)]


def _monic_from_zz(dense: list[int]) -> Poly:
    lead = dense[0]
    return Poly([Fraction(c, lead) for c in reversed(dense)])


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p)."""
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    return _monic_from_zz(dup_gcd(_to_zz(p.coeffs), _to_zz(q.coeffs), ZZ))


def lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    return ((p * q) // gcd(p, q)).monic()


def ext_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with g = gcd(p, q) monic and s*p + t*q = g."""
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    r0, r1 = p, q
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    lead = r0.leading
    inv = Poly.const(Fraction(1) / lead)
    return r0.monic(), inv * s0, inv * t0


def bezout_many(fs: Sequence[Poly]) -> tuple[Poly, list[Poly]]:
    """Monic gcd g of the family plus coefficients with sum(c_i * f_i) = g."""
    if not fs:
        raise DomainError("bezout_many needs a nonempty family")
    if all(f.is_zero() for f in fs):
        raise DomainError("bezout_many of an all-zero family is undefined")
    g = fs[0]
    coeffs = [Poly.one()]
    for f in fs[1:]:
        if g.is_zero():
            # everything so far was zero; restart at f
            g = f
            coeffs = [Poly.zero()] * len(coeffs) + [Poly.one()]
            continue
        g2, s, t = ext_gcd(g, f)
        coeffs = [s * c for c in coeffs] + [t]
        g = g2
    if not g.is_zero() and g.leading != 1:
        inv = Poly.const(Fraction(1) / g.leading)
        coeffs = [inv * c for c in coeffs]
        g = g.monic()
    return g, coeffs


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero():
        raise DomainError("squarefree part of 0 is undefined")
    return _monic_from_zz(dup_sqf_part(_to_zz(p.coeffs), ZZ))


# ---------------------------------------------------------------------------
# factorization over Q (sympy-backed behind this module's contract)


@dataclass(frozen=True)
class Factorization:
    """unit * product(p**mult) reproduces the input exactly.

    Factors are monic irreducible over Q, pairwise distinct, sorted by
    (degree, then coefficient sequence from leading to constant).
    """

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def value(self) -> Poly:
        out = Poly.const(self.unit)
        for f, mult in self.factors:
            out = out * f**mult
        return out


def factor(p: Poly) -> Factorization:
    """Complete factorization of a nonzero polynomial into monic irreducibles."""
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    return _factor_cached(p.coeffs)


@lru_cache(maxsize=None)
def _factor_cached(coeffs: tuple[Fraction, ...]) -> Factorization:
    if len(coeffs) == 1:
        return Factorization(coeffs[0], ())
    sym = sympy.Poly(list(reversed(coeffs)), _SYMPY_X, domain="QQ")
    content, raw = sympy.factor_list(sym)
    unit = Fraction(content.p, content.q)
    pairs: list[tuple[Poly, int]] = []
    for fac, mult in raw:
        fp = Poly([Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())])
        if fp.is_constant():
            unit *= fp.coeffs[0] ** mult
            continue
        lead = fp.leading
        if lead != 1:
            unit *= lead**mult
            fp = fp.monic()
        pairs.append((fp, int(mult)))
    pairs.sort(key=lambda pm: pm[0].sort_key())
    return Factorization(unit, tuple(pairs))


_SYMPY_X = sympy.Symbol("x")


def is_irreducible(p: Poly) -> bool:
    if p.is_zero() or p.is_constant():
        return False
    fs = factor(p).factors
    return len(fs) == 1 and fs[0][1] == 1


# ---------------------------------------------------------------------------
# Sturm real-root counting


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots, by Sturm's theorem on the squarefree part."""
    if p.is_zero():
        raise DomainError("root count of the zero polynomial is undefined")
    return _count_real_roots_cached(p.coeffs)


@lru_cache(maxsize=None)
def _count_real_roots_cached(coeffs: tuple[Fraction, ...]) -> int:
    # Primitive Sturm sequence over ZZ: each pseudo-remainder lc(g)^(d+1) * r
    # is scaled back to a positive multiple of the true remainder r, then
    # negated and divided by its content.
    seq = [dup_sqf_part(_to_zz(coeffs), ZZ)]
    if len(seq[0]) <= 1:
        return 0
    seq.append(dup_diff(seq[0], 1, ZZ))
    while True:
        f, g = seq[-2], seq[-1]
        r = dup_prem(f, g, ZZ)
        if not r:
            break
        content = math.gcd(*r)
        if g[0] > 0 or (len(f) - len(g)) % 2:
            content = -content
        seq.append([c // content for c in r])
    at_pos = [q[0] > 0 for q in seq]
    at_neg = [(q[0] > 0) == (len(q) % 2 == 1) for q in seq]
    return sum(map(operator.ne, at_neg, at_neg[1:])) - sum(map(operator.ne, at_pos, at_pos[1:]))


def has_real_root(p: Poly) -> bool:
    return count_real_roots(p) > 0


# ---------------------------------------------------------------------------
# real part


def real_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p with a real root.

    Returns 1 when no factor has a real root (constants included).
    """
    if p.is_zero():
        raise DomainError("real part of the zero polynomial is undefined")
    return _real_part_cached(p.coeffs)


@lru_cache(maxsize=None)
def _real_part_cached(coeffs: tuple[Fraction, ...]) -> Poly:
    out = Poly.one()
    for q, _mult in _factor_cached(coeffs).factors:
        if has_real_root(q):
            out = out * q
    return out
