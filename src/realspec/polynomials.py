"""Exact univariate polynomial arithmetic over the rationals.

A ``Poly`` is a content ``_n/_d`` (coprime ints, ``_d > 0``) times a
primitive integer tuple ``_p`` (index = degree, entries of gcd 1, last entry
positive); the zero polynomial is ``(0, 1, ())``. The form is unique, so
equality and hashing compare the triple. Arithmetic runs on Python ints and
reduces each content with one integer gcd. By Gauss's lemma a product of
primitive polynomials is primitive, so ``*`` is an integer convolution over
the nonzero entries of both operands, a shift for a monomial, times the
product of the contents; ``**`` is `power`; division is integer long division
that scales by the divisor's leading entry only when it does not divide the
current leading term (a monic integer modulus never scales). ``Fraction`` is
only the boundary's: ``Poly(...)``, `const`, `monomial` and `scale` take it,
and ``coeffs``, ``leading``, ``coefficient`` and `Factorization.unit` build
it on demand. Printing reduces each coefficient with one integer gcd,
and one with more digits than the interpreter converts is a `DomainError`.

On top of the arithmetic this module provides the number-theoretic toolbox the
rest of the library runs on: monic gcd with Bezout coefficients, complete
factorization over Q, Sturm real-root counting, the real part (the monic
product of the real-rooted irreducible factors) and real radical membership,
`has_real_root_outside`. The last four go one squarefree component at a time: a
root count is the sum of the Sturm counts of the components, and the real part
factors only what a count cannot settle. gcd, Yun's squarefree decomposition
and factoring run on ``_p`` in the Z[x] kernel `zassenhaus`, on Python ints: a
heuristic gcd at a power of two checked by exact division, Yun on its
cofactors, and per component Cantor-Zassenhaus mod a small prime p, a Hensel
lift to p^l past twice the Mignotte bound sqrt(n+1) * 2^n * max|coefficient| *
lc, and recombination of the lifted factors. Sturm sequences run on the same
int lists, with pseudo-remainders kept positive multiples of the true ones; an
odd-degree polynomial has a real root without one. Bezout runs on Poly
arithmetic. Root counts and real parts are invariant under scaling, so their
caches are keyed on ``_p``; factorizations on ``(_n, _d, _p)``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from . import zassenhaus as kernel
from .errors import DomainError, InputError

#: Degree of the zero polynomial. A distinguished marker that still compares
#: below every integer degree; never a -1 sentinel.
NEG_INF = float("-inf")

#: Entries each cache keeps: factor, root count and real part here, and -1 as
#: a sum of squares mod a prime (`rings._neg_one_sos_mod`).
CACHE_SIZE = 1 << 10

MAX_EXPONENT = 1 << 16
#: Budget for `check_size`; the largest admissible power, (x+1)^1023, takes about
#: 0.2 s on a 2-vCPU x86_64 host.
MAX_POWER_SIZE = 1 << 20

Coeff = Union[Fraction, int]


def check_size(degree: int, bits: float, what: str, *args, dense: bool = True) -> float:
    """The one budget for expanding outside input: the size of a value of
    this degree with `bits` bits of coefficients, or past it an InputError
    naming what.format(*args), formatted only then. A dense value takes
    (degree+1)^2 products to square or reduce however small its entries
    are; a monomial (dense=False) is a shift, whose size is its bits."""
    if degree > MAX_EXPONENT:
        raise InputError(f"{what.format(*args)} has degree above {MAX_EXPONENT}")
    size = (degree + 1) * max(degree + 1, bits) if dense else bits
    if size > MAX_POWER_SIZE:
        raise InputError(f"{what.format(*args)} has size above {MAX_POWER_SIZE} bits")
    return size


def _as_fraction(value: Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


class Poly:
    """Polynomial in x over Q: content ``_n/_d`` times primitive ints ``_p``."""

    __slots__ = ("_n", "_d", "_p")

    def __new__(cls, coeffs: Iterable[Coeff] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return _canonical([c.numerator * (den // c.denominator) for c in cs], 1, den)

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
    def const(value: Coeff) -> "Poly":
        return Poly.monomial(value, 0)

    @staticmethod
    def monomial(coeff: Coeff, power: int) -> "Poly":
        if power < 0:
            raise DomainError("monomial power must be nonnegative")
        c = _as_fraction(coeff)
        return _make(c.numerator, c.denominator, (0,) * power + (1,)) if c else _ZERO

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        n, d = self._n, self._d
        return tuple(Fraction(n * x, d) for x in self._p)

    @property
    def degree(self) -> Union[int, float]:
        return len(self._p) - 1 if self._p else NEG_INF

    @property
    def leading(self) -> Fraction:
        if not self._p:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self._n * self._p[-1], self._d)

    def is_zero(self) -> bool:
        return not self._p

    def is_one(self) -> bool:
        return self._p == (1,) and self._n == 1 and self._d == 1

    def is_constant(self) -> bool:
        return len(self._p) <= 1

    @property
    def terms(self) -> int:
        """Number of nonzero coefficients."""
        return len(self._p) - self._p.count(0)

    @property
    def height(self) -> int:
        """1-norm of the numerators over their common denominator (the
        content's numerator times the primitive entries), or that
        denominator if larger."""
        return max(abs(self._n) * sum(map(abs, self._p)), self._d)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._p):
            return Fraction(self._n * self._p[power], self._d)
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._p, other._p
        if not b:
            return self
        if not a:
            return other
        da, db = self._d, other._d
        g = math.gcd(da, db)
        fa, fb = self._n * (db // g), other._n * (da // g)
        out = [fa * x for x in a]
        if len(b) > len(a):
            out.extend([0] * (len(b) - len(a)))
        for i, y in enumerate(b):
            out[i] += fb * y
        return _canonical(out, 1, da // g * db)

    @staticmethod
    def sum(terms: Sequence[Union["Poly", tuple[int, int, int]]]) -> "Poly":
        """The sum of the terms in one integer pass; a term is a Poly or a
        monomial num/den * x^k given as (num, den, k) with den > 0."""
        den, top = 1, 0
        for t in terms:
            d, degree = (t[1], t[2]) if type(t) is tuple else (t._d, len(t._p) - 1)
            if d != 1:
                den = math.lcm(den, d)
            top = degree if degree > top else top
        out = [0] * (top + 1)
        for t in terms:
            if type(t) is tuple:
                out[t[2]] += t[0] * (den // t[1])
            else:
                f = t._n * (den // t._d)
                for i, y in enumerate(t._p):
                    out[i] += f * y
        return _canonical(out, 1, den)

    def __neg__(self) -> "Poly":
        return _make(-self._n, self._d, self._p)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._p, other._p
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        nonzero = [(j, y) for j, y in enumerate(a) if y]  # so a product with a monomial is a shift
        for i, x in enumerate(b):
            if x:
                for j, y in nonzero:
                    out[i + j] += x * y
        return _reduced(self._n * other._n, self._d * other._d, tuple(out))  # primitive by Gauss's lemma

    def scale(self, value: Coeff) -> "Poly":
        v = _as_fraction(value)
        return _reduced(self._n * v.numerator, self._d * v.denominator, self._p) if v and self._p else _ZERO

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        return power(self, n, _ONE)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        div = other._p
        if not div:
            raise DomainError("division by the zero polynomial")
        dn = len(div) - 1
        if len(self._p) - 1 < dn:
            return _ZERO, self
        rem = list(self._p)
        quot = [0] * (len(rem) - dn)
        low, lead = div[:-1], div[-1]
        scale = 1  # scale * self._p == quot * div + rem[:dn] once the loop ends
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if c:
                if c % lead:
                    f = lead // math.gcd(c, lead)
                    rem = [r * f for r in rem]
                    quot = [q * f for q in quot]
                    scale *= f
                    c = rem[k]
                q = c // lead
                quot[k - dn] = q
                for j, d in enumerate(low, k - dn):
                    rem[j] -= q * d
        na, da = self._n, self._d
        return (
            _canonical(quot, na * other._d, da * other._n * scale),
            _canonical(rem[:dn], na, da * scale),
        )

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self divides other exactly (zero divides only zero)."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            raise DomainError("cannot normalize the zero polynomial")
        return _make(1, self._p[-1], self._p)

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._p == other._p and self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d, self._p))

    def sort_key(self) -> tuple:
        """Canonical order: degree, then coefficients leading to constant."""
        return (len(self._p), tuple(reversed(self.coeffs)))

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self._p:
            return "0"
        parts: list[str] = []
        num, den = self._n, self._d
        for power in range(len(self._p) - 1, -1, -1):
            n = num * self._p[power]
            if not n:
                continue
            g = math.gcd(n, den)
            try:
                c = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            except ValueError:  # an int past the interpreter's digit limit
                limit = sys.get_int_max_str_digits()
                raise DomainError(f"a coefficient has more than {limit} digits to print") from None
            if power:
                xpart = "x" if power == 1 else f"x^{power}"
                c = xpart if c == "1" else f"{c}*{xpart}"
            parts.append(f"- {c}" if n < 0 else f"+ {c}")
        parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


_set_n, _set_d, _set_p = Poly._n.__set__, Poly._d.__set__, Poly._p.__set__  # past the immutability guard


def _make(num: int, den: int, prim: tuple[int, ...]) -> Poly:
    """The Poly (num/den) * prim, from a triple already in canonical form."""
    out = object.__new__(Poly)
    _set_n(out, num)
    _set_d(out, den)
    _set_p(out, prim)
    return out


def _reduced(num: int, den: int, prim: tuple[int, ...]) -> Poly:
    """_make after one integer gcd: the content num/den may be unreduced."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return _make(num // g, den // g, prim)


def _canonical(ints: list[int], num: int, den: int) -> Poly:
    """The Poly (num/den) * ints, brought to canonical form (ints is consumed)."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _ZERO
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
    return _reduced(num * g, den, tuple(ints))


def _monic(prim: list[int]) -> Poly:
    """The monic Poly of a primitive prim with positive last entry."""
    return _make(1, prim[-1], tuple(prim))


def _inverse_leading(p: Poly) -> Poly:
    """The constant 1/leading(p), for a nonzero p."""
    return _reduced(p._d, p._n * p._p[-1], (1,))


_ZERO = _make(0, 1, ())
_ONE = _make(1, 1, (1,))


def power(base, n: int, one):
    """base**n, n >= 0, by square-and-multiply: ``**`` of Poly and RingElem."""
    result = None
    while n:  # square only while exponent bits remain
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


# ---------------------------------------------------------------------------
# gcd / Bezout


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p)."""
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if len(p._p) == 1 or len(q._p) == 1:  # one is a nonzero constant
        return _ONE
    return _monic(kernel.gcd(list(p._p), list(q._p))[0])


def ext_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with g = gcd(p, q) monic and s*p + t*q = g."""
    if p.is_zero() and q.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if len(q._p) == 1:  # a nonzero constant answers as gcd does, with no division
        return _ONE, _ZERO, _inverse_leading(q)
    if len(p._p) == 1:
        return _ONE, _inverse_leading(p), _ZERO
    r0, r1 = p, q
    s0, s1, t0, t1 = _ONE, _ZERO, _ZERO, _ONE
    while not r1.is_zero():
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    inv = _inverse_leading(r0)
    return r0.monic(), inv * s0, inv * t0


def bezout_many(fs: Sequence[Poly]) -> tuple[Poly, list[Poly]]:
    """Monic gcd g of the family plus coefficients with sum(c_i * f_i) = g."""
    if all(f.is_zero() for f in fs):
        raise DomainError("bezout_many needs a nonzero member")
    g, coeffs = Poly.zero(), []
    for f in fs:
        if f.is_zero():
            coeffs.append(Poly.zero())
        elif g.is_zero():  # ext_gcd(0, f), without its division
            g, coeffs = f.monic(), coeffs + [_inverse_leading(f)]
        else:
            g, s, t = ext_gcd(g, f)
            coeffs = [s * c for c in coeffs] + [t]
    return g, coeffs


# ---------------------------------------------------------------------------
# factorization over Q (Yun, then each component by `zassenhaus`)


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
    """Complete factorization of a nonzero polynomial into monic irreducibles.

    Yun's decomposition splits the primitive part into squarefree
    components, each carrying its multiplicity; `zassenhaus` factors each
    component over Z (Cantor-Zassenhaus mod p, Hensel lift past twice the
    Mignotte bound, recombination). Cached on ``(_n, _d, _p)``."""
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    return _factor_cached(p._n, p._d, p._p)


@lru_cache(maxsize=CACHE_SIZE)
def _factor_cached(num: int, den: int, prim: tuple[int, ...]) -> Factorization:
    # The factors are monic, so the unit is the leading coefficient.
    pairs = [(_monic(f), mult) for comp, mult in kernel.yun(list(prim)) for f in kernel.zassenhaus(comp)]
    pairs.sort(key=lambda pm: pm[0].sort_key())
    return Factorization(Fraction(num * prim[-1], den), tuple(pairs))


def is_irreducible(p: Poly) -> bool:
    if p.is_zero() or p.is_constant():
        return False
    fs = factor(p).factors
    return len(fs) == 1 and fs[0][1] == 1


# ---------------------------------------------------------------------------
# Sturm real-root counting


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots: the sum of the Sturm counts of the
    squarefree components."""
    if p.is_zero():
        raise DomainError("root count of the zero polynomial is undefined")
    return _count_real_roots_cached(p._p)


@lru_cache(maxsize=CACHE_SIZE)
def _count_real_roots_cached(prim: tuple[int, ...]) -> int:
    return sum(_sturm(comp) for comp, _mult in kernel.yun(list(prim)))


def _sturm(f: list[int]) -> int:
    """The number of distinct real roots of a squarefree f of positive
    degree, ints lowest entry first. Primitive Sturm sequence over Z: each
    step of the pseudo-division scales the remainder r by a = |lc(g)| before
    it cancels r's leading term, so r ends a positive multiple of the true
    remainder; it is then negated and divided by its content."""
    seq = [f, kernel._derivative(f)]
    while True:
        r, g = list(seq[-2]), seq[-1]
        m, lead = len(g) - 1, g[-1]
        a, low = abs(lead), g[:-1]
        while len(r) > m:
            c = r.pop()
            if c:
                if a != 1:
                    r = [a * x for x in r]
                c = c if lead > 0 else -c  # r - (c/lead) * g, scaled by a
                k = len(r) - m
                r[k:] = [x - c * y for x, y in zip(r[k:], low)]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        content = -math.gcd(*r)
        seq.append([x // content for x in r])
    at_pos = [q[-1] > 0 for q in seq]
    at_neg = [(q[-1] > 0) == (len(q) % 2 == 1) for q in seq]
    return sum(map(operator.ne, at_neg, at_neg[1:])) - sum(map(operator.ne, at_pos, at_pos[1:]))


def has_real_root(p: Poly) -> bool:
    """True iff p has a real root. Every odd degree has one, so only an even
    degree is counted (the zero polynomial goes to the count's error)."""
    return (len(p._p) % 2 == 0 and not p.is_zero()) or count_real_roots(p) > 0


def has_real_root_outside(p: Poly, d: Poly) -> bool:
    """True iff a nonzero p has a real root that d lacks: an irreducible
    factor of p with a real root and not dividing d. With h = gcd(p, d) and
    q = p/h, the factors of p not dividing d are those of q not dividing h,
    each in exactly one Yun component c of q: the factors of the squarefree
    c/gcd(c, h)."""
    if len(p._p) == 1:  # a nonzero constant has no root
        return False
    h, q, _ = kernel.gcd(list(p._p), list(d._p))
    for c, _mult in kernel.yun(q):
        c = kernel.gcd(c, h)[1]
        if len(c) % 2 == 0 or (len(c) > 1 and _sturm(c)):
            return True
    return False


# ---------------------------------------------------------------------------
# real part


def real_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p with a real root.

    Returns 1 when no factor has a real root (constants included). Per
    squarefree component, a Sturm count of 0 drops it and a count equal to
    its degree (all roots real) keeps it whole; only the rest are factored,
    and of their factors only those of even degree are counted.
    """
    if p.is_zero():
        raise DomainError("real part of the zero polynomial is undefined")
    return _real_part_cached(p._p)


@lru_cache(maxsize=CACHE_SIZE)
def _real_part_cached(prim: tuple[int, ...]) -> Poly:
    out = Poly.one()
    for comp, _mult in kernel.yun(list(prim)):  # each comp and its factors are squarefree
        real = _sturm(comp)
        if real == len(comp) - 1:
            out = out * _monic(comp)
        elif real:
            for f in kernel.zassenhaus(comp):
                if len(f) % 2 == 0 or _sturm(f):
                    out = out * _monic(f)
    return out
