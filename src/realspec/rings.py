"""The ring layer: Q[x] and quotients Q[x]/(m).

Principal ideals in canonical form, annihilators, reality / semi-reality
classification, and real radicals together with verifiable witness
certificates a^(2m) + sum(b_i^2) = cofactor * gen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import DomainError, RingMismatchError
from .polynomials import (
    Poly,
    Factorization,
    count_real_roots,
    ext_gcd,
    factor,
    gcd,
    has_real_root,
    real_part,
)

ElemLike = Union["RingElem", Poly, Fraction, int]


class RingKind(Enum):
    BASE = "base"
    QUOTIENT = "quotient"


@dataclass(frozen=True)
class Ring:
    """Q[x] (BASE) or Q[x]/(modulus) (QUOTIENT, modulus monic of degree >= 1)."""

    kind: RingKind
    modulus: Optional[Poly] = None

    def __post_init__(self):
        if self.kind is RingKind.BASE:
            if self.modulus is not None:
                raise DomainError("base ring takes no modulus")
        else:
            m = self.modulus
            if m is None or m.is_constant():
                raise DomainError("quotient modulus must have degree >= 1")
            if m.leading != 1:
                raise DomainError("quotient modulus must be monic")

    @staticmethod
    def rationals() -> "Ring":
        return Ring(RingKind.BASE)

    @staticmethod
    def quotient(modulus: Poly) -> "Ring":
        return Ring(RingKind.QUOTIENT, modulus)

    @property
    def is_quotient(self) -> bool:
        return self.kind is RingKind.QUOTIENT

    @cached_property
    def modulus_factors(self) -> Factorization:
        assert self.modulus is not None
        return factor(self.modulus)

    @cached_property
    def is_real(self) -> bool:
        if not self.is_quotient:
            return True
        fs = self.modulus_factors.factors
        squarefree = all(mult == 1 for _, mult in fs)
        return squarefree and all(has_real_root(p) for p, _ in fs)

    @cached_property
    def is_semireal(self) -> bool:
        if not self.is_quotient:
            return True
        return any(has_real_root(p) for p, _ in self.modulus_factors.factors)

    # -- construction of elements and ideals ---------------------------

    def elem(self, value: ElemLike) -> "RingElem":
        if isinstance(value, RingElem):
            if value.ring != self:
                raise RingMismatchError("element belongs to a different ring")
            return value
        if isinstance(value, (Fraction, int)):
            value = Poly.const(Fraction(value))
        rep = value % self.modulus if self.is_quotient else value
        return RingElem(self, rep)

    def zero(self) -> "RingElem":
        return RingElem(self, Poly.zero())

    def one(self) -> "RingElem":
        return RingElem(self, Poly.one())

    def ideal(self, generator: ElemLike) -> "Ideal":
        """Principal ideal in canonical form.

        BASE: the monic associate (or 0). QUOTIENT: monic gcd of the lifted
        generator with the modulus, so the canonical generator always divides
        the modulus; the zero ideal is represented by the modulus itself.
        """
        if isinstance(generator, RingElem):
            if generator.ring != self:
                raise RingMismatchError("generator belongs to a different ring")
            lift = generator.rep
        elif isinstance(generator, Poly):
            lift = generator
        else:
            lift = Poly.const(Fraction(generator))
        if not self.is_quotient:
            gen = Poly.zero() if lift.is_zero() else lift.monic()
        else:
            gen = self.modulus if lift.is_zero() else gcd(lift, self.modulus)
        return Ideal(self, gen)

    def zero_ideal(self) -> "Ideal":
        return self.ideal(Poly.zero())

    def unit_ideal(self) -> "Ideal":
        return self.ideal(Poly.one())

    def __str__(self) -> str:
        if self.is_quotient:
            return f"Q[x]/({self.modulus})"
        return "Q[x]"


def make_ring(kind: RingKind, modulus: Optional[Poly] = None) -> Ring:
    return Ring(kind, modulus)


def classify(ring: Ring) -> tuple[bool, bool]:
    """(is_real, is_semireal); is_real always implies is_semireal."""
    return ring.is_real, ring.is_semireal


@dataclass(frozen=True)
class RingElem:
    """Canonical representative: reduced mod the modulus in a quotient."""

    ring: Ring
    rep: Poly

    def _check(self, other: "RingElem") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("elements of different rings")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self.ring.elem(self.rep + other.rep)

    def __sub__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self.ring.elem(self.rep - other.rep)

    def __neg__(self) -> "RingElem":
        return self.ring.elem(-self.rep)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self.ring.elem(self.rep * other.rep)

    def __pow__(self, n: int) -> "RingElem":
        if n < 0:
            raise DomainError("negative power of a ring element")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __str__(self) -> str:
        return str(self.rep)


@dataclass(frozen=True)
class Ideal:
    """Principal ideal with canonical generator (see Ring.ideal)."""

    ring: Ring
    gen: Poly

    def is_zero(self) -> bool:
        if self.ring.is_quotient:
            return self.gen == self.ring.modulus
        return self.gen.is_zero()

    def is_unit(self) -> bool:
        return self.gen.is_one()

    def contains(self, a: RingElem) -> bool:
        if a.ring != self.ring:
            raise RingMismatchError("element belongs to a different ring")
        if self.gen.is_zero():
            return a.is_zero()
        return self.gen.divides(a.rep)

    def product(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals of different rings")
        return self.ring.ideal(self.gen * other.gen)

    def sum(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideals of different rings")
        if self.gen.is_zero():
            return other if not other.gen.is_zero() else self.ring.zero_ideal()
        if other.gen.is_zero():
            return self
        return self.ring.ideal(gcd(self.gen, other.gen))

    def __str__(self) -> str:
        return f"({self.gen})"


def ideal_sum(ring: Ring, gens: Iterable[RingElem]) -> Ideal:
    """The ideal the family generates; the zero ideal for an empty family."""
    acc = ring.zero_ideal()
    for g in gens:
        acc = acc.sum(ring.ideal(g))
    return acc


# ---------------------------------------------------------------------------
# sums of squares and witnessed denominators


@dataclass(frozen=True)
class SumOfSquares:
    """A finite list of elements standing for sum(terms[i]^2); may be empty."""

    terms: tuple[RingElem, ...] = ()

    @staticmethod
    def of(terms: Sequence[RingElem]) -> "SumOfSquares":
        return SumOfSquares(tuple(terms))

    def value(self) -> RingElem:
        if not self.terms:
            raise DomainError("empty sum of squares has no ambient ring; use value_in")
        acc = self.terms[0].ring.zero()
        for t in self.terms:
            acc = acc + t * t
        return acc

    def value_in(self, ring: Ring) -> RingElem:
        acc = ring.zero()
        for t in self.terms:
            if t.ring != ring:
                raise RingMismatchError("sum of squares crosses rings")
            acc = acc + t * t
        return acc

    def lift_value(self) -> Poly:
        acc = Poly.zero()
        for t in self.terms:
            acc = acc + t.rep * t.rep
        return acc


@dataclass(frozen=True)
class SigmaDenominator:
    """Witnessed element f^(2m) + sum of squares of the multiplicative set attached to f."""

    f: RingElem
    m: int
    tail: SumOfSquares = SumOfSquares()

    def __post_init__(self):
        if self.m < 0:
            raise DomainError("denominator exponent must be nonnegative")
        if self.f.is_zero():
            raise DomainError("denominator base element must be nonzero")

    def value(self) -> RingElem:
        ring = self.f.ring
        return self.f ** (2 * self.m) + self.tail.value_in(ring)

    def lift_value(self) -> Poly:
        return self.f.rep ** (2 * self.m) + self.tail.lift_value()


# ---------------------------------------------------------------------------
# annihilators and real radicals


def annihilator(z: RingElem) -> Ideal:
    """Ann(z); the whole ring for z = 0, the zero ideal for z != 0 in Q[x]."""
    ring = z.ring
    if not ring.is_quotient:
        return ring.unit_ideal() if z.is_zero() else ring.zero_ideal()
    m = ring.modulus
    if z.is_zero():
        return ring.unit_ideal()
    return ring.ideal(m // gcd(m, z.rep))


def real_radical(ideal: Ideal) -> Ideal:
    """Smallest real ideal containing the given one.

    The canonical generator is the real part of the canonical generator;
    the unit ideal results exactly when no real prime contains the input.
    """
    ring = ideal.ring
    if ideal.gen.is_zero():
        return ideal  # zero ideal of Q[x] is already real
    return Ideal(ring, real_part(ideal.gen))


def real_radical_member(ideal: Ideal, a: RingElem) -> bool:
    """Strip from gen every factor it shares with a (multiplicities too, by
    repeated gcd); a is a member iff what remains has no real root."""
    gen = ideal.gen
    if gen.is_zero():
        return a.is_zero()
    d = gcd(gen, a.rep)
    while not d.is_one():
        gen = gen // d
        d = gcd(gen, d)
    return count_real_roots(gen) == 0


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class RealRadicalCertificate:
    """Witness of a in the real radical: a^(2m) + sos = cofactor * gen, in the ring."""

    a: RingElem
    m: int
    sos: SumOfSquares
    cofactor: RingElem
    ideal: Ideal

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("certificate exponent must be positive")


def verify_certificate(cert: RealRadicalCertificate) -> bool:
    """Re-expand the identity with ring arithmetic; no trust in the search path."""
    ring = cert.ideal.ring
    if cert.a.ring != ring or cert.cofactor.ring != ring:
        raise RingMismatchError("certificate parts belong to different rings")
    lhs = cert.a ** (2 * cert.m) + cert.sos.value_in(ring)
    rhs = cert.cofactor * ring.elem(cert.ideal.gen)
    return (lhs - rhs).is_zero()


class CertificateStatus(Enum):
    FOUND = "found"
    MEMBER_NO_CERTIFICATE = "member-no-certificate"
    NOT_MEMBER = "not-member"


@dataclass(frozen=True)
class CertificateOutcome:
    status: CertificateStatus
    certificate: Optional[RealRadicalCertificate] = None

    @property
    def found(self) -> bool:
        return self.status is CertificateStatus.FOUND


@dataclass(frozen=True)
class SearchBounds:
    """Effort limits for certificate searches.

    sos_degree None means "degree of the ideal generator". The coefficient
    grid runs over fractions p/q with 1 <= p, q <= coeff_bound.
    """

    m_max: int = 6
    sos_degree: Optional[int] = None
    coeff_bound: int = 8
    pair_coeffs: int = 6

    def __post_init__(self):
        if self.m_max < 1 or self.coeff_bound < 1 or self.pair_coeffs < 1:
            raise DomainError("search bounds must be positive")
        if self.sos_degree is not None and self.sos_degree < 0:
            raise DomainError("sos degree bound must be nonnegative")


DEFAULT_BOUNDS = SearchBounds()


def _coeff_grid(bound: int) -> list[Fraction]:
    vals = {Fraction(p, q) for p in range(1, bound + 1) for q in range(1, bound + 1)}
    # simplest fractions first, deterministic tie-break
    return sorted(vals, key=lambda f: (max(f.numerator, f.denominator), f.denominator, f))


def _sos_value_poly(terms: Sequence[Poly]) -> Poly:
    acc = Poly.zero()
    for t in terms:
        acc = acc + t * t
    return acc


def _multiplicity(p: Poly, q: Poly) -> int:
    """Largest e with q**e dividing p (q nonconstant, p nonzero)."""
    count = 0
    rem = p
    while True:
        quo, r = divmod(rem, q)
        if not r.is_zero():
            return count
        count += 1
        rem = quo


def _least_even_power(gen_factors, a_lift: Poly) -> Optional[int]:
    """Least m with gen | a^(2m), from multiplicities; None if impossible."""
    m = 1
    for p, e in gen_factors:
        va = _multiplicity(a_lift, p)
        if va == 0:
            return None
        m = max(m, -(-e // (2 * va)))  # ceil division
    return m


def _compose_components(a_lift: Poly, parts: Sequence[tuple[int, list[Poly]]]) -> tuple[int, list[Poly]]:
    """Multiply witnesses (a^(2m_i) + S_i) into a single (m, sos term list)."""
    m_acc, sos_acc = parts[0]
    for m_i, sos_i in parts[1:]:
        merged = []
        pow_acc = a_lift**m_acc
        pow_i = a_lift**m_i
        merged.extend(pow_acc * t for t in sos_i)
        merged.extend(pow_i * t for t in sos_acc)
        merged.extend(t * s for t in sos_acc for s in sos_i)
        m_acc, sos_acc = m_acc + m_i, merged
    return m_acc, sos_acc


def _neg_one_sos_mod(target: Poly, bounds: SearchBounds) -> Optional[list[Poly]]:
    """Grid search for square terms with 1 + sum(t_i^2) divisible by target."""
    one = Poly.one()
    degree_cap = max(int(target.degree) - 1, 0)
    grid = _coeff_grid(bounds.coeff_bound)
    monos = [Poly.monomial(1, k) for k in range(degree_cap + 1)]
    singles = [(t, (t * t) % target) for t in (m.scale(c) for m in monos for c in grid)]
    for t, sq in singles:
        if ((one + sq) % target).is_zero():
            return [t]
    trimmed = [
        (t, (t * t) % target)
        for t in (m.scale(c) for m in monos for c in grid[: bounds.pair_coeffs])
    ]
    for (t1, sq1), (t2, sq2) in itertools.combinations_with_replacement(trimmed, 2):
        if ((one + sq1 + sq2) % target).is_zero():
            return [t1, t2]
    return None


def find_certificate(
    ideal: Ideal, a: RingElem, bounds: SearchBounds = DEFAULT_BOUNDS
) -> CertificateOutcome:
    """Decide membership exactly, then search for an explicit witness identity.

    Membership in the real radical is always settled (via the real part);
    the identity search is best effort within the bounds. A Found outcome
    has been verified by independent re-expansion before being returned.
    """
    ring = ideal.ring
    a = ring.elem(a)
    if not real_radical_member(ideal, a):
        return CertificateOutcome(CertificateStatus.NOT_MEMBER)

    gen = ideal.gen
    if a.is_zero() or gen.is_zero():
        # 0^(2m) = 0 * gen; and the zero ideal of Q[x] only contains a = 0
        cert = RealRadicalCertificate(a, 1, SumOfSquares(), ring.zero(), ideal)
        return _checked(cert)
    a_lift = a.rep
    if gen.is_one():
        cofactor = ring.elem(a_lift * a_lift)
        cert = RealRadicalCertificate(a, 1, SumOfSquares(), cofactor, ideal)
        return _checked(cert)

    gen_factors = factor(gen).factors

    # fast path: every irreducible factor of gen is real-rooted, so some even
    # power of a is already an exact multiple of gen
    if all(has_real_root(p) for p, _ in gen_factors):
        m = _least_even_power(gen_factors, a_lift)
        if m is None:
            raise AssertionError("membership guarantees divisibility by real factors")
        v = a_lift ** (2 * m)
        cert = RealRadicalCertificate(
            a, m, SumOfSquares(), ring.elem(v // gen), ideal
        )
        return _checked(cert)

    # single-tail grid first (cheap, finds the simple classical identities),
    # then the structured per-prime-power route, then two-tail grids
    direct = _direct_grid_search(ideal, a, bounds, pairs=False)
    if direct is not None:
        return _checked(direct)

    composed = _composed_search(ideal, a, bounds)
    if composed is not None:
        return _checked(composed)

    direct = _direct_grid_search(ideal, a, bounds, pairs=True)
    if direct is not None:
        return _checked(direct)

    return CertificateOutcome(CertificateStatus.MEMBER_NO_CERTIFICATE)


def _checked(cert: RealRadicalCertificate) -> CertificateOutcome:
    if not verify_certificate(cert):
        raise AssertionError("internal error: constructed certificate failed to verify")
    return CertificateOutcome(CertificateStatus.FOUND, cert)


def _pow_mod(p: Poly, n: int, mod: Poly) -> Poly:
    result = Poly.one() % mod
    base = p % mod
    while n:
        if n & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        n >>= 1
    return result


def _direct_grid_search(
    ideal: Ideal, a: RingElem, bounds: SearchBounds, pairs: bool
) -> Optional[RealRadicalCertificate]:
    gen = ideal.gen
    a_lift = a.rep
    degree_cap = bounds.sos_degree
    if degree_cap is None:
        degree_cap = max(int(gen.degree), 0)
    grid = _coeff_grid(bounds.coeff_bound)
    monos = [Poly.monomial(1, k) for k in range(degree_cap + 1)]

    def hit(m: int, terms: list[Poly]) -> RealRadicalCertificate:
        v = a_lift ** (2 * m) + _sos_value_poly(terms)
        return _build(ideal, a, m, terms, v)

    if pairs:
        pool = [mono.scale(c) for mono in monos for c in grid[: bounds.pair_coeffs]]
        if len(pool) > 120:  # keep exhaustion deterministic and fast
            return None
        pool_sq = [(t, (t * t) % gen) for t in pool]
        for m in range(1, bounds.m_max + 1):
            base = _pow_mod(a_lift, 2 * m, gen)
            for (t1, sq1), (t2, sq2) in itertools.combinations_with_replacement(pool_sq, 2):
                if ((base + sq1 + sq2) % gen).is_zero():
                    return hit(m, [t1, t2])
        return None
    candidates = [mono.scale(c) for mono in monos for c in grid]
    cand_sq = [(t, (t * t) % gen) for t in candidates]
    for m in range(1, bounds.m_max + 1):
        base = _pow_mod(a_lift, 2 * m, gen)
        if base.is_zero():
            return hit(m, [])
        for t, sq in cand_sq:
            if ((base + sq) % gen).is_zero():
                return hit(m, [t])
    return None


def _composed_search(
    ideal: Ideal, a: RingElem, bounds: SearchBounds
) -> Optional[RealRadicalCertificate]:
    """Per prime-power witnesses composed multiplicatively.

    For each p^e dividing gen: if p divides a, an even power of a is zero
    mod p^e; otherwise p has no real root (membership rules that out for
    real-rooted p) and a witness needs a sum of squares congruent to -1
    mod p^e, found by grid search and then scaled by a power of a.
    """
    ring = ideal.ring
    gen = ideal.gen
    a_lift = a.rep
    parts: list[tuple[int, list[Poly]]] = []
    for p, e in factor(gen).factors:
        target = p**e
        va = _multiplicity(a_lift, p)
        if va > 0:
            parts.append((-(-e // (2 * va)), []))
            continue
        sos = _neg_one_sos_mod(target, bounds)
        if sos is None:
            return None
        parts.append((1, [a_lift * t for t in sos]))
    m, sos_terms = _compose_components(a_lift, parts)
    v = a_lift ** (2 * m) + _sos_value_poly(sos_terms)
    if not gen.divides(v):
        return None
    return _build(ideal, a, m, sos_terms, v)


def _build(
    ideal: Ideal, a: RingElem, m: int, sos_terms: Sequence[Poly], v: Poly
) -> RealRadicalCertificate:
    ring = ideal.ring
    sos = SumOfSquares(tuple(ring.elem(t) for t in sos_terms))
    cofactor = ring.elem(v // ideal.gen)
    return RealRadicalCertificate(a, m, sos, cofactor, ideal)


def express_gen_as_multiple(ideal: Ideal, original: RingElem) -> RingElem:
    """Return s with gen = s * original in the ring, for original generating the ideal.

    In Q[x] this is the inverse leading coefficient; in a quotient it comes
    from the extended Euclid identity gcd = s*lift + t*modulus.
    """
    ring = ideal.ring
    if not ring.is_quotient:
        return ring.elem(Poly.const(Fraction(1) / original.rep.leading))
    if original.is_zero():
        return ring.one()  # gen is the modulus, which is 0 in the ring
    g, s, _t = ext_gcd(original.rep, ring.modulus)
    if g != ideal.gen:
        raise DomainError("element does not generate the ideal")
    return ring.elem(s)
