"""Sections of the structure sheaf over basic opens and the localization
at the multiplicative set Sigma_f of f^(2m) + sums of squares.

A section over D(f) is stored as a finite cover by D(g_i) with local
fractions a_i/g_i. The module gives exact equality decisions for both
sides of the canonical map psi (localization to sections) and in the stalks,
the equalizing rewrite that makes g_i*a_j = g_j*a_i hold on the nose, and
the gluing construction producing a single fraction. Its certificate is the
library's one `rings.Certificate`, the identity sum(b_i*g_i) = f^(2k) + sum
of squares over the patch denominators, checked by the one
`rings.verify_certificate`; `verify_glue` adds the closing identity
g_i*a = den*a_i on every patch.

Each equality below is one rule: a kernel divides the cross difference.

For A = Q[x]/(m) (Q[x] is m = 0) let R_f be the product of the prime powers
p^e exactly dividing m with p real-rooted and p not dividing f (0 in Q[x]
for f != 0). In every A, s*c = 0 for some s in Sigma_f exactly when R_f
divides c, that is, as the p^e are coprime, when every real p^e with p not
dividing f divides c (c = 0 or f = 0 in Q[x]): `_vanishes`, for `sigma_eq`
and, with f = g_i g_j, the overlap test of `section_validate` and `section_eq`.
- For m != 0, s = f^(2k) + sos in Sigma_f is a unit mod R_f: at a real root
  r of such a p, f(r) != 0, so s(r) > 0 and p does not divide s. Conversely
  every real factor of m / R_f divides f, so f lies in the real radical of
  (m / R_f) and some s in Sigma_f is a multiple of m / R_f. So
  Sigma_f^-1 A = A/(R_f) = Gamma(D(f)), real ring or not.
- For m = 0 and f != 0 only the kernel statement holds: Q[x] is a domain and s != 0,
  so s*c = 0 exactly when c = 0 = R_f. Yet Sigma_f^-1 Q[x] is not
  Q[x]/(R_f) = Q[x]: 1/(1+x^2) lies in it. Over Q[x], psi is onto
  Gamma(D(f)) by the paper's theorem, which glue's certificate shows each
  time.
- The real idempotent e (1 mod the real prime powers of m, 0 mod the rest)
  kills the non-real part of m, so e (g_i g_j)^N c_ij = 0, c_ij = a_i g_j -
  a_j g_i, iff every real p^k of m divides (g_i g_j)^N c_ij. Some N up to the
  largest real multiplicity does it iff each such p divides g_i g_j or p^k |
  c_ij; in Q[x] (e = 1, N <= 1) iff c_ij = 0 or g_i g_j = 0: iff the pair
  agrees (`_vanishes`), so `equalize`'s search for N is the pair test. The
  patches (e g_i^N a_i, g_i^(N+1)) then agree exactly and still restrict the
  section (e = 1 mod R_(g_i)), and `glue` always ends in a fraction.

At a real prime P = (p) the stalk is A_P = A/(p^e), p^e the power of p
exactly dividing m (p^e = 0 in Q[x], for the zero prime and for a principal
one, as Q[x]_P is a domain). Two germs agree when s*c = 0 for some s outside
P, c the cross difference, i.e. when Ann(c) is not inside P. Ann(c) is
(m / gcd(m, c)) (the unit ideal for c = 0), and p divides m / gcd(m, c)
exactly when p^e does not divide c. So the germs agree iff p^e | c:
`stalk_eq`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InternalError, NotASectionError, OutOfDomainError, RingMismatchError
from .polynomials import Poly, check_size
from .rings import (
    Certificate,
    Ring,
    RingElem,
    SigmaDenominator,
    combination_certificate,
    verify_certificate,
)
from .spectrum import RealPrime, cover_check, v_of


@dataclass(frozen=True)
class LocalFraction:
    """The fraction numerator/denominator on D(denominator)."""

    numerator: RingElem
    denominator: RingElem

    def __str__(self) -> str:
        return f"{self.numerator} / {self.denominator}"


@dataclass(frozen=True)
class Section:
    """Local fractions over a finite cover of D(f)."""

    ring: Ring
    f: RingElem
    patches: tuple[LocalFraction, ...]

    def __post_init__(self):
        if not self.patches:
            raise DomainError("a section needs at least one patch")
        for p in self.patches:
            if p.numerator.ring != self.ring or p.denominator.ring != self.ring:
                raise RingMismatchError("patch crosses rings")
        if self.f.ring != self.ring:
            raise RingMismatchError("domain element belongs to a different ring")

    def denominators(self) -> list[RingElem]:
        return [p.denominator for p in self.patches]


@dataclass(frozen=True)
class SigmaFraction:
    """Element numerator/denominator of the localization at the set of f."""

    numerator: RingElem
    denominator: SigmaDenominator

    @property
    def f(self) -> RingElem:
        return self.denominator.f

    def __str__(self) -> str:
        return f"{self.numerator} / {self.denominator.value()}"


@dataclass(frozen=True)
class StalkElement:
    """Germ numerator/denominator at a prime, denominator outside the prime."""

    prime: RealPrime
    numerator: RingElem
    denominator: RingElem

    def __post_init__(self):
        if self.prime.contains(self.denominator):
            raise DomainError("stalk denominator lies in the prime")

    def __str__(self) -> str:
        return f"{self.numerator} / {self.denominator} at {self.prime}"


@dataclass(frozen=True)
class ValidationReport:
    cover_ok: bool
    bad_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.cover_ok and not self.bad_pairs


# ---------------------------------------------------------------------------
# equality in the localization


def _vanishes(g: RingElem, c: RingElem) -> bool:
    """Whether s*c = 0 for some s in Sigma_g (see the module docstring)."""
    ring = g.ring
    if not ring.is_quotient:
        return c.is_zero() or g.is_zero()
    return all(p.divides(g.rep) or (p**e).divides(c.rep) for p, e in ring.real_factors)


def sigma_eq(u: SigmaFraction, v: SigmaFraction) -> bool:
    """Equality in the localization A/(R_f): the cross difference vanishes there."""
    if v.numerator.ring != u.numerator.ring:
        raise RingMismatchError("fractions of different rings")
    if u.f != v.f:
        raise DomainError("fractions over different localizations")
    cross = u.numerator * v.denominator.value() - v.numerator * u.denominator.value()
    return _vanishes(u.f, cross)


# ---------------------------------------------------------------------------
# the canonical map psi


def psi(u: SigmaFraction) -> Section:
    """Single-patch section of u over D(f); the denominator is invertible
    there because a real prime containing f^(2m) + sum of squares contains f."""
    ring = u.numerator.ring
    den = u.denominator.value()
    # containment D(f) within D(den): primes avoiding f avoid den
    if not cover_check(u.f, [den]):
        raise InternalError("denominator fails to cover its basic open")
    return Section(ring, u.f, (LocalFraction(u.numerator, den),))


# ---------------------------------------------------------------------------
# validation


def _overlap_compatible(p: LocalFraction, q: LocalFraction) -> bool:
    cross = p.numerator * q.denominator - q.numerator * p.denominator
    return _vanishes(p.denominator * q.denominator, cross)


def section_validate(s: Section) -> ValidationReport:
    """Cover decision plus pairwise overlap agreement, both exact."""
    if s.f.is_zero():
        return ValidationReport(False, ())
    cover_ok = cover_check(s.f, s.denominators())
    bad: list[tuple[int, int]] = []
    for i in range(len(s.patches)):
        for j in range(i + 1, len(s.patches)):
            if not _overlap_compatible(s.patches[i], s.patches[j]):
                bad.append((i, j))
    return ValidationReport(cover_ok, tuple(bad))


# ---------------------------------------------------------------------------
# equalize


def equalize(s: Section) -> Section:
    """Same section, rewritten so g_i * a_j = g_j * a_i holds exactly: s
    itself when every cross term c_ij = a_i g_j - a_j g_i is 0, else the
    patches (e g_i^N a_i, g_i^(N+1)) for the real idempotent e and the least
    N with e (g_i g_j)^N c_ij = 0 for all pairs. After the cover check, the
    search for N within its bound is the pair test (see the module docstring)."""
    if s.f.is_zero() or not cover_check(s.f, s.denominators()):
        raise NotASectionError("the local data is not a section")
    ring, pats = s.ring, s.patches
    pairs = [
        (p.numerator * q.denominator - q.numerator * p.denominator, p.denominator * q.denominator)
        for i, p in enumerate(pats)
        for q in pats[i + 1:]
    ]
    if all(cross.is_zero() for cross, _ in pairs):
        return s
    e = ring.real_idempotent
    # see the module docstring: N is at most the largest real multiplicity
    bound = max((mult for _, mult in ring.real_factors), default=1)
    n = 0
    for cross, prod in pairs:
        acc, k = e * cross, 0
        while not acc.is_zero():
            k += 1
            if k > bound:
                raise NotASectionError("the local data is not a section")
            acc = acc * prod
        n = max(n, k)
    patches = tuple(
        LocalFraction(e * p.denominator**n * p.numerator, p.denominator ** (n + 1)) for p in pats
    )
    return Section(ring, s.f, patches)


# ---------------------------------------------------------------------------
# glue


class GlueStatus(Enum):
    GLUED = "glued"


@dataclass(frozen=True)
class GlueOutcome:
    status: GlueStatus
    fraction: SigmaFraction
    certificate: Certificate
    equalized: Section

    @property
    def glued(self) -> bool:
        return self.status is GlueStatus.GLUED


def glue(s: Section) -> GlueOutcome:
    """Assemble a section into a single fraction of the localization; it
    always succeeds, over Q[x] and every Q[x]/(m).

    `equalize` validates the section, once. The certificate's gens are the
    equalized denominators; `combination_certificate` has verified it, so
    only the closing identity is checked here, once the new fractions are costed.
    """
    ring = s.ring
    eq = equalize(s)
    cert = combination_certificate(s.f, eq.denominators())
    num = ring.zero()
    for b, p in zip(cert.coeffs, eq.patches):
        num = num + b * p.numerator
    for v in (num, *(q for p in eq.patches for q in (p.numerator, p.denominator))):
        check_size(v.rep.degree, v.rep.height.bit_length(), "glue numerator or patch", dense=False)
    result = SigmaFraction(num, SigmaDenominator(s.f, cert.m, cert.sos))
    if not _closes(eq, result):
        raise InternalError("internal error: glue result failed verification")
    return GlueOutcome(GlueStatus.GLUED, result, cert, eq)


def verify_glue(eq: Section, result: SigmaFraction, cert: Certificate) -> bool:
    """verify_certificate for a certificate over eq's denominators whose
    f^(2m) + sos is the fraction's denominator, plus the closing identity
    g_j*a = den*a_j per patch."""
    own = SigmaDenominator(cert.f, cert.m, cert.sos)
    if cert.f != eq.f or cert.gens != tuple(eq.denominators()) or result.denominator != own:
        return False
    return verify_certificate(cert) and _closes(eq, result)


def _closes(eq: Section, result: SigmaFraction) -> bool:
    den = result.denominator.value()
    return all(
        (p.denominator * result.numerator - den * p.numerator).is_zero() for p in eq.patches
    )


# ---------------------------------------------------------------------------
# stalks


def stalk_at(s: Section, p: RealPrime) -> StalkElement:
    """Germ of the section at a prime of its domain."""
    if p.ring != s.ring:
        raise RingMismatchError("prime belongs to a different ring")
    if p.contains(s.f):
        raise OutOfDomainError("prime lies outside D(f)")
    for patch in s.patches:
        if not p.contains(patch.denominator):
            return StalkElement(p, patch.numerator, patch.denominator)
    raise NotASectionError(f"no patch covers the prime {p}")


def stalk_eq(e1: StalkElement, e2: StalkElement) -> bool:
    """Equality in A_P = A/(p^e): p^e divides the cross difference (see the
    module docstring; p^e is 0 in Q[x])."""
    if e1.prime != e2.prime:
        raise DomainError("germs at different primes are incomparable")
    ring, p = e1.prime.ring, e1.prime.gen
    pe = p ** dict(ring.real_factors)[p] if ring.is_quotient else Poly.zero()
    cross = e1.numerator * e2.denominator - e2.numerator * e1.denominator
    return pe.divides(cross.rep)


# ---------------------------------------------------------------------------
# pointwise equality of sections


def section_eq(s1: Section, s2: Section) -> bool:
    """Agreement on every overlap of patches, hence on all of D(f)."""
    if s1.ring != s2.ring:
        raise RingMismatchError("sections of different rings")
    d1 = v_of(s1.ring.ideal(s1.f))
    d2 = v_of(s2.ring.ideal(s2.f))
    if d1 != d2:
        raise DomainError("sections over different basic opens")
    for p in s1.patches:
        for q in s2.patches:
            if not _overlap_compatible(p, q):
                return False
    return True
