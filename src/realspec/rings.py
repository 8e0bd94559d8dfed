"""The ring layer: Q[x] and quotients Q[x]/(m).

A ring is Q[x]/(m) for one modulus m, and Q[x] is the quotient by m = 0:
elements are reduced mod m when m != 0, and the canonical generator of
every ideal divides m (zero divides only zero), so the zero ideal is (m).
Principal ideals in canonical form, annihilators, reality / semi-reality
classification, and real radicals with witness certificates. Every
certificate of the library is one `Certificate`, standing for the one
identity sum(coeffs[i] * gens[i]) = f^(2m) + sum of squares, the real
Nullstellensatz witness that f lies in the real radical of the ideal the
gens generate; `verify_certificate` is its one verifier. `find_certificate`
builds one, with no search, for every member a of a principal ideal's real
radical, always of the one shape a^(2m) * (1 + T) with T a weighted sum of
squares (see its docstring for the proof), and `combination_certificate`
spreads it over a whole family of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence, Union

import mpmath
from sympy.solvers.diophantine.diophantine import sum_of_four_squares

from .errors import DomainError, InternalError, RingMismatchError
from .polynomials import (
    CACHE_SIZE,
    Poly,
    Factorization,
    bezout_many,
    check_size,
    ext_gcd,
    factor,
    gcd,
    has_real_root,
    has_real_root_outside,
    power,
    real_part,
)

ElemLike = Union["RingElem", Poly]


@dataclass(frozen=True)
class Ring:
    """Q[x]/(modulus): modulus 0 is Q[x] itself, the quotient by the zero
    ideal; any other modulus is monic of degree >= 1."""

    modulus: Poly

    def __post_init__(self):
        m = self.modulus
        if m.is_zero():
            return
        if m.is_constant():
            raise DomainError("quotient modulus must have degree >= 1")
        if m.leading != 1:
            raise DomainError("quotient modulus must be monic")

    @staticmethod
    def rationals() -> "Ring":
        return Ring(Poly.zero())

    @staticmethod
    def quotient(modulus: Poly) -> "Ring":
        """Q[x]/(modulus) for a proper modulus; 0 is refused here."""
        if modulus.is_zero():
            raise DomainError("quotient modulus must have degree >= 1")
        return Ring(modulus)

    @cached_property
    def is_quotient(self) -> bool:
        """Whether elements are reduced, decided once per ring."""
        return not self.modulus.is_zero()

    @cached_property
    def modulus_factors(self) -> Factorization:
        return factor(self.modulus)

    @cached_property
    def real_factors(self) -> tuple[tuple[Poly, int], ...]:
        """The (p, e) of the modulus with p real-rooted; none in Q[x]."""
        if not self.is_quotient:
            return ()
        return tuple((p, e) for p, e in self.modulus_factors.factors if has_real_root(p))

    @cached_property
    def is_real(self) -> bool:
        if not self.is_quotient:
            return True
        fs = self.modulus_factors.factors
        return len(self.real_factors) == len(fs) and all(e == 1 for _, e in fs)

    @cached_property
    def is_semireal(self) -> bool:
        return not self.is_quotient or bool(self.real_factors)

    @cached_property
    def real_idempotent(self) -> "RingElem":
        """e = 1 mod the real-rooted prime powers r of the modulus and 0 mod
        the rest n = m / r: e = t*n from s*r + t*n = 1. It is 1 in Q[x], and
        whenever n = 1 (then t = 1)."""
        if not self.is_quotient:
            return self.one()
        real = Poly.one()
        for p, mult in self.real_factors:
            real = real * p**mult
        rest = self.modulus // real
        return self.elem(ext_gcd(real, rest)[2] * rest)

    # -- construction of elements and ideals ---------------------------

    def elem(self, value: ElemLike) -> "RingElem":
        """value itself, or the element a Poly lifts (reduced in a quotient)."""
        if isinstance(value, RingElem):
            if value.ring != self:
                raise RingMismatchError("element belongs to a different ring")
            return value
        rep = value % self.modulus if self.is_quotient else value
        return RingElem(self, rep)

    def zero(self) -> "RingElem":
        return RingElem(self, Poly.zero())

    def one(self) -> "RingElem":
        return RingElem(self, Poly.one())

    def ideal(self, generator: ElemLike) -> "Ideal":
        """Principal ideal in canonical form (see ideal_sum)."""
        return ideal_sum(self, (generator,))

    def zero_ideal(self) -> "Ideal":
        return self.ideal(Poly.zero())

    def unit_ideal(self) -> "Ideal":
        return self.ideal(Poly.one())

    def __str__(self) -> str:
        if self.is_quotient:
            return f"Q[x]/({self.modulus})"
        return "Q[x]"


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
        return power(self, n, self.ring.one())

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __str__(self) -> str:
        return str(self.rep)


@dataclass(frozen=True)
class Ideal:
    """Principal ideal with canonical generator (see ideal_sum)."""

    ring: Ring
    gen: Poly

    def __str__(self) -> str:
        return f"({self.gen})"


def ideal_sum(ring: Ring, gens: Iterable[ElemLike]) -> Ideal:
    """The ideal, in canonical form, that elements of ring or Poly lifts generate.

    The monic gcd of the lifts and the modulus, so the generator always
    divides the modulus and the zero ideal is the modulus itself (0 in Q[x]):
    one gcd per nonzero lift, folded from the zero ideal on (gcd(0, g) is
    monic g). `bezout_many` gives the same gcd with Bezout coefficients.
    """
    acc = ring.modulus
    for g in gens:
        if isinstance(g, RingElem):
            if g.ring != ring:
                raise RingMismatchError("generator belongs to a different ring")
            g = g.rep
        if not g.is_zero():
            acc = gcd(acc, g)
    return Ideal(ring, acc)


# ---------------------------------------------------------------------------
# sums of squares and witnessed denominators


@dataclass(frozen=True)
class SumOfSquares:
    """A finite list of elements standing for sum(terms[i]^2); may be empty."""

    terms: tuple[RingElem, ...] = ()

    def value_in(self, ring: Ring) -> RingElem:
        acc = ring.zero()
        for t in self.terms:
            if t.ring != ring:
                raise RingMismatchError("sum of squares crosses rings")
            acc = acc + t * t
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


# ---------------------------------------------------------------------------
# annihilators and real radicals


def annihilator(z: RingElem) -> Ideal:
    """Ann(z) = (m / gcd(m, z)); the whole ring for z = 0, the zero ideal for
    z != 0 in Q[x] (m = 0)."""
    ring = z.ring
    if z.is_zero():
        return ring.unit_ideal()
    m = ring.modulus
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
    """a is a member iff every real prime containing the ideal contains a,
    so iff gen has no real root that a lacks (the real Nullstellensatz)."""
    gen = ideal.gen
    if gen.is_zero():
        return a.is_zero()
    return not has_real_root_outside(gen, a.rep)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Witness sum(coeffs[i] * gens[i]) = f^(2m) + sos, in the ring of f.

    It shows f in the real radical of the ideal the gens generate. A
    real-radical certificate has the ideal's generator as its one gen and
    the cofactor as its coefficient; a subcover or glue certificate has the
    subcover or the patch denominators as its gens.
    """

    f: RingElem
    m: int
    sos: SumOfSquares
    gens: tuple[RingElem, ...]
    coeffs: tuple[RingElem, ...]


def checked_power(base: RingElem, m: int, dense: bool = False) -> int:
    """m, after refusing m < 0 and a base^(2m) over the budget: degree 2m *
    max(deg base, 1), bits 2m * bit length of the height. It is costed as
    dense, but as a shift for a one-term base in Q[x] unless dense. A refusal
    names a word-size monomial as printed, any other base by its degree."""
    if m < 0:
        raise DomainError(f"exponent {m} is negative")
    n, rep = 2 * m, base.rep
    named = rep.terms == 1 and rep.height.bit_length() <= 64
    what, name = ("({})^({})", base) if named else ("(a degree-{} polynomial)^({})", rep.degree)
    dense = dense or rep.terms != 1 or base.ring.is_quotient
    check_size(n * max(rep.degree, 1), n * rep.height.bit_length(), what, name, n, dense=dense)
    return m


def verify_certificate(cert: Certificate) -> bool:
    """Re-expand the identity with ring arithmetic; no trust in the construction."""
    rest = cert.f ** (2 * cert.m) + cert.sos.value_in(cert.f.ring)
    for c, g in zip(cert.coeffs, cert.gens, strict=True):
        rest = rest - c * g
    return rest.is_zero()


class CertificateStatus(Enum):
    FOUND = "found"
    NOT_MEMBER = "not-member"


@dataclass(frozen=True)
class CertificateOutcome:
    status: CertificateStatus
    certificate: Optional[Certificate] = None

    @property
    def found(self) -> bool:
        return self.status is CertificateStatus.FOUND


# A weighted sum of squares: pairs (w, h) standing for sum(w * h^2), w > 0.
Weighted = list[tuple[Fraction, Poly]]


def _multiplicity(p: Poly, q: Poly, cap: int) -> int:
    """Largest v <= cap with q**v dividing p (q nonconstant, p nonzero)."""
    count = 0
    while count < cap:
        p, r = divmod(p, q)
        if not r.is_zero():
            break
        count += 1
    return count


def _merge(terms, mod: Poly) -> Weighted:
    """Reduce each h mod `mod`, make it monic (its leading coefficient
    squared moves into the weight) and add up the weights of equal h."""
    acc: dict[Poly, Fraction] = {}
    for w, h in terms:
        h = h % mod
        if not h.is_zero():
            key = h.monic()
            acc[key] = acc.get(key, Fraction(0)) + w * h.leading * h.leading
    return [(w, h) for h, w in acc.items()]


def _positive_definite(p: Poly) -> bool:
    if p.is_zero() or p.leading <= 0:
        return False
    return not has_real_root(p)


def _weighted_sos(p: Poly) -> Weighted:
    """p = sum(w * h^2) with every w > 0 and deg h <= deg(p) / 2, for p
    positive definite.

    Completes the square exactly, p = lc * s^2 + r with deg r < deg s, and
    recurses on r while r stays positive definite; otherwise falls back to
    the perturbed numerical route.
    """
    if p.is_constant():
        return [(p.leading, Poly.one())]
    d = p.degree // 2
    q = p.scale(1 / p.leading)
    s = [Fraction(0)] * d + [Fraction(1)]
    for k in range(d - 1, -1, -1):
        # coefficient d+k of s^2 is 2*s_k plus products of s_i, s_j with k < i, j < d
        known = sum((s[i] * s[d + k - i] for i in range(k + 1, d)), Fraction(0))
        s[k] = (q.coefficient(d + k) - known) / 2
    s_poly = Poly(s)
    r = p - (s_poly * s_poly).scale(p.leading)
    head = [(p.leading, s_poly)]
    if r.is_zero():
        return head
    if _positive_definite(r):
        return head + _weighted_sos(r)
    return _perturbed_sos(p)


def _upper_root_product(p: Poly, prec: int) -> Optional[tuple[Poly, Poly]]:
    """(s, t) with s + i*t the product of x - z over the roots z of p in the
    upper half-plane, coefficients rounded to multiples of 2^-prec; None if
    the roots at this precision do not split evenly across the real axis."""
    with mpmath.workprec(prec + 20):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=4 * prec)
        except mpmath.NoConvergence:
            return None
        upper = [z for z in roots if mpmath.im(z) > 0]
        if 2 * len(upper) != p.degree:
            return None
        prod = [mpmath.mpc(1)]
        for z in upper:  # multiply by x - z
            prod = [
                (prod[k - 1] if k else 0) - (z * prod[k] if k < len(prod) else 0)
                for k in range(len(prod) + 1)
            ]

        def rounded(values) -> Poly:
            scaled = (int(mpmath.nint(mpmath.ldexp(v, prec))) for v in values)
            return Poly(Fraction(n, 1 << prec) for n in scaled)

        return rounded(c.real for c in prod), rounded(c.imag for c in prod)


def _perturbed_sos(p: Poly) -> Weighted:
    """univsos2 (Magron, Safey El Din and Schweighofer): p = sum(w * h^2)
    for p positive definite of degree 2d.

    Take eps with p_eps = p - eps * sum_{k<=d} x^(2k) still positive, round
    an approximate factorization p_eps ~ lc * (s^2 + t^2) from its complex
    roots to rationals, and absorb the exact remainder u into the eps
    terms: odd terms through (x^(i+1) +- x^i)^2, and what is left on each
    even power must stay nonnegative. Higher precision shrinks u while eps
    stays fixed, so doubling it ends the loop. A p that is not positive
    definite is a `DomainError`: for a real root no eps > 0 is small enough.
    """
    if not _positive_definite(p):
        raise DomainError("univsos2 needs a positive definite polynomial")
    d = p.degree // 2
    evens = Poly([1 - k % 2 for k in range(2 * d + 1)])
    eps = p.leading / 2
    while has_real_root(p - evens.scale(eps)):
        eps /= 2
    p_eps = p - evens.scale(eps)
    lc = p_eps.leading
    prec = 16
    while True:
        approx = _upper_root_product(p_eps, prec)
        prec *= 2
        if approx is None:
            continue
        s, t = approx
        u = p_eps - (s * s + t * t).scale(lc)
        odd = [u.coefficient(2 * i + 1) for i in range(d)]
        half = [Fraction(0)] + [abs(c) / 2 for c in odd] + [Fraction(0)]
        even = [eps + u.coefficient(2 * i) - half[i] - half[i + 1] for i in range(d + 1)]
        if min(even) < 0:
            continue
        out = [(lc, s), (lc, t)]
        out += [
            (abs(c) / 2, Poly.monomial(1, i + 1) + Poly.monomial(1 if c > 0 else -1, i))
            for i, c in enumerate(odd)
        ]
        out += [(c, Poly.monomial(1, i)) for i, c in enumerate(even)]
        return [(w, h) for w, h in out if w and not h.is_zero()]


@lru_cache(maxsize=CACHE_SIZE)
def _neg_one_sos_mod(p: Poly) -> tuple[tuple[Fraction, Poly], ...]:
    """S with 1 + S = 0 mod p, for p monic irreducible without real roots;
    cached per p, as a tuple that no caller can change.

    From p = sum(w_i * h_i^2): every h_i has degree below deg p, so a nonzero
    h_j is a unit mod the irreducible p, and dividing by w_j * h_j^2 gives
    -1 = sum_{i != j} (w_i / w_j) * (h_i / h_j)^2 mod p.
    """
    terms = _weighted_sos(p)
    j = min(range(len(terms)), key=lambda i: terms[i][1].degree)  # a constant if any
    w_j, h_j = terms.pop(j)
    inverse = ext_gcd(h_j, p)[1]
    return tuple(_merge(((w / w_j, h * inverse) for w, h in terms), p))


def _neg_one_mod(parts: Sequence[tuple[Poly, int]]) -> Weighted:
    """T with 1 + T = 0 mod U, the product of the p^e over the parts, each p
    monic irreducible without real roots; [] for no parts. S comes from
    prod(1 + S_p) = 1 + S, expanded as (1 + S)(1 + S_p) = 1 + S + S_p + S*S_p,
    and T = S * w^2 with w the lift of find_certificate's proof.
    """
    rest = math.prod((p**e for p, e in parts), start=Poly.one())
    top, sos = max((e for _, e in parts), default=1), []
    for p, _ in parts:
        s_p = _neg_one_sos_mod(p)
        sos = _merge([*sos, *s_p, *((w * v, t * s) for w, t in sos for v, s in s_p)], rest)
    u = Poly.one()
    for w, t in sos:
        u = u + (t * t).scale(w)
    lift = Poly.zero()
    for k in range(top - 1, -1, -1):  # Horner in u
        lift = (lift * u + Poly.const(Fraction(math.comb(2 * k, k), 4**k))) % rest
    return _merge(((w, t * lift) for w, t in sos), rest)


def _squares(terms: Weighted) -> list[Poly]:
    """Plain squares: a square weight gives one term, any other weight n/d
    the four terms of n*d = sum(q_k^2) (Lagrange), scaled by 1/d."""
    out: list[Poly] = []
    for w, h in terms:
        n, d = w.numerator, w.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            out.append(h.scale(Fraction(rn, rd)))
        else:
            out.extend(h.scale(Fraction(q, d)) for q in sum_of_four_squares(n * d) if q)
    return out


def find_certificate(ideal: Ideal, a: RingElem) -> CertificateOutcome:
    """Decide membership exactly and construct an explicit witness identity
    a^(2m) + sum(s_i^2) = cofactor * gen for every member: a `Certificate`
    with f = a, the one gen ring.elem(gen) and the one coefficient cofactor.

    The witness is a^(2m) * (1 + T), built in one pass over the factors
    p^e of gen. Those with p | a, to order v, make up gen / U, and
    m = max(1, ceil(e / 2v)) over them makes a^(2m) = 0 mod gen / U. The
    others make up U, and a is a member exactly when none of them has a
    real root (a real-rooted p would be a real prime holding gen and not a),
    so the same pass decides membership; a = 0 is always a member, and the
    zero ideal of Q[x] holds nothing else.
    T is a weighted sum of squares with 1 + T = 0 mod U (`_neg_one_mod`), so
    a^(2m) + sum(w * (a^m * h)^2) = 0 mod gen:
    - a monic irreducible p without real roots is positive on R, so
      (Artin-Schreier; over Q, Pourchet) p = sum(w_i * h_i^2) with rationals
      w_i > 0 and deg h_i <= deg(p)/2. A nonzero h_j has degree below deg p,
      so it is invertible mod the irreducible p; dividing by w_j * h_j^2
      gives 1 + S_p = 0 mod p with S_p = sum_{i != j} (w_i/w_j) * (h_i/h_j)^2.
    - u = prod(1 + S_p) over the distinct p of U is 1 + S with S a weighted
      sum of squares, and u = 0 mod every p, so u^e = 0 mod U for the
      largest multiplicity e.
    - w = sum_{k<e} C(2k,k)/4^k * u^k is (1 - u)^(-1/2) cut at u^e, so
      w^2 = sum_{k<e} u^k mod u^e and (1 - u) * w^2 = 1 - u^e = 1 mod U.
      As 1 - u = -S, T = S * w^2 has 1 + T = 0 mod U, with S's weights and
      number of terms. For e = 1, w = 1; for U = 1, T is empty.
    The weighted sum of squares of p comes from completing the square
    exactly, or else from univsos2 (`_perturbed_sos`). Weights become
    plain squares once, at the end: a square weight as one term, any other
    by Lagrange's four squares. A Found outcome has been verified by
    independent re-expansion before being returned.
    """
    a = ideal.ring.elem(a)
    witness = _witness(ideal, a)
    if witness is None:
        return CertificateOutcome(CertificateStatus.NOT_MEMBER)
    m, sos, cofactor = witness
    cert = Certificate(a, m, sos, (a.ring.elem(ideal.gen),), (cofactor,))
    return CertificateOutcome(CertificateStatus.FOUND, _verified(cert))


def _witness(ideal: Ideal, a: RingElem) -> Optional[tuple[int, SumOfSquares, RingElem]]:
    """(m, sos, cofactor) with a^(2m) + sos = cofactor * gen, as
    find_certificate builds it but not yet verified; None for a non-member.
    An a^(2m) over the budget is an InputError, as in a document."""
    ring, gen = ideal.ring, ideal.gen
    if a.is_zero():
        return 1, SumOfSquares(), ring.zero()  # 0^2 = 0 * gen
    if gen.is_zero():
        return None  # the zero ideal of Q[x] holds only 0
    a_lift = a.rep
    if gen.is_one():  # the unit ideal, as for nearly every glue: no factor pass
        return checked_power(a, 1), SumOfSquares(), ring.elem(a_lift * a_lift)
    m, parts = 1, []
    for p, e in factor(gen).factors:
        v = _multiplicity(a_lift, p, e)  # v >= e/2 gives m = 1 already
        if v:
            m = max(m, -(-e // (2 * v)))  # a^(2m) is 0 mod p^e
        elif has_real_root(p):
            return None  # a real prime contains gen and not a
        else:
            parts.append((p, e))
    # a non-real part makes the cofactor (a^(2m) + sos) / gen dense of degree 2m deg(a)
    a_m = a_lift ** checked_power(a, m, dense=bool(parts))
    weighted = _merge(((w, a_m * t) for w, t in _neg_one_mod(parts)), gen)
    v = a_m * a_m
    for w, h in weighted:
        v = v + (h * h).scale(w)
    sos = SumOfSquares(tuple(ring.elem(t) for t in _squares(weighted)))
    return m, sos, ring.elem(v // gen)


def _verified(cert: Certificate) -> Certificate:
    if not verify_certificate(cert):
        raise InternalError("internal error: constructed certificate failed to verify")
    return cert


def combination_certificate(f: RingElem, gens: Sequence[RingElem]) -> Certificate:
    """The certificate for f over a whole family: find_certificate's witness
    f^(2m) + sos = cofactor * gen for the ideal the family generates, with
    gen = sum(c_i * gens[i]) plus a multiple of the modulus, both from
    `bezout_many` (gen, a monic gcd, is the canonical generator), so
    coeffs[i] = cofactor * c_i. As sum(c_i * gens[i]) is gen in the ring,
    only this identity needs verifying, once, before it is returned; f must
    lie in the real radical of that ideal.
    """
    ring = f.ring
    gens = tuple(ring.elem(g) for g in gens)
    gen, cs = bezout_many([g.rep for g in gens] + [ring.modulus])
    witness = _witness(Ideal(ring, gen), f)
    if witness is None:
        raise DomainError("f is not in the real radical of the family's ideal")
    m, sos, cofactor = witness
    coeffs = tuple(cofactor * ring.elem(c) for c in cs[: len(gens)])
    for c in coeffs:  # costed as `cert verify` costs each printed term
        check_size(c.rep.degree, c.rep.height.bit_length(), "certificate coefficient", dense=False)
    return _verified(Certificate(f, m, sos, gens, coeffs))
