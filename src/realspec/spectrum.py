"""Topology of the real Zariski spectrum of Q[x] and its quotients.

Real primes, canonical closed sets V(I) and their boolean algebra, basic
opens D(f), exact cover decisions, and finite subcovers. A real prime is
(gen): gen 0 for the zero prime of Q[x] (the quotient by 0), otherwise a
real-rooted irreducible dividing the modulus, and it contains x exactly
when gen divides x; it lies in a closed set V(g) when it contains g.
A subcover's witness is the library's one `rings.Certificate`, the
identity sum(coeffs[j] * gens[j]) = f^(2m) + sum of squares over the
subcover's members, checked by the one `rings.verify_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, NotACoverError, RingMismatchError
from .polynomials import Poly, has_real_root, is_irreducible
from .rings import (
    Certificate,
    Ideal,
    Ring,
    RingElem,
    combination_certificate,
    ideal_sum,
    real_radical,
    real_radical_member,
)


@dataclass(frozen=True)
class RealPrime:
    """A real prime ideal (gen): gen 0 is the zero prime of Q[x], any other
    gen a monic irreducible real-rooted divisor of the modulus, in a quotient
    one of the ring's `real_factors`. The prime contains x exactly when gen
    divides x."""

    ring: Ring
    gen: Poly

    def __post_init__(self):
        g, ring = self.gen, self.ring
        if ring.is_quotient:  # the ring has classified its primes already
            real = g in dict(ring.real_factors)
        else:
            real = g.is_zero() or (g.leading == 1 and is_irreducible(g) and has_real_root(g))
        if not real:
            raise DomainError(f"({g}) is not a real prime of {ring}")

    def contains(self, a: RingElem) -> bool:
        if a.ring != self.ring:
            raise RingMismatchError("element belongs to a different ring")
        return self.gen.divides(a.rep)

    def __str__(self) -> str:
        return f"({self.gen})"


@dataclass(frozen=True)
class ClosedSet:
    """Canonical V(I): gen 0 is the whole space, 1 the empty set, otherwise a
    monic squarefree product of real-rooted irreducibles (dividing the real
    part of the modulus in a quotient)."""

    ring: Ring
    gen: Poly

    def is_whole(self) -> bool:
        return self.gen.is_zero()

    def is_empty(self) -> bool:
        return self.gen.is_one()

    def __str__(self) -> str:
        if self.is_whole():
            return "V(0)"
        if self.is_empty():
            return "{}"
        return f"V({self.gen})"


def v_of(ideal: Ideal) -> ClosedSet:
    """Closed set of an ideal, canonicalized through the real radical.

    It is the whole space V(0) iff the radical's generator gen lies in the
    real radical of the zero ideal, decided by the one membership test
    `real_radical_member`, not by factoring the modulus. The empty set keeps
    its gen 1, also in a ring with no real prime.
    """
    ring = ideal.ring
    gen = real_radical(ideal).gen
    if not gen.is_one() and real_radical_member(ring.zero_ideal(), ring.elem(gen)):
        gen = Poly.zero()  # every real prime contains the ideal
    return ClosedSet(ring, gen)


def _check_same_ring(sets: Sequence[ClosedSet]) -> Ring:
    ring = sets[0].ring
    for s in sets[1:]:
        if s.ring != ring:
            raise RingMismatchError("closed sets of different rings")
    return ring


def closed_union(v1: ClosedSet, v2: ClosedSet) -> ClosedSet:
    """V(I) u V(J) = V(IJ); a whole set's 0 makes the product 0."""
    ring = _check_same_ring([v1, v2])
    return v_of(ring.ideal(v1.gen * v2.gen))


def closed_intersect(vs: Sequence[ClosedSet]) -> ClosedSet:
    if not vs:
        raise DomainError("intersection of an empty family is undefined")
    ring = _check_same_ring(list(vs))
    return v_of(ideal_sum(ring, [v.gen for v in vs]))  # a whole set's 0 adds nothing


def closed_subset(v1: ClosedSet, v2: ClosedSet) -> bool:
    """v1 within v2, i.e. the first radical contains the second: gen1 | gen2.

    The sentinels obey the same rule: 0 (whole space) divides only 0, and
    1 (empty set) divides everything.
    """
    _check_same_ring([v1, v2])
    return v1.gen.divides(v2.gen)


def enumerate_primes(ring: Ring) -> list[RealPrime]:
    """All real primes of a quotient ring, in canonical factor order."""
    if not ring.is_quotient:
        raise DomainError("Q[x] has infinitely many real primes")
    return [RealPrime(ring, p) for p, _ in ring.real_factors]


# ---------------------------------------------------------------------------
# covers of basic opens


def cover_check(f: RingElem, fs: Sequence[RingElem]) -> bool:
    """Exact decision of D(f) within the union of the D(f_i)."""
    if f.is_zero():
        raise DomainError("cover check needs a nonzero element")
    return real_radical_member(ideal_sum(f.ring, fs), f)


@dataclass(frozen=True)
class SubcoverOutcome:
    """The kept indices into the family, and a certificate whose gens are
    the family's members at those indices, in order."""

    indices: tuple[int, ...]
    certificate: Certificate


def finite_subcover(f: RingElem, fs: Sequence[RingElem]) -> SubcoverOutcome:
    """Finite subcover of D(f) with the same gcd real part as the whole family.

    Greedy: grow left to right until the subset's gcd real part matches the
    full family's, then prune indices whose removal keeps it unchanged. The
    combination certificate comes from Bezout coefficients scaled by a real
    radical certificate for f (`combination_certificate`).
    """
    ring = f.ring
    if not cover_check(f, fs):
        raise NotACoverError("the family does not cover D(f)")
    fs = [ring.elem(g) for g in fs]
    full = ideal_sum(ring, fs)
    target = real_radical(full).gen

    kept: list[int] = []
    acc = ring.zero_ideal()
    for i, g in enumerate(fs):
        if real_radical(acc).gen == target:
            break
        cand = ideal_sum(ring, (acc.gen, g))
        if real_radical(cand).gen != real_radical(acc).gen:
            kept.append(i)
            acc = cand
    for i in list(kept):
        rest = [j for j in kept if j != i]
        if real_radical(ideal_sum(ring, [fs[j] for j in rest])).gen == target:
            kept = rest

    return SubcoverOutcome(tuple(kept), combination_certificate(f, [fs[j] for j in kept]))

