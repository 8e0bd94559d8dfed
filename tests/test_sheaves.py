import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from realspec import (
    DomainError,
    GlueStatus,
    LocalFraction,
    NotASectionError,
    OutOfDomainError,
    Poly,
    RealPrime,
    Ring,
    Section,
    SigmaDenominator,
    SigmaFraction,
    StalkElement,
    SumOfSquares,
    enumerate_primes,
    equalize,
    glue,
    psi,
    section_eq,
    section_validate,
    sigma_eq,
    stalk_at,
    stalk_eq,
    verify_certificate,
    verify_glue,
)
from realspec.explore import sample_section
from realspec.parsing import parse_poly as P
from realspec.sheaves import _overlap_compatible

from helpers import (
    evaluate,
    qx_sections,
    random_elem,
    random_nonzero_elem,
    random_real_quotient,
    random_semireal_quotient,
    reference_compatible,
    reference_stalk_eq,
)

BASE = Ring.rationals()


def quot(text):
    return Ring.quotient(P(text))


def frac(ring, num, f, m=0, sos=()):
    den = SigmaDenominator(
        ring.elem(P(f)), m, SumOfSquares(tuple(ring.elem(P(t)) for t in sos))
    )
    return SigmaFraction(ring.elem(P(num)), den)


def section(ring, f, patches):
    return Section(
        ring,
        ring.elem(P(f)),
        tuple(LocalFraction(ring.elem(P(a)), ring.elem(P(g))) for g, a in patches),
    )


WORKED = (quot("x^2-x"), "1", [("x", "x"), ("x-1", "0")])


class TestSigmaEq:
    def test_base_domain(self):
        u = frac(BASE, "x", "x", m=1)          # x / x^2
        v = frac(BASE, "x^3", "x", m=2)        # x^3 / x^4
        assert sigma_eq(u, v)

    def test_quotient_distinguishes(self):
        ring = quot("x^2")
        assert not sigma_eq(frac(ring, "x", "1"), frac(ring, "0", "1"))

    def test_zero_localization(self):
        ring = quot("x^2")
        assert sigma_eq(frac(ring, "x", "x", m=1), frac(ring, "0", "x", m=1))

    def test_mismatched_f(self):
        with pytest.raises(DomainError):
            sigma_eq(frac(BASE, "1", "x"), frac(BASE, "1", "x-1"))


class TestPsi:
    def test_simple(self):
        ring = quot("x^2-x")
        s = psi(frac(ring, "x", "1"))
        assert len(s.patches) == 1
        assert s.patches[0].denominator == ring.one()
        assert s.patches[0].numerator == ring.elem(P("x"))
        assert section_validate(s).ok

    def test_power_denominator(self):
        s = psi(frac(BASE, "1", "x", m=1))
        assert s.patches[0].denominator == BASE.elem(P("x^2"))

    def test_sos_denominator(self):
        s = psi(frac(BASE, "1", "x", m=1, sos=("x^2",)))
        assert s.patches[0].denominator == BASE.elem(P("x^2+x^4"))
        assert section_validate(s).ok

    def test_domain_containment_not_equality(self):
        # x^2+1 belongs to the multiplicative set of x, yet D(x^2+1) is the
        # whole spectrum: containment of D(f) is what holds, not equality
        s = psi(frac(BASE, "1", "x", m=1, sos=("1",)))
        assert s.patches[0].denominator == BASE.elem(P("x^2+1"))
        assert section_validate(s).ok


class TestValidate:
    def test_worked_example_valid(self):
        ring, f, patches = WORKED
        assert section_validate(section(ring, f, patches)).ok

    def test_incompatible_pair(self):
        report = section_validate(section(BASE, "1", [("1", "x"), ("1", "x+1")]))
        assert not report.ok
        assert report.bad_pairs == ((0, 1),)

    def test_single_patch_power_cover(self):
        report = section_validate(section(BASE, "x", [("x^2", "1")]))
        assert report.ok


class TestEqualize:
    def test_already_equalized(self):
        ring, f, patches = WORKED
        s = section(ring, f, patches)
        assert equalize(s) is s  # cross terms vanish, nothing to do

    def test_single_patch(self):
        s = section(BASE, "x", [("x^2", "1")])
        assert equalize(s) is s

    def test_rewrite_with_positive_exponent(self):
        # disjoint patches with nonzero cross difference x^2; the cross dies
        # only after multiplying by (g1*g2)^1
        ring = quot("x^3-x^2")
        s = Section(
            ring,
            ring.one(),
            (
                LocalFraction(ring.elem(P("x")), ring.elem(P("x-1"))),
                LocalFraction(ring.zero(), ring.elem(P("x"))),
            ),
        )
        assert section_validate(s).ok
        p1, p2 = s.patches
        cross = p1.numerator * p2.denominator - p2.numerator * p1.denominator
        assert not cross.is_zero()
        eq = equalize(s)
        for pi in eq.patches:
            for pj in eq.patches:
                assert (
                    pi.denominator * pj.numerator - pj.denominator * pi.numerator
                ).is_zero()
        # rewriting squares the denominators, so the opens are unchanged
        for before, after in zip(s.patches, eq.patches):
            assert after.denominator == before.denominator ** 2
        for p in enumerate_primes(ring):
            assert stalk_eq(stalk_at(s, p), stalk_at(eq, p))

    def test_invalid_section(self):
        with pytest.raises(NotASectionError):
            equalize(section(BASE, "1", [("1", "x"), ("1", "x+1")]))
        # D(x) misses the prime (x), so one patch on it does not cover D(1)
        with pytest.raises(NotASectionError):
            equalize(section(quot("x^2-x"), "1", [("x", "1")]))
        # (x:1, x-1:2) differ on D(x^2-x): the exponent search passes N = 1, Q[x]'s bound
        with pytest.raises(NotASectionError):
            equalize(section(BASE, "x", [("x", "1"), ("0", "x"), ("x-1", "2")]))

    def test_qx_pair_test_is_the_exponent_search(self):
        # a zero denominator: the cross term -x is nonzero, but g_1 g_2 = 0 kills it at N = 1
        s = section(BASE, "1", [("1", "1"), ("0", "x")])
        out = glue(s)
        assert [(p.numerator.rep, p.denominator.rep) for p in out.equalized.patches] == [
            (P("1"), P("1")), (P("0"), P("0"))
        ]
        assert str(out.fraction) == "1 / 1"
        assert verify_glue(out.equalized, out.fraction, out.certificate)
        assert section_eq(s, psi(out.fraction))


class TestGlue:
    def test_worked_example(self):
        ring, f, patches = WORKED
        out = glue(section(ring, f, patches))
        assert out.status is GlueStatus.GLUED
        assert str(out.fraction) == "x / 1"
        assert [c.rep for c in out.certificate.coeffs] == [P("1"), P("-1")]
        assert out.certificate.sos.terms == ()
        target = frac(ring, "x", "1")
        assert sigma_eq(out.fraction, target)

    def test_psi_round_trip_unchanged(self):
        ring = quot("x^2-x")
        u = frac(ring, "x+1", "1", m=1, sos=("x",))
        out = glue(psi(u))
        assert out.status is GlueStatus.GLUED
        # glue builds its own fraction, equal to u in the localization
        assert sigma_eq(out.fraction, u)
        assert verify_glue(out.equalized, out.fraction, out.certificate)

    def test_invalid_section(self):
        s = section(BASE, "x^2-1", [("x-1", "1"), ("x+1", "1")])
        with pytest.raises(NotASectionError):
            glue(s)
        # a cover of D(1), but the two patches differ at both real primes
        with pytest.raises(NotASectionError):
            glue(section(quot("x^2-x"), "1", [("1", "1"), ("1", "0")]))

    def test_verify_glue(self):
        ring, f, patches = WORKED
        out = glue(section(ring, f, patches))
        eq, frac, cert = out.equalized, out.fraction, out.certificate
        assert cert.gens == tuple(eq.denominators())
        assert verify_glue(eq, frac, cert)
        # a valid certificate over other generators, a changed coefficient, another numerator
        other = dataclasses.replace(cert, gens=(ring.one(),), coeffs=(ring.one(),))
        assert verify_certificate(other) and not verify_glue(eq, frac, other)
        changed = dataclasses.replace(cert, coeffs=(cert.coeffs[0] + ring.one(), cert.coeffs[1]))
        assert not verify_glue(eq, frac, changed)
        other_num = SigmaFraction(frac.numerator + ring.one(), frac.denominator)
        assert not verify_glue(eq, other_num, cert)
        # x/x passes the closing identity on both patches, but x is not the
        # certificate's denominator: it vanishes at the prime (x) of D(1)
        x = ring.elem(P("x"))
        assert not verify_glue(eq, SigmaFraction(x, SigmaDenominator(x, 1)), cert)

    def test_closing_identity(self):
        ring, f, patches = WORKED
        out = glue(section(ring, f, patches))
        den = out.fraction.denominator.value()
        for p in out.equalized.patches:
            assert (p.denominator * out.fraction.numerator - den * p.numerator).is_zero()

    def test_zero_ring_glue(self):
        # D(x) is empty in Q[x]/(x^2); the unique section glues into the zero ring
        ring = quot("x^2")
        x = ring.elem(P("x"))
        s = Section(ring, x, (LocalFraction(ring.one(), x),))
        out = glue(s)
        assert out.status is GlueStatus.GLUED
        assert sigma_eq(out.fraction, SigmaFraction(ring.zero(), SigmaDenominator(x, 1)))


class TestPaperCase:
    @given(qx_sections())
    @settings(max_examples=100, deadline=None)
    def test_multi_patch_sections_of_qx_glue(self, case):
        """Gamma(D(f)) = Sigma_f^-1 Q[x]: a section over several patches glues
        into the one fraction a/h of the localization, with a certificate over
        the patch denominators, and the glued fraction has the section's germ
        at the zero prime and at each named real prime of D(f)."""
        s, a, h, primes = case
        out = glue(s)
        assert verify_glue(out.equalized, out.fraction, out.certificate)
        glued = psi(out.fraction)
        assert section_eq(glued, s)
        assert out.fraction.numerator.rep * h == a * out.fraction.denominator.value().rep
        for p in primes:
            assert stalk_eq(stalk_at(s, p), stalk_at(glued, p))


class TestStalks:
    def test_worked_example_germs(self):
        ring, f, patches = WORKED
        s = section(ring, f, patches)
        p1 = RealPrime(ring, P("x-1"))
        germ = stalk_at(s, p1)
        assert (germ.numerator, germ.denominator) == (ring.elem(P("x")), ring.elem(P("x")))
        one_germ = stalk_at(psi(frac(ring, "x", "1")), p1)
        assert stalk_eq(germ, one_germ)
        # evaluation at the root: x/x is 1 in the residue field at x - 1
        assert evaluate(germ.numerator.rep, 1) / evaluate(germ.denominator.rep, 1) == 1

        p0 = RealPrime(ring, P("x"))
        germ0 = stalk_at(s, p0)
        assert (germ0.numerator, germ0.denominator) == (ring.zero(), ring.elem(P("x-1")))
        zero_germ = stalk_at(psi(frac(ring, "0", "1")), p0)
        assert stalk_eq(germ0, zero_germ)
        # the germs differ where the cross difference is killed only inside the prime
        assert not stalk_eq(germ0, stalk_at(psi(frac(ring, "1", "1")), p0))
        assert not stalk_eq(germ, stalk_at(psi(frac(ring, "0", "1")), p1))

    def test_out_of_domain(self):
        ring = quot("x^2-x")
        s = section(ring, "x", [("x", "1")])
        with pytest.raises(OutOfDomainError):
            stalk_at(s, RealPrime(ring, P("x")))

    def test_germ_denominator_outside_prime(self):
        ring = quot("x^2-x")
        with pytest.raises(DomainError):
            StalkElement(RealPrime(ring, P("x")), ring.one(), ring.elem(P("x")))


class TestSectionEq:
    def test_glue_round_trip(self):
        ring, f, patches = WORKED
        s = section(ring, f, patches)
        out = glue(s)
        assert section_eq(psi(out.fraction), s)

    def test_distinct_constants(self):
        s1 = section(BASE, "1", [("1", "x")])
        s2 = section(BASE, "1", [("1", "x+1")])
        assert not section_eq(s1, s2)
        assert section_eq(s1, s1)

    def test_domain_mismatch(self):
        s1 = section(BASE, "x", [("x", "1")])
        s2 = section(BASE, "x-1", [("x-1", "1")])
        with pytest.raises(DomainError):
            section_eq(s1, s2)

    def test_same_open_different_f(self):
        # D(x) = D(x^2): domains agree up to real parts
        s1 = section(BASE, "x", [("x", "x")])
        s2 = section(BASE, "x^2", [("x^2", "x^2")])
        assert section_eq(s1, s2)


class TestRoundTripProperties:
    def test_injectivity_randomized(self):
        rng = random.Random(211)
        checked = 0
        while checked < 120:
            ring = random_real_quotient(rng) if rng.random() < 0.7 else BASE
            f = random_nonzero_elem(rng, ring, 2)
            m1, m2 = rng.randint(0, 1), rng.randint(0, 1)
            tail1 = SumOfSquares(tuple(random_elem(rng, ring, 1) for _ in range(rng.randint(0, 1))))
            tail2 = SumOfSquares(tuple(random_elem(rng, ring, 1) for _ in range(rng.randint(0, 1))))
            u = SigmaFraction(random_elem(rng, ring, 2), SigmaDenominator(f, m1, tail1))
            v = SigmaFraction(random_elem(rng, ring, 2), SigmaDenominator(f, m2, tail2))
            assert sigma_eq(u, v) == section_eq(psi(u), psi(v))
            checked += 1

    def test_surjectivity_round_trip_randomized(self):
        # real quotients, semi-real non-real quotients and Q[x]
        rng = random.Random(223)
        draws = (random_real_quotient, random_semireal_quotient, lambda rng: BASE)
        for i in range(90):
            ring = draws[i % 3](rng)
            f = random_nonzero_elem(rng, ring, 2)
            tail = SumOfSquares(tuple(random_elem(rng, ring, 1) for _ in range(rng.randint(0, 1))))
            u = SigmaFraction(random_elem(rng, ring, 2), SigmaDenominator(f, rng.randint(0, 1), tail))
            out = glue(psi(u))
            assert out.status is GlueStatus.GLUED
            assert verify_glue(out.equalized, out.fraction, out.certificate)
            assert sigma_eq(out.fraction, u)

    @staticmethod
    def _piecewise(rng, ring):
        """Random numerators over the partition of the spectrum into single
        primes: the patch at p has the product of the other primes as its
        denominator."""
        gens = [p.gen for p in enumerate_primes(ring)]
        patches = []
        for i in range(len(gens)):
            others = Poly.one()
            for q in gens[:i] + gens[i + 1:]:
                others = others * q
            patches.append(LocalFraction(random_elem(rng, ring, 2), ring.elem(others)))
        return Section(ring, ring.one(), tuple(patches))

    @staticmethod
    def _assert_glues(s):
        """s glues, its document re-verifies, and the fraction agrees with s
        as a section and in the stalk at every real prime of D(f)."""
        out = glue(s)
        assert out.status is GlueStatus.GLUED
        assert verify_glue(out.equalized, out.fraction, out.certificate)
        assert section_eq(psi(out.fraction), s)
        for p in enumerate_primes(s.ring):
            if not p.contains(s.f):
                assert stalk_eq(stalk_at(psi(out.fraction), p), stalk_at(s, p))

    def test_equalize_preserves_stalks(self):
        rng = random.Random(227)
        for _ in range(60):
            ring = random_real_quotient(rng)
            s = self._piecewise(rng, ring)
            assert section_validate(s).ok
            eq = equalize(s)
            for p in enumerate_primes(ring):
                assert stalk_eq(stalk_at(s, p), stalk_at(eq, p))
            self._assert_glues(s)

    def test_glue_always_succeeds_over_semireal_rings(self):
        # rings with non-real factors, where equalizing inside A alone can
        # never end: every sampled and every piecewise section still glues
        rng = random.Random(229)
        for _ in range(80):
            ring = random_semireal_quotient(rng)
            sections = [self._piecewise(rng, ring)]
            sections += [sample_section(rng, ring) for _ in range(3)]
            for s in sections:
                self._assert_glues(s)


# irreducibles with and without real roots, for moduli and elements
_POOL = [P(t) for t in ("x", "x-1", "x+2", "x^2-2", "x^2+1", "x^2+x+1")]


@st.composite
def rings_and_elems(draw):
    """Q[x] or a quotient by a product of pool powers, and five elements,
    each a product of pool powers times 0, 1 or -3/2."""
    exponents = st.lists(st.integers(0, 2), min_size=len(_POOL), max_size=len(_POOL))

    def product(exps):
        out = Poly.one()
        for p, e in zip(_POOL, exps):
            out = out * p**e
        return out

    ring = BASE
    if draw(st.booleans()):
        modulus = product(draw(exponents))
        assume(not modulus.is_constant())
        ring = Ring.quotient(modulus)
    units = st.sampled_from([0, 1, Fraction(-3, 2)])
    elems = st.lists(st.tuples(units, exponents), min_size=5, max_size=5)
    return ring, [ring.elem(product(e) * Poly.const(u)) for u, e in draw(elems)]


class TestOneEqualityRule:
    """sigma_eq and the overlap test decide one real prime power of the
    modulus at a time (every real p^e with p not dividing g divides cross);
    they agree with the reference: g in the real radical of Ann(cross)."""

    @given(rings_and_elems())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reference(self, case):
        ring, (a, z, f, g, h) = case
        assume(not f.is_zero())
        s = SigmaDenominator(f, 1, SumOfSquares((h,)))
        u = SigmaFraction(a, s)
        # same denominator: the cross term is -z*s; another denominator: anything
        for v in (SigmaFraction(a + z, s), SigmaFraction(z, SigmaDenominator(f, 0))):
            cross = u.numerator * v.denominator.value() - v.numerator * s.value()
            assert sigma_eq(u, v) == reference_compatible(cross, f)
        p = LocalFraction(a, g)
        # the cross term with (a*h + z)/(g*h) is -z*g
        for q in (LocalFraction(a * h + z, g * h), LocalFraction(z, h)):
            cross = p.numerator * q.denominator - q.numerator * p.denominator
            assert _overlap_compatible(p, q) == reference_compatible(cross, g * q.denominator)


_REAL_POOL = [P(t) for t in ("x", "x-1", "x+2", "x^2-2")]
_NONREAL_POOL = [P(t) for t in ("x^2+1", "x^2+x+1")]


@st.composite
def germ_pairs(draw):
    """Two germs at one real prime (p). The ring is Q[x] (at its zero prime
    or a principal one) or a quotient by real pool factors to powers 1..3,
    perhaps times non-real ones. Mostly the second germ is
    (a*t + p^k*z)/(d*t), whose cross difference with a/d is -p^k*z*d: for
    k >= e it is often nonzero and yet divisible by p^e."""
    power = lambda pool, hi: st.tuples(st.sampled_from(pool), st.integers(1, hi))  # noqa: E731
    real = draw(st.lists(power(_REAL_POOL, 3), min_size=1, max_size=3, unique_by=lambda t: t[0]))
    if draw(st.integers(0, 2)) == 0:
        ring = BASE
        gen = draw(st.sampled_from([Poly.zero()] + [q for q, _ in real]))
    else:
        nonreal = draw(st.lists(power(_NONREAL_POOL, 2), max_size=2, unique_by=lambda t: t[0]))
        modulus = Poly.one()
        for q, k in real + nonreal:
            modulus = modulus * q**k
        ring = Ring.quotient(modulus)
        gen = draw(st.sampled_from([q for q, _ in real]))
    prime = RealPrime(ring, gen)
    elem = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
        lambda cs: ring.elem(Poly([Fraction(c) for c in cs]))
    )
    outside = elem.filter(lambda d: not prime.contains(d))
    a, d, t, z = draw(elem), draw(outside), draw(outside), draw(elem)
    if draw(st.integers(0, 3)) == 0:
        second = StalkElement(prime, draw(elem), draw(outside))
    else:
        shift = ring.elem(gen ** draw(st.integers(0, 4))) * z
        second = StalkElement(prime, a * t + shift, d * t)
    return StalkElement(prime, a, d), second


class TestStalkEqByPrimePower:
    """stalk_eq decides by p^e | cross; the reference is the annihilator
    route: Ann(cross) is not inside the prime."""

    @given(germ_pairs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reference(self, germs):
        e1, e2 = germs
        assert stalk_eq(e1, e2) == reference_stalk_eq(e1, e2)
        assert stalk_eq(e2, e1) == stalk_eq(e1, e2)

    def test_nonzero_cross_divisible_by_the_prime_power(self):
        # in Q[x]/((x-1)^2 (x^2+1)) at (x-1): (x-1)^2 != 0, yet it is 0 in A_P
        ring = quot("(x-1)^2*(x^2+1)")
        prime = RealPrime(ring, P("x-1"))
        zero = StalkElement(prime, ring.zero(), ring.one())
        square = StalkElement(prime, ring.elem(P("(x-1)^2")), ring.one())
        assert not square.numerator.is_zero()
        assert stalk_eq(zero, square) and reference_stalk_eq(zero, square)
        # (x-1) alone is not: e = 2
        line = StalkElement(prime, ring.elem(P("x-1")), ring.one())
        assert not stalk_eq(zero, line) and not reference_stalk_eq(zero, line)

