import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from realspec import (
    Certificate,
    CertificateStatus,
    DomainError,
    InternalError,
    Poly,
    Ring,
    RingMismatchError,
    SigmaDenominator,
    SumOfSquares,
    annihilator,
    bezout_many,
    enumerate_primes,
    find_certificate,
    real_radical,
    real_radical_member,
    verify_certificate,
)
from realspec import rings
from realspec.parsing import parse_poly as P
from realspec.polynomials import has_real_root, is_irreducible, real_part
from realspec.rings import RingElem, _neg_one_sos_mod, combination_certificate, ideal_sum

from helpers import (
    from_sympy,
    lcm,
    least_even_power,
    random_dense_product,
    random_elem,
    random_real_quotient,
    random_structured_poly,
    reference_real_part,
    route_factors,
    route_products,
    to_sympy,
)


BASE = Ring.rationals()

# members whose witness needs a non-square weight, a repeated non-real factor,
# and the perturbed numerical route, in that order
KNOWN_HARD_MEMBERS = [("x^4+x^2+7", "x"), ("(x^2+3)^2*(x-1)", "x-1"), ("x^6+x+9", "x+5")]


@st.composite
def nonreal_primes(draw):
    """p monic irreducible of degree 2..8 without a real root: s^2 + t^2 + c, c > 0."""
    d = draw(st.integers(1, 4))
    s = Poly(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)) + [1])
    t = Poly(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    p = s * s + t * t + Poly.const(draw(st.integers(1, 5)))
    assume(is_irreducible(p))
    return p


@st.composite
def nonreal_power_times_linears(draw):
    """(ring, gen, a): gen = p^e times real-rooted linear factors, with p from
    `nonreal_primes` and e <= 3, and a a member: a multiple of every linear
    factor of gen."""
    p = draw(nonreal_primes())
    gen = p ** draw(st.integers(1, 3))
    a = Poly([draw(st.integers(1, 3))] + draw(st.lists(st.integers(-3, 3), max_size=2)))
    for r in draw(st.lists(st.integers(-3, 3), max_size=2, unique=True)):
        gen = gen * Poly([-r, 1]) ** draw(st.integers(1, 2))
        a = a * Poly([-r, 1])
    if draw(st.booleans()):
        a = a * p
    ring = Ring.quotient(gen * Poly([7, 1])) if draw(st.booleans()) else BASE
    return ring, gen, a


@st.composite
def nonreal_prime_and_linears(draw):
    """(p, e, L): p from `nonreal_primes`, e in {2, 3}, and L a product of
    0..2 distinct monic linear factors."""
    p = draw(nonreal_primes())
    linears = Poly.one()
    for r in draw(st.lists(st.integers(-3, 3), max_size=2, unique=True)):
        linears = linears * Poly([-r, 1])
    return p, draw(st.integers(2, 3)), linears


def quot(text):
    return Ring.quotient(P(text))


class TestRingConstruction:
    def test_ring_constructor(self):
        assert Ring(Poly.zero()) == BASE
        assert quot("x^2-x").is_real
        r = quot("x^2")
        assert not r.is_real and r.is_semireal

    def test_modulus_validation(self):
        with pytest.raises(DomainError):
            Ring.quotient(P("2*x^2"))
        with pytest.raises(DomainError):
            Ring.quotient(P("5"))
        with pytest.raises(DomainError):
            Ring(P("2*x^2"))

    def test_zero_modulus_is_base_ring_not_a_quotient(self):
        # Ring(0) is Q[x], but 0 cannot be written as a quotient's modulus
        assert not Ring(Poly.zero()).is_quotient and str(Ring(Poly.zero())) == "Q[x]"
        with pytest.raises(DomainError):
            Ring.quotient(Poly.zero())
        assert BASE.zero_ideal().gen == BASE.modulus and BASE.zero_ideal().gen.is_zero()
        assert quot("x^2-x").zero_ideal().gen == quot("x^2-x").modulus

    def test_classify_examples(self):
        def classify(ring):
            return ring.is_real, ring.is_semireal

        assert classify(quot("x^2+1")) == (False, False)
        assert classify(quot("(x-1)*(x+2)")) == (True, True)
        assert classify(quot("x^2*(x-1)")) == (False, True)
        assert classify(BASE) == (True, True)

    def test_real_implies_semireal(self):
        rng = random.Random(3)
        for _ in range(100):
            ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            assert not ring.is_real or ring.is_semireal

    def test_elem_reduction(self):
        r = quot("x^2-x")
        assert r.elem(P("x^2")).rep == P("x")
        assert r.elem(P("x^4")).rep == P("x")
        with pytest.raises(RingMismatchError):
            r.elem(BASE.one())

    def test_canonical_ideal(self):
        r = quot("x^2-x")
        assert r.ideal(P("3*x")).gen == P("x")
        assert r.ideal(P("x^3")).gen == P("x")  # gcd with modulus
        assert r.zero_ideal().gen == P("x^2-x")
        assert BASE.zero_ideal().gen == Poly.zero()


def reference_ideal_gen(ring, lifts):
    """Monic gcd of the lifts and the modulus, by sympy; 0 if all are 0."""
    acc = to_sympy(Poly.zero())
    for p in list(lifts) + ([ring.modulus] if ring.is_quotient else []):
        acc = acc.gcd(to_sympy(p))
    return Poly.zero() if acc.is_zero else from_sympy(acc.monic())


@st.composite
def rings_and_families(draw):
    """(ring, lifts): Q[x] or Q[x]/(m) with m monic of degree 1..4, and up to
    four lifts mixing random polynomials, 0, the modulus and units."""
    if draw(st.booleans()):
        ring = BASE
    else:
        roots = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        m = Poly.one()
        for r in roots:
            m = m * Poly([-r, 1])
        ring = Ring.quotient(m * P("x^2+1") if draw(st.booleans()) else m)
    special = [Poly.zero(), P("-3/2"), P("1")] + ([ring.modulus] if ring.is_quotient else [])
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    random_poly = st.lists(coeff, max_size=6).map(Poly)
    lifts = draw(st.lists(st.one_of(random_poly, st.sampled_from(special)), max_size=4))
    return ring, lifts


class TestIdealSum:
    @given(rings_and_families())
    @settings(max_examples=200, deadline=None)
    def test_against_sympy_gcd(self, case):
        ring, lifts = case
        want = reference_ideal_gen(ring, lifts)
        assert ideal_sum(ring, lifts).gen == want
        assert ideal_sum(ring, [ring.elem(p) for p in lifts]).gen == want
        acc = ring.zero_ideal()
        for p in lifts:
            assert ring.ideal(p).gen == reference_ideal_gen(ring, [p])
            acc = ideal_sum(ring, (acc.gen, ring.ideal(ring.elem(p)).gen))
        assert acc.gen == want

    @given(rings_and_families())
    @settings(max_examples=200, deadline=None)
    def test_bezout_many_gives_the_canonical_generator(self, case):
        """combination_certificate takes its generator from bezout_many: the
        same monic gcd of the lifts and the modulus as ideal_sum, with
        coefficients that sum back to it."""
        ring, lifts = case
        gens = [ring.elem(p) for p in lifts]
        fs = [g.rep for g in gens] + [ring.modulus]
        assume(any(not p.is_zero() for p in fs))
        gen, cs = bezout_many(fs)
        assert gen == ideal_sum(ring, gens).gen
        assert Poly.sum([c * p for c, p in zip(cs, fs, strict=True)]) == gen

    def test_empty_family_is_the_zero_ideal(self):
        assert ideal_sum(BASE, []).gen == Poly.zero()
        ring = quot("x^3-x")
        assert ideal_sum(ring, ()).gen == ring.modulus
        assert ideal_sum(ring, ()) == ring.zero_ideal()

    def test_constants_and_mismatch(self):
        ring = quot("x^2-x")
        assert ring.ideal(Poly.const(5)).gen == Poly.one()
        assert ring.ideal(Poly.zero()).gen == ring.modulus
        assert ideal_sum(ring, [P("x^3"), P("x^2+x")]).gen == P("x")
        with pytest.raises(RingMismatchError):
            ring.ideal(BASE.one())
        with pytest.raises(RingMismatchError):
            ideal_sum(ring, [ring.one(), BASE.one()])


class TestElemPower:
    def test_squares_only_while_bits_remain(self, monkeypatch):
        ring = quot("x^5-x-1")
        e = ring.elem(P("x^2+2*x-1"))
        mul = RingElem.__mul__
        calls = []

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        expected = ring.one()
        for n in range(1, 65):
            expected = mul(expected, e)
            monkeypatch.setattr(RingElem, "__mul__", counting)
            calls.clear()
            assert e**n == expected
            monkeypatch.setattr(RingElem, "__mul__", mul)
            assert len(calls) == n.bit_length() + bin(n).count("1") - 2, n
        assert e**0 == ring.one()


class TestAnnihilator:
    def test_examples(self):
        r = quot("x^2")
        assert annihilator(r.elem(P("x"))).gen == P("x")
        assert annihilator(BASE.elem(P("x-3"))).gen == Poly.zero()
        r2 = quot("x^2-x")
        assert annihilator(r2.elem(P("x"))).gen == P("x-1")

    def test_annihilator_of_zero(self):
        assert annihilator(quot("x^2").zero()).gen == Poly.one()
        assert annihilator(BASE.zero()).gen == Poly.one()

    def test_correctness_randomized(self):
        rng = random.Random(9)
        for _ in range(200):
            ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            z = random_elem(rng, ring)
            ann = annihilator(z)
            assert (z * ring.elem(ann.gen)).is_zero()
            w = random_elem(rng, ring)
            if not ann.gen.divides(w.rep):
                assert not (z * w).is_zero()


class TestRealRadical:
    def test_examples(self):
        assert real_radical(BASE.ideal(P("x^2"))).gen == P("x")
        assert real_radical(BASE.ideal(P("x^2+1"))).gen == Poly.one()
        assert real_radical(quot("x^2").zero_ideal()).gen == P("x")

    def test_contains_and_idempotent(self):
        rng = random.Random(15)
        for _ in range(300):
            if rng.random() < 0.5:
                ring = BASE
            else:
                ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            ideal = ring.ideal(random_structured_poly(rng, 3, 8))
            rad = real_radical(ideal)
            # containment: the radical generator divides the ideal generator
            if not ideal.gen.is_zero():
                assert rad.gen.divides(ideal.gen)
            assert real_radical(rad) == rad

    def test_nullstellensatz_cross_check(self):
        # radical = intersection of the real primes containing the ideal
        rng = random.Random(21)
        for _ in range(200):
            ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            ideal = ring.ideal(random_elem(rng, ring, 4))
            rad = real_radical(ideal)
            containing = [
                p.gen for p in enumerate_primes(ring) if p.contains(ring.elem(ideal.gen))
            ]
            if not containing:
                assert rad.gen == Poly.one()
                continue
            expected = Poly.one()
            for g in containing:
                expected = lcm(expected, g)
            assert rad == ring.ideal(expected)

    def test_member_against_real_part_randomized(self):
        # the factor-free decision agrees with the factor-based rule
        # real_part(gen) | a, in Q[x] and in Q[x]/(m)
        rng = random.Random(47)

        def some_of(factors):
            out = Poly.const(rng.choice([1, -2]))
            for f in rng.sample(factors, rng.randint(0, len(factors))):
                out = out * f ** rng.randint(1, 2)
            return out

        members = 0
        for trial in range(40):
            m, factors = random_dense_product(rng, 30)
            ring = Ring.quotient(m.monic()) if trial % 2 else BASE
            ideal = ring.ideal(some_of(factors) if trial % 2 else m)
            a = ring.elem(some_of(factors) * rng.choice([Poly.one(), P("x^2+1/3"), P("x-1/2")]))
            expected = real_part(ideal.gen).divides(a.rep)
            assert real_radical_member(ideal, a) == expected
            members += expected
        assert 8 <= members <= 32

    def test_member_edge_cases(self):
        x = BASE.elem(P("x"))
        assert real_radical_member(BASE.zero_ideal(), BASE.zero())
        assert not real_radical_member(BASE.zero_ideal(), x)
        assert real_radical_member(BASE.ideal(P("-3*(x^2+1)^2")), BASE.zero())
        assert real_radical_member(BASE.unit_ideal(), x)
        assert real_radical_member(BASE.ideal(P("-2*x^3*(x^2+2)")), x)
        # multiplicities far apart: Yun reads x^4096 and (x-1)^3 off the gcd's cofactor
        gen = BASE.ideal(P("x") ** 4096 * P("(x-1)^3*(x^2+1)"))
        assert real_radical_member(gen, BASE.elem(P("x^2-x")))
        assert not real_radical_member(gen, x)
        assert not real_radical_member(gen, BASE.elem(P("(x-1)^5")))
        ring = quot("x^3*(x^2+1)")
        assert real_radical_member(ring.zero_ideal(), ring.elem(P("x^4+x^2")))
        assert real_radical_member(ring.zero_ideal(), ring.zero())
        assert not real_radical_member(ring.zero_ideal(), ring.elem(P("x^2+1")))
        assert real_radical_member(ring.unit_ideal(), ring.one())

    def test_member_examples(self):
        assert real_radical_member(BASE.ideal(P("x^2*(x^2+1)")), BASE.elem(P("x")))
        assert not real_radical_member(BASE.ideal(P("x^2-1")), BASE.elem(P("x")))
        assert real_radical_member(quot("x^2").unit_ideal(), quot("x^2").elem(P("x+3")))


# irreducibles with and without real roots; a member's cofactor adds one
# coprime factor of each kind
_MEMBER_POOL = [P(t) for t in ("x", "x-1", "x+2", "x^2-2", "x^3-2", "x^2+1", "x^2+x+1")]


@st.composite
def ideals_and_elements(draw):
    """(ideal, a) over Q[x] or a quotient by pool powers: the zero and unit
    ideals among the generators, a = 0 among the elements, and generators
    with real-rooted factors that a lacks."""
    exponents = st.lists(st.integers(0, 2), min_size=len(_MEMBER_POOL), max_size=len(_MEMBER_POOL))

    def product(exps):
        out = Poly.one()
        for p, e in zip(_MEMBER_POOL, exps):
            out = out * p**e
        return out

    if draw(st.booleans()):
        ring = BASE
    else:
        modulus = product(draw(exponents))
        assume(not modulus.is_constant())
        ring = Ring.quotient(modulus)
    gen = draw(st.sampled_from([Poly.zero(), Poly.one(), None, None, None]))
    if gen is None:
        gen = product(draw(exponents)) * Poly.const(draw(st.sampled_from([1, -3])))
    extra = draw(st.sampled_from([Poly.one(), P("x^2+1/3"), P("x-1/2")]))
    unit = Poly.const(draw(st.sampled_from([1, Fraction(-2, 5), 1, 0])))
    return ring.ideal(gen), ring.elem(product(draw(exponents)) * extra * unit)


def _certificate_for(ideal, a):
    """find_certificate, with -1 mod p refused for a real-rooted p: there it
    has no sum-of-squares form, and the factor pass must stop before it."""

    def nonreal_only(p):
        assert not has_real_root(p), f"-1 mod real-rooted {p}"
        return _neg_one_sos_mod(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_neg_one_sos_mod", nonreal_only)
        return find_certificate(ideal, a)


class TestMembershipInTheFactorPass:
    """find_certificate decides membership in its one pass over factor(gen);
    the oracle is the independent rule real_part(gen) | a, with real part 0
    for the zero ideal of Q[x]."""

    @given(ideals_and_elements())
    @settings(max_examples=150, deadline=None)
    def test_found_iff_real_part_divides(self, case):
        ideal, a = case
        gen = ideal.gen
        real = gen if gen.is_zero() else reference_real_part(gen)
        out = _certificate_for(ideal, a)
        assert out.found == real.divides(a.rep)
        assert out.found == real_radical_member(ideal, a)
        if out.found:
            assert verify_certificate(out.certificate)

    def test_edges(self):
        x = BASE.elem(P("x"))
        assert _certificate_for(BASE.zero_ideal(), BASE.zero()).found
        assert not _certificate_for(BASE.zero_ideal(), x).found
        assert _certificate_for(BASE.unit_ideal(), x).found
        # x - 1 is a real root of gen outside V(a)
        assert not _certificate_for(BASE.ideal(P("x*(x-1)*(x^2+1)")), x).found
        ring = quot("x^2*(x-1)*(x^2+1)")
        assert _certificate_for(ring.zero_ideal(), ring.zero()).found
        assert not _certificate_for(ring.zero_ideal(), ring.elem(P("x^2+1"))).found
        assert _certificate_for(ring.ideal(P("x^2+1")), ring.elem(P("x-1"))).found


class TestCertificates:
    def test_base_sos_certificate(self):
        out = find_certificate(BASE.ideal(P("x^2+1")), BASE.one())
        assert out.status is CertificateStatus.FOUND
        c = out.certificate
        assert c.m == 1 and c.f == BASE.one()
        assert [t.rep for t in c.sos.terms] == [P("x")]
        assert [g.rep for g in c.gens] == [P("x^2+1")]
        assert [k.rep for k in c.coeffs] == [Poly.one()]
        assert verify_certificate(c)

    def test_fast_path_certificate(self):
        out = find_certificate(BASE.ideal(P("x^2")), BASE.elem(P("x")))
        assert out.found
        c = out.certificate
        assert c.m == 1 and c.sos.terms == () and [k.rep for k in c.coeffs] == [Poly.one()]
        assert verify_certificate(c)

    def test_not_member(self):
        out = find_certificate(BASE.ideal(P("x^2-1")), BASE.elem(P("x")))
        assert out.status is CertificateStatus.NOT_MEMBER
        assert out.certificate is None

    def test_broken_certificate_rejected(self):
        out = find_certificate(BASE.ideal(P("x^2+1")), BASE.one())
        c = out.certificate
        broken = Certificate(c.f, c.m, c.sos, c.gens, (BASE.elem(P("2")),))
        assert not verify_certificate(broken)
        # a construction that fails its own check is a typed bug, not bad input
        with pytest.raises(InternalError, match="constructed certificate failed to verify"):
            rings._verified(broken)
        assert issubclass(InternalError, AssertionError)

    def test_quotient_degenerate(self):
        ring = quot("x^2+1")
        out = find_certificate(ring.zero_ideal(), ring.one())
        assert out.found
        assert verify_certificate(out.certificate)

    def test_semireality_consistency(self):
        # -1 becomes a sum of squares exactly in non-semireal rings
        for text in ("x^2+1", "(x^2+1)*(x^2+2)"):
            ring = quot(text)
            assert not ring.is_semireal
            out = find_certificate(ring.zero_ideal(), ring.one())
            assert out.found
            c = out.certificate
            # 1^(2m) + sos = cofactor * 0 means 1 + sos = 0 in the ring
            lhs = ring.one() ** (2 * c.m) + c.sos.value_in(ring)
            assert lhs.is_zero()

    def test_reality_consistency(self):
        # in a real ring a vanishing sum of squares has all terms zero; in a
        # non-real one it need not
        rng = random.Random(33)
        for _ in range(100):
            ring = random_real_quotient(rng)
            terms = tuple(random_elem(rng, ring) for _ in range(rng.randint(0, 3)))
            sos = SumOfSquares(terms)
            if sos.value_in(ring).is_zero():
                assert all(t.is_zero() for t in terms)
        witness = quot("x^2+1")
        sos = SumOfSquares((witness.one(), witness.elem(P("x"))))
        assert sos.value_in(witness).is_zero()
        assert any(not t.is_zero() for t in sos.terms)

    def test_found_certificates_verify_randomized(self):
        rng = random.Random(41)
        for _ in range(120):
            ring = (
                BASE
                if rng.random() < 0.4
                else Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            )
            ideal = ring.ideal(random_structured_poly(rng, 3, 8))
            a = ring.elem(real_radical(ideal).gen * random_structured_poly(rng, 1, 3))
            out = find_certificate(ideal, a)
            assert out.found
            assert verify_certificate(out.certificate)

    @pytest.mark.parametrize("gen, a", KNOWN_HARD_MEMBERS)
    def test_known_hard_members(self, gen, a):
        out = find_certificate(BASE.ideal(P(gen)), BASE.elem(P(a)))
        assert out.found
        assert verify_certificate(out.certificate)

    def test_exact_square_completion(self):
        # x^4 + x^2 + 7 = (x^2 + 1/2)^2 + 27/4 gives -1 = (4/27)(x^2 + 1/2)^2 mod it
        out = find_certificate(BASE.ideal(P("x^4+x^2+7")), BASE.one())
        c = out.certificate
        assert c.m == 1
        assert sum((t.rep * t.rep for t in c.sos.terms), Poly.zero()) == P("4/27*(x^2+1/2)^2")

    def test_perturbed_route_doubles_precision(self):
        # x^4+20x^3+121x^2+218x+182 = (x^2+10x+21/2)^2 + 8x + 287/4 leaves an odd
        # remainder, and rounding its roots to 2^-16 leaves a negative even weight
        out = find_certificate(BASE.ideal(P("x^4+20*x^3+121*x^2+218*x+182")), BASE.elem(P("x")))
        assert out.found
        assert verify_certificate(out.certificate)

    @pytest.mark.parametrize("text", ["x^2-2", "x^4-x^2-1", "x^3+1", "-x^2-1", "x-1"])
    def test_sos_of_a_polynomial_not_positive_definite_is_refused(self, text):
        # a real root leaves no eps > 0 for univsos2; it used to halve eps forever
        with pytest.raises(DomainError):
            rings._weighted_sos(P(text))
        with pytest.raises(DomainError):
            rings._perturbed_sos(P(text))

    @given(nonreal_power_times_linears())
    @settings(max_examples=25, deadline=None)
    def test_every_member_certified(self, case):
        ring, gen, a = case
        out = find_certificate(ring.ideal(gen), ring.elem(a))
        assert out.found
        assert verify_certificate(out.certificate)

    @given(nonreal_prime_and_linears())
    @settings(max_examples=25, deadline=None)
    def test_repeated_nonreal_factor_keeps_the_square_count(self, case):
        # the lift of -1 to p^e keeps the terms of -1 mod p, and each term is
        # at most four squares (Lagrange), so the count grows at most 4x
        p, e, linears = case
        a = BASE.elem(linears)
        once = find_certificate(BASE.ideal(p * linears), a).certificate
        repeated = find_certificate(BASE.ideal(p**e * linears), a).certificate
        assert repeated.m == once.m == 1
        assert len(repeated.sos.terms) <= 4 * len(once.sos.terms)

    def test_cubed_degree_eight_factor(self):
        # the lift keeps the cube near the first power: m = 1 and 28 squares
        gen, a = P("(x^8+x^3+5)^3*(x-1)*(x+2)"), P("(x-1)*(x+2)")
        out = find_certificate(BASE.ideal(gen), BASE.elem(a))
        assert out.found and out.certificate.m == 1
        assert len(out.certificate.sos.terms) <= 40
        assert verify_certificate(out.certificate)

    @given(route_products(), route_factors(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_exponent_is_the_least_even_power(self, gen, extra, in_quotient):
        # every real-rooted factor of gen divides a, so a is a member
        ring = Ring.quotient(gen.monic() * P("x+7")) if in_quotient else BASE
        a = real_part(gen)
        for q, k in extra:
            a = a * q**k
        a = ring.elem(a)
        assume(not a.is_zero())
        out = find_certificate(ring.ideal(gen), a)
        assert out.found and verify_certificate(out.certificate)
        assert out.certificate.m == least_even_power(ring.ideal(gen).gen, a.rep)


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(Poly)


@st.composite
def covered_families(draw):
    """(f, gens) over Q[x] or Q[x]/(m), m monic of degree 1..5, with 1..4
    generators of degree <= 4, not all zero in Q[x], and f a multiple of the
    real radical of the ideal they generate."""
    if draw(st.booleans()):
        ring = BASE
    else:
        lower = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
        ring = Ring.quotient(Poly(lower + [1]))
    gens = [ring.elem(p) for p in draw(st.lists(small_polys, min_size=1, max_size=4))]
    assume(ring.is_quotient or any(not g.is_zero() for g in gens))
    f = ring.elem(real_radical(ideal_sum(ring, gens)).gen * draw(small_polys))
    return f, gens


class TestCombinationCertificate:
    @given(covered_families())
    @settings(max_examples=80, deadline=None)
    def test_verifies_and_one_changed_coefficient_fails(self, case):
        f, gens = case
        cert = combination_certificate(f, gens)
        assert (cert.f, cert.gens) == (f, tuple(gens))
        assert verify_certificate(cert)
        nonzero = [i for i, g in enumerate(gens) if not g.is_zero()]
        assume(nonzero)
        coeffs = list(cert.coeffs)
        coeffs[nonzero[0]] = coeffs[nonzero[0]] + f.ring.one()
        assert not verify_certificate(dataclasses.replace(cert, coeffs=tuple(coeffs)))

    def test_not_a_member(self):
        with pytest.raises(DomainError):
            combination_certificate(BASE.elem(P("x")), [BASE.elem(P("x-1"))])
        # the zero ideal of Q[x]: no family member to take a gcd of
        with pytest.raises(DomainError, match="needs a nonzero member"):
            combination_certificate(BASE.elem(P("x")), [BASE.zero()])

    def test_one_generator_is_the_real_radical_certificate(self):
        # with one generator f_i the coefficient is the u with h^(2m) + sos = u * f_i
        h, fi = BASE.elem(P("x")), BASE.elem(P("2*x^2"))
        cert = combination_certificate(h, [fi])
        assert cert.m == 1 and cert.sos.terms == ()
        assert cert.coeffs == (BASE.elem(P("1/2")),)


class TestNegOneCache:
    def test_shared_non_real_prime_is_built_once(self):
        # x^6+x+9 takes the univsos2 route; -1 as a sum of squares mod it is cached
        p = P("x^6+x+9")
        ideal, a = BASE.ideal(p * P("x+5")), BASE.elem(P("x+5"))
        first = find_certificate(ideal, a)
        hits = _neg_one_sos_mod.cache_info().hits
        second = find_certificate(ideal, a)
        assert second == first and second.found
        assert _neg_one_sos_mod.cache_info().hits > hits
        hits = _neg_one_sos_mod.cache_info().hits
        other = find_certificate(BASE.ideal(p * P("x-1")), BASE.elem(P("x-1")))
        assert other.found and _neg_one_sos_mod.cache_info().hits > hits
        cached = _neg_one_sos_mod(p)
        assert type(cached) is tuple and cached == _neg_one_sos_mod.__wrapped__(p)


class TestSigmaDenominator:
    def test_value(self):
        ring = quot("x^2-x")
        f = ring.one()
        den = SigmaDenominator(f, 2, SumOfSquares((ring.elem(P("x")),)))
        assert den.value() == ring.elem(P("1+x^2"))

    def test_zero_f_rejected(self):
        with pytest.raises(DomainError):
            SigmaDenominator(BASE.zero(), 1)

    def test_sigma_always_inhabited(self):
        # f^2 (m=1) and 1 (m=0) belong for any nonzero f in any ring
        ring = quot("x^3-x")
        f = ring.elem(P("x-5"))
        assert SigmaDenominator(f, 1).value() == f * f
        assert SigmaDenominator(f, 0).value() == ring.one()
