import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from realspec import (
    DomainError,
    LocalFraction,
    NotACoverError,
    OutOfDomainError,
    Poly,
    RealPrime,
    Ring,
    Section,
    closed_intersect,
    closed_subset,
    closed_union,
    cover_check,
    enumerate_primes,
    factor,
    finite_subcover,
    real_part,
    stalk_at,
    v_of,
    verify_certificate,
)
from realspec.parsing import parse_poly as P
import realspec.zassenhaus as zassenhaus
from realspec.polynomials import has_real_root
from realspec.rings import ideal_sum, real_radical_member

from helpers import (
    ROUTE_POOL,
    count_real_roots_oracle,
    prime_kind,
    random_elem,
    random_structured_poly,
    reference_contains,
    reference_prime_in,
    reference_v_of,
    route_factors,
)

BASE = Ring.rationals()


def quot(text):
    return Ring.quotient(P(text))


def vset(ring, text):
    return v_of(ring.ideal(P(text)))


class TestClosedSets:
    def test_v_of_examples(self):
        assert vset(BASE, "x^2+1").is_empty()
        assert vset(BASE, "x^2-1").gen == P("x^2-1")
        assert vset(BASE, "0").is_whole()

    def test_quotient_whole_space_canonical(self):
        ring = quot("x^2-x")
        assert v_of(ring.zero_ideal()).is_whole()
        # an ideal containing every real prime is the whole space too
        assert vset(ring, "x^2-x").is_whole()
        # empty spectrum: everything collapses to the whole (= empty) space
        degenerate = quot("x^2+1")
        assert v_of(degenerate.zero_ideal()) == vset(degenerate, "1")

    def test_union_examples(self):
        assert closed_union(vset(BASE, "x-1"), vset(BASE, "x+1")).gen == P("x^2-1")
        h = vset(BASE, "x^2-2")
        assert closed_union(h, vset(BASE, "1")) == h
        assert closed_union(vset(BASE, "x"), vset(BASE, "x")).gen == P("x")

    def test_intersect_examples(self):
        assert closed_intersect([vset(BASE, "x^2-1"), vset(BASE, "x*(x-1)")]).gen == P("x-1")
        h = vset(BASE, "x+2")
        assert closed_intersect([h, vset(BASE, "0")]) == h
        assert closed_intersect([vset(BASE, "x-1"), vset(BASE, "x+1")]).is_empty()

    def test_subset_examples(self):
        assert not closed_subset(vset(BASE, "x^2-1"), vset(BASE, "x-1"))
        assert closed_subset(vset(BASE, "x-1"), vset(BASE, "x^2-1"))
        assert closed_subset(vset(BASE, "x^2+1"), vset(BASE, "x^2-2"))  # empty in all
        assert closed_subset(vset(BASE, "x+5"), vset(BASE, "0"))  # whole contains all

    def test_prime_validation(self):
        with pytest.raises(DomainError):
            RealPrime(BASE, P("x^2+1"))  # no real root
        with pytest.raises(DomainError):
            RealPrime(BASE, P("x^2-1"))  # not irreducible
        with pytest.raises(DomainError):
            RealPrime(quot("x^2-x"), Poly.zero())  # quotient has no zero prime
        with pytest.raises(DomainError):
            RealPrime(quot("x^2-x"), P("x-5"))  # does not divide modulus


_TABLE_RING = "(x-1)^2*(x^2-2)*(x^2+1)"


@pytest.mark.parametrize(
    "modulus, gen, real",
    [
        # a quotient: its real factors and nothing else
        (_TABLE_RING, "x-1", True),
        (_TABLE_RING, "x^2-2", True),
        (_TABLE_RING, "0", False),
        (_TABLE_RING, "x^2+1", False),  # a non-real factor
        (_TABLE_RING, "x+5", False),  # not a divisor
        (_TABLE_RING, "2*x-2", False),  # a non-monic associate
        (_TABLE_RING, "(x-1)*(x^2-2)", False),  # a reducible divisor
        (_TABLE_RING, "(x-1)^2", False),
        # Q[x]: zero, or monic, irreducible and real-rooted
        (None, "0", True),
        (None, "x-1", True),
        (None, "x^2-1", False),
        (None, "x^2+1", False),
        (None, "2*x-2", False),
    ],
)
def test_real_prime_table(modulus, gen, real):
    ring = BASE if modulus is None else quot(modulus)
    if real:
        assert RealPrime(ring, P(gen)).gen == P(gen)
    else:
        with pytest.raises(DomainError, match="is not a real prime of"):
            RealPrime(ring, P(gen))


# irreducibles with and without real roots, for moduli and elements
_POOL = [P(t) for t in ("x", "x-1", "x+2", "x^2-2", "x^3-2", "x^2+1", "x^2+x+1")]


@st.composite
def primes_and_elems(draw):
    """A ring (Q[x], or a quotient by a product of pool powers), all its real
    primes (in Q[x]: the zero prime and the real-rooted pool members) and
    elements that are products of pool powers times 0, 1 or -3/2."""
    exponents = st.lists(st.integers(0, 2), min_size=len(_POOL), max_size=len(_POOL))

    def product(exps):
        out = Poly.one()
        for p, e in zip(_POOL, exps):
            out = out * p**e
        return out

    if draw(st.booleans()):
        ring = BASE
        primes = [RealPrime(BASE, Poly.zero())] + [RealPrime(BASE, p) for p in _POOL if has_real_root(p)]
    else:
        modulus = product(draw(exponents))
        assume(not modulus.is_constant())
        ring = Ring.quotient(modulus)
        primes = enumerate_primes(ring)
    units = st.sampled_from([0, 1, Fraction(-3, 2)])
    elems = st.lists(st.tuples(units, exponents), min_size=1, max_size=4)
    return ring, primes, [ring.elem(product(e) * Poly.const(u)) for u, e in draw(elems)]


class TestOneContainmentRule:
    """contains and stalk_at's domain check agree with the branchy
    reference over (kind, gen) in tests/helpers.py."""

    @given(primes_and_elems())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_reference(self, case):
        ring, primes, elems = case
        for p in primes:
            kind, gen = prime_kind(p.gen)
            for a in elems:
                assert p.contains(a) == reference_contains(kind, gen, a)
                section = Section(ring, a, (LocalFraction(ring.one(), a),))
                outside = reference_prime_in(kind, gen, v_of(ring.ideal(a)).gen)
                if outside:
                    with pytest.raises(OutOfDomainError):
                        stalk_at(section, p)
                else:
                    assert stalk_at(section, p).denominator == a

    def test_markers_and_zero_prime(self):
        zero, x = RealPrime(BASE, Poly.zero()), RealPrime(BASE, P("x"))
        assert zero.contains(BASE.zero()) and not zero.contains(BASE.one())
        assert str(zero) == "(0)" and str(x) == "(x)"


class TestVOfByRootCount:
    """v_of decides "V(I) is everything" by the one membership test: the
    radical's generator is in the real radical of the zero ideal (m) iff m
    has no real root that it lacks; the factoring route, gen ==
    real_part(m), and the factor definition are the references."""

    @given(route_factors(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, pieces, data):
        m = Poly.one()
        g = data.draw(st.sampled_from((Poly.one(),) + ROUTE_POOL))  # maybe foreign to m
        for q, k in pieces:
            m = m * q**k
            g = g * q ** data.draw(st.integers(0, k))
        for ring in (Ring.quotient(m.monic()), Ring.rationals()):
            ideal = ring.ideal(g)
            assert v_of(ideal) == reference_v_of(ideal)

    @staticmethod
    def by_factor_definition(ideal):
        """V(I) is the whole space iff every real-rooted factor of m, judged
        by the Descartes oracle, divides real_part(I.gen)."""
        radical = real_part(ideal.gen)
        return all(p.divides(radical) for p, _ in factor(ideal.ring.modulus).factors
                   if count_real_roots_oracle(p) > 0)

    @given(route_factors(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_strip_matches_factor_definition(self, pieces, data):
        m, g = Poly.one(), Poly.one()
        for q, k in pieces:
            m = m * q**k
            g = g * q ** data.draw(st.integers(0, k))
        ideal = Ring.quotient(m.monic()).ideal(g)
        v = v_of(ideal)
        if real_part(ideal.gen).is_one():  # no real prime holds I: the empty set
            assert v.is_empty()
        else:
            assert v.is_whole() == self.by_factor_definition(ideal)

    def test_strip_through_repeated_real_factors(self):
        ring = quot("(x-1)^3*(x+2)*(x^2+1)")
        for i, j, k in itertools.product(range(4), range(2), range(2)):
            ideal = ring.ideal(P("x-1") ** i * P("x+2") ** j * P("x^2+1") ** k)
            if i or j:
                assert v_of(ideal).is_whole() == self.by_factor_definition(ideal) == (i > 0 and j > 0)
        assert vset(ring, "(x-1)^2*(x^2+1)").gen == P("x-1")
        # multiplicity 65536 goes to the cofactor x^65535 of one gcd, and Yun reads it
        assert vset(quot("x^65536"), "x").is_whole()

    @pytest.mark.parametrize("case", ["v_of", "member"])
    def test_x_against_x65536_in_few_gcds(self, monkeypatch, case):
        """One gcd, one Yun and one gcd per Yun component: a bounded number of
        kernel gcds, not one per pass of a loop that divides out copies of x."""
        if case == "v_of":
            ideal = quot("x^65536").ideal(P("x"))
            decide = lambda: v_of(ideal).is_whole()
        else:
            ideal, a = BASE.ideal(P("x") ** 65536), BASE.elem(P("x"))
            decide = lambda: real_radical_member(ideal, a)
        calls, gcd = [], zassenhaus.gcd
        monkeypatch.setattr(zassenhaus, "gcd", lambda f, g: calls.append(1) or gcd(f, g))
        assert decide()
        assert len(calls) <= 6

    def test_whole_space_with_non_real_and_repeated_factors(self):
        ring = quot("(x-1)^2*(x^3-2)*(x^2+1)")
        assert v_of(ring.ideal(P("(x-1)*(x^3-2)"))).is_whole()
        assert v_of(ring.ideal(P("x^3-2"))).gen == P("x^3-2")


class TestEnumeratePrimes:
    def test_examples(self):
        # canonical factor order: degree, then coefficients leading to constant,
        # so x - 1 sorts before x
        assert [p.gen for p in enumerate_primes(quot("x^2-x"))] == [P("x-1"), P("x")]
        assert enumerate_primes(quot("x^2+1")) == []
        assert [p.gen for p in enumerate_primes(quot("x^2"))] == [P("x")]

    def test_base_unsupported(self):
        with pytest.raises(DomainError):
            enumerate_primes(BASE)

    def test_empty_iff_not_semireal(self):
        rng = random.Random(7)
        for _ in range(80):
            ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            assert (enumerate_primes(ring) == []) == (not ring.is_semireal)


class TestLemmaLaws:
    def test_union_product_law(self):
        rng = random.Random(101)
        for _ in range(200):
            ring = BASE if rng.random() < 0.5 else Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            i = ring.ideal(random_structured_poly(rng, 3, 10))
            j = ring.ideal(random_structured_poly(rng, 3, 10))
            assert reference_v_of(ring.ideal(i.gen * j.gen)) == closed_union(v_of(i), v_of(j))

    def test_intersection_sum_law(self):
        rng = random.Random(103)
        for _ in range(200):
            ring = BASE if rng.random() < 0.5 else Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            ideals = [ring.ideal(random_structured_poly(rng, 3, 10)) for _ in range(rng.randint(1, 4))]
            total = ideals[0]
            for k in ideals[1:]:
                total = ideal_sum(ring, (total.gen, k.gen))
            assert v_of(total) == closed_intersect([v_of(k) for k in ideals])

    def test_subset_radical_law(self):
        from realspec import real_radical

        rng = random.Random(107)
        for _ in range(200):
            ring = BASE if rng.random() < 0.5 else Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            i = ring.ideal(random_structured_poly(rng, 3, 10))
            j = ring.ideal(random_structured_poly(rng, 3, 10))
            lhs = closed_subset(v_of(i), v_of(j))
            ri, rj = real_radical(i), real_radical(j)
            # radical containment (a) >= (b) is exactly a | b, sentinels included
            rhs = ri.gen.divides(rj.gen)
            assert lhs == rhs

    def test_pointwise_agreement(self):
        rng = random.Random(109)
        for _ in range(100):
            ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            primes = enumerate_primes(ring)
            i = ring.ideal(random_elem(rng, ring, 4))
            j = ring.ideal(random_elem(rng, ring, 4))
            vi, vj = v_of(i), v_of(j)
            union = closed_union(vi, vj)
            inter = closed_intersect([vi, vj])
            for p in primes:
                assert p.gen.divides(union.gen) == (p.gen.divides(vi.gen) or p.gen.divides(vj.gen))
                assert p.gen.divides(inter.gen) == (p.gen.divides(vi.gen) and p.gen.divides(vj.gen))
            assert closed_subset(vi, vj) == all(
                p.gen.divides(vj.gen) for p in primes if p.gen.divides(vi.gen)
            )

    def test_basic_opens_form_basis(self):
        # the complement of a canonical closed set is D(gen), pointwise
        rng = random.Random(113)
        for _ in range(60):
            ring = Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            primes = enumerate_primes(ring)
            v = v_of(ring.ideal(random_elem(rng, ring, 4)))
            gen_elem = ring.elem(v.gen)
            for p in primes:
                in_complement = not p.gen.divides(v.gen)
                in_d_gen = not p.contains(gen_elem)
                assert in_complement == in_d_gen


class TestCover:
    def test_examples(self):
        f = BASE.elem(P("x^2-1"))
        assert cover_check(f, [BASE.elem(P("x-1")), BASE.elem(P("x+1"))])
        assert cover_check(BASE.elem(P("x")), [BASE.elem(P("x^2"))])
        assert cover_check(f, [BASE.elem(P("(x-1)*(x^2+1)"))])
        assert not cover_check(f, [BASE.elem(P("x+2"))])

    def test_zero_f(self):
        with pytest.raises(DomainError):
            cover_check(BASE.zero(), [BASE.one()])

    def test_degenerate_empty_open(self):
        ring = quot("x^2")
        # D(x) is empty there, so even the empty family covers it
        assert cover_check(ring.elem(P("x")), [])

    def test_subcover_quotient_example(self):
        ring = quot("x^2-x")
        out = finite_subcover(ring.one(), [ring.elem(P("x")), ring.elem(P("x-1"))])
        assert out.indices == (0, 1)
        cert = out.certificate
        assert [c.rep for c in cert.coeffs] == [P("1"), P("-1")]
        assert cert.sos.terms == ()
        assert verify_certificate(cert)

    def test_subcover_base_examples(self):
        f = BASE.elem(P("x^2-1"))
        fs = [BASE.elem(P("x-1")), BASE.elem(P("x+1")), BASE.elem(P("x"))]
        out = finite_subcover(f, fs)
        assert out.indices == (0, 1)  # greedy drops x
        assert verify_certificate(out.certificate)

        # gcd real part of [x, x^2+1] is 1; x alone cannot reach it
        out2 = finite_subcover(BASE.elem(P("x")), [BASE.elem(P("x")), BASE.elem(P("x^2+1"))])
        assert out2.indices == (1,)
        assert verify_certificate(out2.certificate)

    def test_subcover_not_a_cover(self):
        with pytest.raises(NotACoverError):
            finite_subcover(BASE.elem(P("x^2-1")), [BASE.elem(P("x+2"))])

    def test_subcover_randomized(self):
        rng = random.Random(127)
        for _ in range(60):
            ring = BASE if rng.random() < 0.5 else Ring.quotient(random_structured_poly(rng, 3, 8).monic())
            f = ring.elem(random_structured_poly(rng, 2, 6))
            if f.is_zero():
                continue
            fs = [ring.elem(random_structured_poly(rng, 2, 6)) for _ in range(rng.randint(1, 5))]
            if not cover_check(f, fs):
                continue
            out = finite_subcover(f, fs)
            # the subcover always covers
            assert cover_check(f, [fs[i] for i in out.indices])
            assert out.certificate.gens == tuple(fs[i] for i in out.indices)
            assert verify_certificate(out.certificate)
