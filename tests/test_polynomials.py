import random
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_inner_gcd
from sympy.polys.sqfreetools import dup_sqf_list

import realspec.polynomials as polynomials
import realspec.zassenhaus as zassenhaus
from realspec import (
    NEG_INF,
    DomainError,
    Poly,
    bezout_many,
    count_real_roots,
    ext_gcd,
    factor,
    gcd,
    has_real_root,
    is_irreducible,
    real_part,
)
from realspec.parsing import parse_poly as P
from realspec.polynomials import _count_real_roots_cached, _factor_cached, has_real_root_outside

from helpers import (
    ROUTE_POOL,
    _strip,
    count_real_roots_oracle,
    derivative,
    euclid_gcd,
    euclid_squarefree_part,
    evaluate,
    frac_divmod,
    frac_mul,
    from_sympy,
    kernel_products,
    lcm,
    random_dense_product,
    random_nonzero_poly,
    random_structured_poly,
    reference_factor,
    reference_real_part,
    route_factors,
    route_products,
    to_sympy,
)


def fractions(max_num=8, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def polys(max_deg=6):
    return st.lists(fractions(), min_size=0, max_size=max_deg + 1).map(Poly)


def nonzero_polys(max_deg=6):
    return polys(max_deg).filter(lambda p: not p.is_zero())


class TestArithmetic:
    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        calls = []
        mul = Poly.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        f = P("x+1")
        expected = Poly.one()
        for n in range(1, 65):
            expected = mul(expected, f)
            monkeypatch.setattr(Poly, "__mul__", counting)
            calls.clear()
            assert f**n == expected
            monkeypatch.setattr(Poly, "__mul__", mul)
            # one square per bit after the first, one product per set bit after the first
            assert len(calls) == n.bit_length() + bin(n).count("1") - 2, n
        assert f**0 == Poly.one()

    def test_add_cancellation(self):
        assert P("x^2-1") + P("1") == P("x^2")

    def test_divrem_example(self):
        quo, rem = divmod(P("x^3"), P("x^2+1"))
        # oracle: re-expand and compare
        assert quo * P("x^2+1") + rem == P("x^3")
        assert (quo, rem) == (P("x"), P("-x"))

    def test_derivative_power_rule(self):
        assert derivative(P("x^4+x^2")) == P("4*x^3+2*x")

    def test_zero_degree_marker(self):
        assert Poly.zero().degree == NEG_INF
        assert Poly.zero().degree < 0
        assert not isinstance(Poly.zero().degree, int)
        assert Poly.one().degree == 0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            divmod(P("x"), Poly.zero())

    def test_monomial_power_fast_path(self):
        p = P("x") ** 4096
        assert p.degree == 4096
        assert p.coefficient(4096) == 1

    @given(polys(), polys(), polys())
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), nonzero_polys())
    @settings(max_examples=150, deadline=None)
    def test_divrem_invariant(self, a, b):
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree


def assert_canonical(p: Poly) -> None:
    """Content times primitive integer tuple, leading entry positive."""
    if p.is_zero():
        assert (p._n, p._d, p._p) == (0, 1, ())
        return
    assert type(p._n) is type(p._d) is int and p._n != 0 < p._d and math.gcd(p._n, p._d) == 1
    assert all(type(x) is int for x in p._p)
    assert math.gcd(*p._p) == 1 and p._p[-1] > 0


def assert_two_int_content(p: Poly) -> None:
    """The content is two coprime ints n/d with d > 0, and n = 0 only for zero."""
    assert type(p._n) is int and type(p._d) is int
    assert p._d > 0 and math.gcd(p._n, p._d) == 1
    assert (p._n == 0) == p.is_zero()


def wide_polys(max_deg=6):
    return st.lists(fractions(60, 12), max_size=max_deg + 1).map(Poly)


def rational_lead_divisors(max_deg=4):
    """Leading coefficient a non-integer rational: division takes the scaling path."""
    lead = st.builds(Fraction, st.sampled_from([-5, -3, -2, 2, 3, 5, 7]), st.sampled_from([2, 3, 4]))
    return st.tuples(st.lists(fractions(60, 12), max_size=max_deg), lead).map(
        lambda t: Poly(t[0] + [t[1]])
    )


def monic_integer_divisors(max_deg=4):
    """Monic with integer coefficients, as every quotient-ring modulus: no scaling."""
    return st.lists(st.integers(-9, 9), max_size=max_deg).map(lambda cs: Poly(cs + [1]))


class TestKernelAgainstFractionReference:
    """The integer kernel against the Fraction loops it replaced (tests/helpers.py)."""

    @given(wide_polys(), wide_polys(), wide_polys())
    @settings(max_examples=200, deadline=None)
    def test_ring_laws(self, a, b, c):
        for p in (a * b, a + b, a - b, -a, a * b + c):
            assert_canonical(p)
        assert (a * b).coeffs == frac_mul(a, b)
        assert (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
        assert (a - b) + b == a and a - a == Poly.zero()

    @given(wide_polys(), wide_polys(), fractions(60, 12), st.lists(fractions(60, 12), max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_content_is_two_ints(self, a, b, c, cs):
        """Every arithmetic result carries its content as two ints, and its
        coefficients are those of the plain Fraction-list reference."""
        xs, ys = list(a.coeffs), list(b.coeffs)
        width = max(len(xs), len(ys))
        xs0, ys0 = xs + [Fraction(0)] * (width - len(xs)), ys + [Fraction(0)] * (width - len(ys))
        results = [
            (a + b, [x + y for x, y in zip(xs0, ys0)]),
            (a - b, [x - y for x, y in zip(xs0, ys0)]),
            (-a, [-x for x in xs]),
            (a * b, frac_mul(a, b)),
            (a.scale(c), [c * x for x in xs]),
            (Poly(cs), cs),
        ]
        if not a.is_zero():
            results.append((a.monic(), [x / xs[-1] for x in xs]))
        if not b.is_zero():
            quo, rem = divmod(a, b)
            ref_quo, ref_rem = frac_divmod(a, b)
            results += [(quo, ref_quo), (rem, ref_rem)]
        for p, ref in results:
            assert_two_int_content(p)
            assert p.coeffs == _strip(list(ref))

    @given(wide_polys(), fractions(60, 12), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_monomial_product_is_a_shift(self, a, c, k):
        m = Poly.monomial(c, k)
        for p in (m * a, a * m):
            assert_canonical(p)
            assert p.coeffs == frac_mul(m, a)

    @given(st.lists(st.one_of(
        wide_polys(),
        st.tuples(st.integers(-60, 60), st.integers(1, 12), st.integers(0, 8)),
    ), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_sum_of_polys_and_monomials(self, terms):
        as_polys = [Poly.monomial(Fraction(t[0], t[1]), t[2]) if type(t) is tuple else t for t in terms]
        total = Poly.sum(terms)
        assert_canonical(total)
        assert total == sum(as_polys, Poly.zero())

    @given(wide_polys(8), st.one_of(rational_lead_divisors(), monic_integer_divisors(), wide_polys(4)))
    @settings(max_examples=300, deadline=None)
    def test_divmod(self, a, b):
        if b.is_zero():
            return
        quo, rem = divmod(a, b)
        assert_canonical(quo)
        assert_canonical(rem)
        assert (quo.coeffs, rem.coeffs) == frac_divmod(a, b)
        assert quo * b + rem == a

    def test_both_divisor_paths(self):
        # x^3 + 1 by (3/2)x + 1: primitive divisor 3x + 2, whose leading entry
        # divides no term of the dividend, so every step scales
        quo, rem = divmod(P("x^3+1"), P("3/2*x+1"))
        assert (quo.coeffs, rem.coeffs) == frac_divmod(P("x^3+1"), P("3/2*x+1"))
        assert (quo, rem) == (P("2/3*x^2 - 4/9*x + 8/27"), P("19/27"))
        # a monic integer modulus divides exactly in the integers
        quo, rem = divmod(P("7/3*x^5 - x + 2"), P("x^2 - 3*x + 5"))
        assert (quo.coeffs, rem.coeffs) == frac_divmod(P("7/3*x^5 - x + 2"), P("x^2 - 3*x + 5"))

    def test_canonical_form(self):
        half = Fraction(1, 2)
        routes = [
            Poly([half, 1]), Poly([1, 2]).scale(half), P("x+1/2"), P("2*x+1") * Poly.const(half),
            P("-4*x-2").scale(Fraction(-1, 4)), derivative(P("(x+1/2)^2")).scale(half),
            P("x^2+3/2*x+1/2") // P("x+1"), P("3*x^2+x") - P("3*x^2-1/2"),
        ]
        for p in routes:
            assert_canonical(p)
            assert (p._n, p._d, p._p) == (1, 2, (1, 2))
            assert p == routes[0] and hash(p) == hash(routes[0])
        assert (Poly.zero()._n, Poly.zero()._d, Poly.zero()._p) == (0, 1, ())
        assert_canonical(P("x") - P("x"))
        assert_canonical(Poly([0, 0, 0]))
        neg = -P("3*x-6")  # -3 * (x - 2): the sign sits in the content
        assert (neg._n, neg._d, neg._p) == (-3, 1, (-2, 1))

    @given(wide_polys(8))
    @settings(max_examples=150, deadline=None)
    def test_coeffs_and_round_trip(self, p):
        assert all(type(c) is Fraction for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0
        assert Poly(p.coeffs) == p
        assert P(str(p)) == p and str(P(str(p))) == str(p)


class TestGcd:
    def test_examples(self):
        g = gcd(P("x^2-1"), P("x^2-2*x+1"))
        assert g == P("x-1")
        # oracle: both divisibilities
        assert g.divides(P("x^2-1")) and g.divides(P("x^2-2*x+1"))
        assert gcd(P("3*x^2-3"), Poly.zero()) == P("x^2-1")
        assert gcd(P("x-1"), P("x+1")) == Poly.one()

    @given(st.one_of(polys(4), fractions().map(Poly.const)), fractions(60, 12).filter(bool), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_ext_gcd_constant_argument(self, p, c, constant_first):
        """A nonzero constant answers at once, with the Bezout pair of the
        Euclid loop: the identity holds and sympy's gcdex agrees."""
        args = (Poly.const(c), p) if constant_first else (p, Poly.const(c))
        g, s, t = ext_gcd(*args)
        assert g == Poly.one() and s * args[0] + t * args[1] == g
        if not args[1].is_zero():  # sympy's gcdex divides by its second argument
            want = sympy.gcdex(to_sympy(args[0]), to_sympy(args[1]))
            assert (s, t, g) == tuple(from_sympy(w) for w in want)

    def test_gcd_zero_zero(self):
        with pytest.raises(DomainError):
            gcd(Poly.zero(), Poly.zero())

    def test_bezout_examples(self):
        g, cs = bezout_many([P("x-1"), P("x+1")])
        assert g == Poly.one()
        assert cs[0] * P("x-1") + cs[1] * P("x+1") == g
        g, cs = bezout_many([P("x")])
        assert (g, cs) == (P("x"), [Poly.one()])
        g, cs = bezout_many([P("x^2"), P("x^3")])
        assert g == P("x^2")
        assert cs[0] * P("x^2") + cs[1] * P("x^3") == g

    def test_bezout_all_zero(self):
        with pytest.raises(DomainError):
            bezout_many([Poly.zero(), Poly.zero()])

    @given(st.lists(polys(5), min_size=1, max_size=4).filter(lambda fs: any(not f.is_zero() for f in fs)))
    @settings(max_examples=120, deadline=None)
    def test_bezout_identity(self, fs):
        g, cs = bezout_many(fs)
        combo = Poly.zero()
        for c, f in zip(cs, fs):
            combo = combo + c * f
        assert combo == g
        for f in fs:
            assert g.divides(f)

    def test_gcd_divides_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            p = random_nonzero_poly(rng, 12)
            q = random_nonzero_poly(rng, 12)
            g = gcd(p, q)
            assert g.divides(p) and g.divides(q)
            assert g.leading == 1


class TestSquarefreeAndFactor:
    def test_factor_examples(self):
        fac = factor(P("x^4-1"))
        assert fac.unit == 1
        assert [(str(p), m) for p, m in fac.factors] == [
            ("x - 1", 1),
            ("x + 1", 1),
            ("x^2 + 1", 1),
        ]
        fac6 = factor(P("6"))
        assert fac6.unit == 6 and fac6.factors == ()
        # rational root theorem: x^2 - 2 has no root among +-1, +-2, so it is
        # irreducible in degree 2
        for cand in (1, -1, 2, -2):
            assert evaluate(P("x^2-2"), cand) != 0
        assert is_irreducible(P("x^2-2"))

    def test_factor_zero(self):
        with pytest.raises(DomainError):
            factor(Poly.zero())

    def test_factor_round_trip_randomized(self):
        rng = random.Random(5)
        for _ in range(250):
            p = random_structured_poly(rng)
            assert factor(p).value() == p

    def test_canonical_order(self):
        fac = factor(P("(x+1)*(x-1)*(x^2-2)*x"))
        keys = [pf.sort_key() for pf, _ in fac.factors]
        assert keys == sorted(keys)
        assert len(set(pf for pf, _ in fac.factors)) == len(fac.factors)


class TestRealRoots:
    def test_examples(self):
        assert count_real_roots(P("x^2-2")) == 2
        assert count_real_roots(P("x^2+1")) == 0
        # roots -1, 0, 1 verified by evaluation
        for r in (-1, 0, 1):
            assert evaluate(P("x^3-x"), r) == 0
        assert count_real_roots(P("x^3-x")) == 3

    def test_zero_error(self):
        with pytest.raises(DomainError):
            count_real_roots(Poly.zero())

    def test_oracle_agreement_small(self):
        rng = random.Random(23)
        for _ in range(150):
            p = random_nonzero_poly(rng, 8)
            sf = euclid_squarefree_part(p)
            if sf.is_constant():
                continue
            assert count_real_roots(sf) == count_real_roots_oracle(sf)

    def test_multiplicity_invariance(self):
        rng = random.Random(29)
        for _ in range(100):
            p = random_nonzero_poly(rng, 6)
            if p.is_constant():
                continue
            assert count_real_roots(p) == count_real_roots(euclid_squarefree_part(p))
            assert count_real_roots(p * p) == count_real_roots(p)


class TestRealPart:
    def test_examples(self):
        assert real_part(P("x^2*(x^2+1)")) == P("x")
        assert real_part(P("x^2+1")) == Poly.one()
        assert real_part(P("x^2-1")) == P("x^2-1")

    def test_zero_error(self):
        with pytest.raises(DomainError):
            real_part(Poly.zero())

    def test_idempotent(self):
        rng = random.Random(31)
        for _ in range(150):
            p = random_structured_poly(rng)
            rp = real_part(p)
            assert real_part(rp) == rp

    def test_product_is_lcm(self):
        rng = random.Random(37)
        for _ in range(150):
            p = random_structured_poly(rng, max_factors=3, max_deg=8)
            q = random_structured_poly(rng, max_factors=3, max_deg=8)
            assert real_part(p * q) == lcm(real_part(p), real_part(q))


class TestPerComponentRoutes:
    """factor and real_part go one squarefree component at a time, with Sturm
    short-cuts; the whole-polynomial routes they replaced are the reference."""

    @given(route_products())
    @settings(max_examples=150, deadline=None)
    def test_factor_matches_reference(self, p):
        fac = factor(p)
        assert fac == reference_factor(p)
        assert fac.value() == p

    @given(route_products())
    @settings(max_examples=150, deadline=None)
    def test_real_part_matches_reference(self, p):
        assert real_part(p) == reference_real_part(p)

    def test_dense_products_match_reference(self):
        rng = random.Random(53)
        for _ in range(25):
            p, _ = random_dense_product(rng, 24)
            assert factor(p) == reference_factor(p)
            assert real_part(p) == reference_real_part(p)

    def test_short_cut_examples(self):
        # components with both kinds of roots are factored: one holding an
        # all-real cubic and a non-real quadratic, and the irreducible x^3 - 2
        assert real_part(P("(x^3-3*x+1)*(x^2+1)")) == P("x^3-3*x+1")
        assert real_part(P("(x^3-2)*(x^2+x+1)^2")) == P("x^3-2")
        # an all-real component kept whole is made monic
        assert real_part(P("(2*x+3)*(3*x-1)*(x^2+1)^2")) == P("(x+3/2)*(x-1/3)")
        fac = factor(P("(x^4+1)^2*(x-1)^3*(x^3-2)"))
        assert [(str(q), m) for q, m in fac.factors] == [
            ("x - 1", 3), ("x^3 - 2", 1), ("x^4 + 1", 2),
        ]


class TestZassenhausKernel:
    """The factoring kernel (Cantor-Zassenhaus mod p, Hensel lift, recombination)
    against sympy's dup_factor_list, through `factor` on each Yun component."""

    @given(kernel_products())
    @settings(max_examples=120, deadline=None)
    def test_factor_matches_reference(self, p):
        fac = factor(p)
        assert fac == reference_factor(p)
        assert fac.value() == p

    @given(kernel_products())
    @settings(max_examples=120, deadline=None)
    def test_real_part_matches_reference(self, p):
        assert real_part(p) == reference_real_part(p)

    def factor_with_primes(self, monkeypatch, text):
        """The factorization of text, and the primes whose factors mod p were counted."""
        primes, gf_factor = [], zassenhaus._gf_factor
        monkeypatch.setattr(zassenhaus, "_gf_factor", lambda f, p: primes.append(p) or gf_factor(f, p))
        _factor_cached.cache_clear()
        fac = factor(P(text))
        assert fac == reference_factor(P(text))
        return fac, primes

    def test_swinnerton_dyer(self, monkeypatch):
        # irreducible over Q but split mod every prime: recombination rejects every subset
        for text in ("x^4-10*x^2+1", "x^8-40*x^6+352*x^4-960*x^2+576"):
            fac, _ = self.factor_with_primes(monkeypatch, text)
            assert [(str(q), m) for q, m in fac.factors] == [(str(P(text)), 1)]

    def test_cyclotomic(self, monkeypatch):
        fac, _ = self.factor_with_primes(monkeypatch, "x^12-1")
        assert [str(q) for q, _ in fac.factors] == [
            "x - 1", "x + 1", "x^2 - x + 1", "x^2 + 1", "x^2 + x + 1", "x^4 - x^2 + 1"]
        fac, _ = self.factor_with_primes(monkeypatch, "x^15-1")
        assert [str(q) for q, _ in fac.factors] == [
            "x - 1", "x^2 + x + 1", "x^4 + x^3 + x^2 + x + 1", "x^8 - x^7 + x^5 - x^4 + x^3 - x + 1"]

    def test_prime_choice(self, monkeypatch):
        # every odd prime below 17 divides 15015 = 3*5*7*11*13
        fac, primes = self.factor_with_primes(monkeypatch, "(105*x+1)*(143*x-2)*(x^2+x+1)")
        assert primes == [17] and fac.unit == 15015
        # x^2 - 2x + 4 = (x - 1)^2 mod 3: its discriminant is -12
        _, primes = self.factor_with_primes(monkeypatch, "x^2-2*x+4")
        assert primes == [5]
        # 16 distinct roots: 15 or more factors mod 17, so 5 primes are tried
        fac, primes = self.factor_with_primes(monkeypatch, "*".join(f"(x-{i})" for i in range(1, 17)))
        assert primes == [17, 19, 23, 29, 31] and len(fac.factors) == 16

    def test_deterministic_and_global_random_untouched(self, monkeypatch):
        # the Swinnerton-Dyer octic mod 7 is a product of four quadratics: equal-degree splitting
        splits, edf = [], zassenhaus._edf
        monkeypatch.setattr(zassenhaus, "_edf", lambda g, d, *rest: splits.append(len(g) - 1 > d) or edf(g, d, *rest))
        p = P("x^8-40*x^6+352*x^4-960*x^2+576")
        random.seed(2024)
        expected = random.random()
        random.seed(2024)
        _factor_cached.cache_clear()
        first = factor(p)
        assert random.random() == expected and any(splits)
        _factor_cached.cache_clear()
        assert factor(p) == first


class TestIntegerKernelCrossCheck:
    """gcd, squarefree part and Sturm count against sympy over QQ, on dense
    products with multiplicities, non-integer coefficients and leading
    coefficients of either sign."""

    def test_against_sympy_randomized(self):
        rng = random.Random(41)
        for _ in range(30):
            common, _ = random_dense_product(rng, 14)
            p, _ = random_dense_product(rng, 26)
            q, _ = random_dense_product(rng, 26)
            p, q = p * common, q * common
            assert gcd(p, q) == from_sympy(to_sympy(p).gcd(to_sympy(q)).monic())
            assert count_real_roots(p) == to_sympy(p).count_roots()

    def test_against_euclid_small(self):
        rng = random.Random(43)
        for _ in range(60):
            p, _ = random_dense_product(rng, 10)
            q, _ = random_dense_product(rng, 10)
            assert gcd(p, q) == euclid_gcd(p, q)

    def test_edge_cases(self):
        p = P("-2/3*x^3 + x - 1/2")
        assert gcd(p, Poly.zero()) == gcd(Poly.zero(), p) == p.monic()
        assert gcd(P("-4"), Poly.zero()) == Poly.one()
        assert gcd(P("3"), p) == gcd(P("1/2"), P("5")) == Poly.one()
        assert count_real_roots(P("-5")) == 0
        assert count_real_roots(P("-(x^2-2)^3*(x^2+1)")) == 2


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def int_polys(draw, max_deg=8, sparse_deg=300):
    """A nonzero integer list, index = degree: dense with 3, 10 or 40 bit
    entries and a leading entry of either sign, or sparse up to sparse_deg."""
    if draw(st.booleans()):
        bound = 1 << draw(st.sampled_from([3, 10, 40]))
        low = draw(st.lists(st.integers(-bound, bound), max_size=max_deg))
        return low + [draw(st.integers(1, bound)) * draw(st.sampled_from([-1, 1]))]
    degrees = draw(st.lists(st.integers(0, sparse_deg), min_size=1, max_size=4, unique=True))
    out = [0] * (max(degrees) + 1)
    for k in degrees:
        out[k] = draw(st.integers(-9, 9).filter(bool))
    return out


@st.composite
def gcd_pairs(draw):
    """f and g sharing a random factor (often 1, so coprime), either possibly
    zero or constant, with random integer contents."""
    common = draw(st.one_of(st.just([1]), int_polys(max_deg=4)))
    f, g = (
        draw(st.one_of(st.just([]), st.integers(-12, 12).filter(bool).map(lambda c: [c]),
                       int_polys().map(lambda a: _int_mul(a, common))))
        for _ in range(2)
    )
    return f, g or _int_mul(common, [draw(st.integers(1, 6))])


@st.composite
def yun_inputs(draw):
    """A primitive product of powers with positive leading entry, made from
    factors of either leading sign (sparse ones up to degree 40, to keep
    sympy's side quick)."""
    f = [1]
    for a, k in draw(st.lists(st.tuples(int_polys(4, 40), st.integers(1, 6)), max_size=4)):
        for _ in range(k):
            f = _int_mul(f, a)
    g = math.gcd(*f) * (1 if f[-1] > 0 else -1)
    return [c // g for c in f]


class TestSparseProduct:
    @given(int_polys(), int_polys(), fractions(60, 12))
    @settings(max_examples=200, deadline=None)
    def test_product_is_the_convolution(self, a, b, c):
        """`*` skips the zeros of both operands, dense or sparse up to degree
        300, in either order, and still gives the whole convolution."""
        p, q = Poly(a).scale(c), Poly(b)
        want = [c * x for x in _int_mul(a, b)] if c else []
        for r in (p * q, q * p):
            assert list(r.coeffs) == want
            assert_two_int_content(r)


class TestIntegerGcdAndYun:
    """The Z[x] kernel's gcd with cofactors and Yun's decomposition against
    sympy's dup_inner_gcd (the cofactor form of dup_gcd) and dup_sqf_list."""

    @staticmethod
    def sympy_gcd(f, g):
        return tuple(a[::-1] for a in dup_inner_gcd(f[::-1], g[::-1], ZZ))

    @staticmethod
    def sympy_yun(f):
        return [(a[::-1], k) for a, k in dup_sqf_list(f[::-1], ZZ)[1]]

    @given(gcd_pairs())
    @settings(max_examples=300, deadline=None)
    def test_gcd_matches_sympy(self, pair):
        f, g = pair
        h, cf, cg = zassenhaus.gcd(f, g)
        assert (h, cf, cg) == self.sympy_gcd(f, g)
        assert h[-1] > 0 and all(_int_mul(h, c) == a for a, c in ((f, cf), (g, cg)) if a)

    @given(yun_inputs())
    @settings(max_examples=200, deadline=None)
    def test_yun_matches_sympy(self, f):
        assert zassenhaus.yun(f) == self.sympy_yun(f)

    def test_packing_round_trip(self):
        # past 32 entries packing and unpacking split in halves; signed digits
        # borrow across the split
        rng = random.Random(61)
        for _ in range(400):
            w, n = rng.randint(2, 70), rng.randint(0, 300)
            a = [rng.randint(-(1 << (w - 1)), (1 << (w - 1)) - 1) for _ in range(n)]
            a = zassenhaus._trim(a)
            assert zassenhaus._unpack_signed(zassenhaus._pack(a, w), w) == a
            b = zassenhaus._trim([abs(c) for c in a])
            assert zassenhaus._unpack(zassenhaus._pack(b, w), w) == b
        assert zassenhaus._unpack_signed(-170, 2) == [-2, -2, -2, -2]

    def test_multiplicity_gaps(self):
        x5 = [0, 0, 0, 0, 0, 1]
        assert zassenhaus.yun([0, 0, 0, 1]) == [([0, 1], 3)]
        assert zassenhaus.yun(x5) == [([0, 1], 5)]
        f = _int_mul(_int_mul(x5, [1, -2, 1]), [1, 0, 1])  # x^5 (x-1)^2 (x^2+1)
        assert zassenhaus.yun(f) == [([1, 0, 1], 1), ([-1, 1], 2), ([0, 1], 5)] == self.sympy_yun(f)
        # a linear factor of high multiplicity is read off a constant d, not looped to
        f = _int_mul([0] * 4000 + [1], [1, 0, 1])
        assert zassenhaus.yun(f) == [([1, 0, 1], 1), ([0, 1], 4000)]
        assert zassenhaus.yun([7]) == zassenhaus.yun([1]) == []

    def test_negative_leads_and_constants(self):
        f, g = [2, 0, -2], [-3, 3]  # 2(1 - x^2) = -2(x-1)(x+1) and -3(1 - x) = 3(x-1)
        assert zassenhaus.gcd(f, g) == ([-1, 1], [-2, -2], [3]) == self.sympy_gcd(f, g)
        assert zassenhaus.gcd([-6], [4, 2]) == ([2], [-3], [2, 1]) == self.sympy_gcd([-6], [4, 2])
        assert zassenhaus.gcd([-4, 0, -2], []) == ([4, 0, 2], [-1], []) == self.sympy_gcd([-4, 0, -2], [])
        assert zassenhaus.gcd([], [5]) == ([5], [], [1]) == self.sympy_gcd([], [5])

    def test_subresultant_fallback(self, monkeypatch):
        # with no evaluation point to try, every gcd goes to sympy's dup_rr_prs_gcd
        calls, prs = [], zassenhaus.dup_rr_prs_gcd
        monkeypatch.setattr(zassenhaus, "HEU_TRIES", 0)
        monkeypatch.setattr(zassenhaus, "dup_rr_prs_gcd", lambda *a: calls.append(1) or prs(*a))
        f = _int_mul(_int_mul([0, 0, 0, 0, 0, 1], [1, -2, 1]), [1, 0, 1])
        assert zassenhaus.gcd(f, [-1, 1, 0, 1]) == self.sympy_gcd(f, [-1, 1, 0, 1])
        assert zassenhaus.gcd([4, 0, -4], [6, 6]) == ([2, 2], [2, -2], [3]) == self.sympy_gcd([4, 0, -4], [6, 6])
        assert zassenhaus.yun(f) == self.sympy_yun(f)
        assert len(calls) >= 4
        _count_real_roots_cached.cache_clear()
        assert count_real_roots(P("(x^2-2)^3*(x^2+1)*(x-5)^2")) == 3
        _count_real_roots_cached.cache_clear()


@st.composite
def sturm_products(draw):
    """A product of one to three integer factors of degree 1..5, leading
    entries of either sign, each to a power 1..3."""
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 5))
        a = draw(st.lists(st.integers(-6, 6), min_size=deg, max_size=deg))
        a.append(draw(st.integers(1, 6)) * draw(st.sampled_from([-1, 1])))
        for _ in range(draw(st.integers(1, 3))):
            f = _int_mul(f, a)
    return f


class TestSturmOnInts:
    """`_sturm` on int lists, lowest entry first, against sympy's count_roots
    and the Descartes bisection oracle."""

    @given(sturm_products(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_yun_components_match_oracles(self, f, data):
        g = math.gcd(*f) * (1 if f[-1] > 0 else -1)
        total = 0
        for comp, _mult in zassenhaus.yun([c // g for c in f]):
            p = Poly(comp)
            expected = to_sympy(p).count_roots()
            assert expected == count_real_roots_oracle(p)
            sign = data.draw(st.sampled_from([-1, 1]))  # a negative leading entry
            assert polynomials._sturm([sign * c for c in comp]) == expected
            total += expected
        assert count_real_roots(Poly(f)) == total == to_sympy(Poly(f)).count_roots()

    def test_examples(self):
        sturm = polynomials._sturm
        assert sturm([3, -2]) == sturm([-3, -2]) == sturm([0, 5]) == 1  # degree 1
        assert sturm([1, 0, 1]) == sturm([-1, 0, -1]) == 0
        assert sturm([-2, 0, 1]) == sturm([2, 0, -1]) == 2
        assert sturm([-2, 0, 0, 1]) == sturm([2, 0, 0, -1]) == 1  # x^3 - 2
        assert sturm([-1, -1, 0, 0, 0, 1]) == 1  # x^5 - x - 1
        assert sturm([1, -3, 0, 1]) == 3  # x^3 - 3x + 1, all roots real
        assert sturm([1, 0, -10, 0, 1]) == 4  # x^4 - 10x^2 + 1


class TestHasRealRoot:
    def test_zero_error(self):
        with pytest.raises(DomainError):
            has_real_root(Poly.zero())

    def test_odd_degree_needs_no_count(self):
        before = _count_real_roots_cached.cache_info()
        for text in ("x", "-3*x+1", "x^3-2", "-(x^2+1)*(x^5-x-1)^2*x^3", "x^65535+1"):
            assert has_real_root(P(text))
        assert _count_real_roots_cached.cache_info() == before

    def test_even_degree_examples(self):
        assert not has_real_root(P("-5")) and not has_real_root(P("(x^2+1)^3*(x^4+1)"))
        assert has_real_root(P("-(x^2-2)^3*(x^2+1)"))

    @given(route_products())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_count(self, p):
        assert has_real_root(p) == (count_real_roots(p) > 0) == (count_real_roots_oracle(p) > 0)


class TestHasRealRootOutside:
    """Against the factor definition: some irreducible factor of p (sympy's)
    has a real root, by the Descartes oracle, and does not divide d."""

    @staticmethod
    def by_factor_definition(p, d):
        return any(count_real_roots_oracle(f) > 0 and not f.divides(d) for f, _ in reference_factor(p).factors)

    @given(route_factors(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_factor_definition(self, pieces, data):
        unit = Poly.const(data.draw(st.sampled_from([-2, 1, Fraction(3, 4)])))
        p, d = unit, unit.scale(-3)
        for q, k in pieces:
            p = p * q**k
            d = d * q ** data.draw(st.integers(0, k + 1))
        shape = data.draw(st.sampled_from(["some", "foreign", "zero", "constant"]))
        if shape == "foreign":  # times a pool member that p does not have
            d = d * data.draw(st.sampled_from([q for q in ROUTE_POOL if q not in dict(pieces)]))
        elif shape == "zero":
            d = Poly.zero()
        elif shape == "constant":
            d = unit
        assert has_real_root_outside(p, d) == self.by_factor_definition(p, d)

    def test_edge_cases(self):
        for p in ("3", "-1/2"):
            for d in ("0", "5", "x", "x^2-2"):
                assert not has_real_root_outside(P(p), P(d))
        assert not has_real_root_outside(P("(x-1)^3*(x^2+1)"), P("0"))
        assert has_real_root_outside(P("(x-1)^3*(x^2+1)"), P("7"))
        assert not has_real_root_outside(P("(x-1)^3*(x^2+1)"), P("x-1"))
        assert has_real_root_outside(P("(x-1)^3*(x^2-2)^2"), P("(x-1)^5*(x^2+1)"))
        assert not has_real_root_outside(P("x") ** 65536, P("x"))
        assert has_real_root_outside(P("x") ** 65536 * P("x+2"), P("x"))
