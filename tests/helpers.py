"""Shared test utilities: independent oracles and random samplers.

The root-counting oracle is deliberately a different algorithm from the
library's Sturm chains: bisection with Descartes' rule of signs deciding
when an interval isolates a single root. It takes squarefree parts with its
own Euclid over the rationals, not with the library's integer gcd.
`frac_mul` and `frac_divmod` are the Fraction-coefficient multiplication and
long division that the integer kernel of `Poly` is checked against.
`reference_parse_poly` is the token-object recursive descent that the
one-pass parser replaced, and `reference_str` the Fraction printer that
integer printing replaced; both are kept to compare against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import sympy
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from realspec import (
    ClosedSet,
    Factorization,
    Ideal,
    LocalFraction,
    Poly,
    RealPrime,
    Ring,
    RingElem,
    Section,
    StalkElement,
    annihilator,
    gcd,
    has_real_root,
    real_radical_member,
)
from realspec.errors import ParseError
from realspec.parsing import MAX_EXPONENT, MAX_EXPRESSION_SIZE, MAX_NESTING, MAX_POWER_SIZE, parse_poly


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def evaluate(p: Poly, point) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def compose_affine(p: Poly, a, b) -> Poly:
    """p(a*x + b), exactly."""
    arg = Poly([b, a])
    acc = Poly.zero()
    for c in reversed(p.coeffs):
        acc = acc * arg + Poly.const(c)
    return acc


def lcm(p: Poly, q: Poly) -> Poly:
    """Monic least common multiple; 0 if either is 0."""
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    return ((p * q) // gcd(p, q)).monic()


def euclid_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm over Q; gcd(p, 0) = monic(p)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def euclid_squarefree_part(p: Poly) -> Poly:
    """Monic p / gcd(p, p'), by Euclid over Q."""
    if p.is_constant():
        return Poly.one()
    return (p // euclid_gcd(p, derivative(p))).monic()


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def frac_mul(p: Poly, q: Poly) -> tuple[Fraction, ...]:
    """Coefficients of p*q, by schoolbook convolution over Fractions."""
    a, b = p.coeffs, q.coeffs
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _strip(out)


def frac_divmod(p: Poly, q: Poly) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Coefficients of quotient and remainder, by long division over Fractions."""
    rem, div = list(p.coeffs), q.coeffs
    dn = len(div) - 1
    if len(rem) - 1 < dn:
        return (), _strip(rem)
    quot = [Fraction(0)] * (len(rem) - dn)
    for k in range(len(rem) - 1, dn - 1, -1):
        q_k = rem[k] / div[-1]
        quot[k - dn] = q_k
        for j in range(dn + 1):
            rem[k - dn + j] -= q_k * div[j]
    return _strip(quot), _strip(rem)


_X = sympy.Symbol("x")


def to_sympy(p: Poly) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), _X, domain="QQ")


def from_sympy(p: sympy.Poly) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def descartes_bound_01(q: Poly) -> int:
    """Upper bound (exact parity) for roots of q in the open interval (0, 1)."""
    n = int(q.degree)
    # r(x) = (1+x)^n * q(1/(1+x)); sign variations bound roots of q in (0,1)
    one_plus_x = Poly([1, 1])
    acc = Poly.zero()
    for i, c in enumerate(q.coeffs):
        acc = acc + (one_plus_x ** (n - i)).scale(c)
    signs = [(c > 0) - (c < 0) for c in acc.coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_open_01(q: Poly) -> int:
    bound = descartes_bound_01(q)
    if bound == 0:
        return 0
    if bound == 1:
        return 1
    half = Fraction(1, 2)
    left = compose_affine(q, half, 0)  # q(x/2): roots in (0,1) <-> roots of q in (0,1/2)
    right = compose_affine(q, half, half)  # q((x+1)/2)
    at_half = 1 if evaluate(q, half) == 0 else 0
    return _count_open_01(left) + at_half + _count_open_01(right)


def count_real_roots_oracle(p: Poly) -> int:
    """Distinct real roots of p, independent of Sturm sequences."""
    q = euclid_squarefree_part(p)
    if q.is_constant():
        return 0
    # Cauchy bound: all real roots lie strictly inside (-M, M)
    lead = abs(q.leading)
    m_bound = 1 + max(abs(c) for c in q.coeffs) / lead
    # map (0,1) onto (-M, M)
    scaled = compose_affine(q, 2 * m_bound, -m_bound)
    return _count_open_01(scaled)


# ---------------------------------------------------------------------------
# samplers


def random_poly(rng: random.Random, max_deg: int, coeff: int = 6, monic: bool = False) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-coeff, coeff)) for _ in range(deg)]
    lead = Fraction(1) if monic else Fraction(rng.choice([c for c in range(-coeff, coeff + 1) if c]))
    return Poly(coeffs + [lead])


def random_rational_factor(rng: random.Random, max_deg: int = 4) -> Poly:
    """Nonconstant, non-integer rational coefficients, leading sign either way."""
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(deg)]
    lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(2, 5))
    return Poly(coeffs + [lead])


def random_dense_product(rng: random.Random, max_deg: int = 40) -> tuple[Poly, list[Poly]]:
    """A unit times powers of random rational factors, up to max_deg; also the factors."""
    p = Poly.const(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5])))
    factors = []
    for _ in range(rng.randint(1, 8)):
        f = random_rational_factor(rng)
        e = rng.randint(1, 3)
        if p.degree + e * f.degree <= max_deg:
            p = p * f**e
            factors.append(f)
    return p, factors


def random_nonzero_poly(rng: random.Random, max_deg: int, coeff: int = 6) -> Poly:
    while True:
        p = random_poly(rng, max_deg, coeff)
        if not p.is_zero():
            return p


_FACTOR_POOL = [
    Poly([0, 1]),        # x
    Poly([-1, 1]),       # x - 1
    Poly([1, 1]),        # x + 1
    Poly([-2, 1]),       # x - 2
    Poly([2, 1]),        # x + 2
    Poly([3, 1]),        # x + 3
    Poly([-2, 0, 1]),    # x^2 - 2
    Poly([-3, 0, 1]),    # x^2 - 3
    Poly([1, 0, 1]),     # x^2 + 1
    Poly([2, 0, 1]),     # x^2 + 2
    Poly([1, 1, 1]),     # x^2 + x + 1
    Poly([-1, -1, 1]),   # x^2 - x - 1
    Poly([-2, 1, 1]),    # x^2 + x - 2 = (x+2)(x-1)
]


def random_structured_poly(rng: random.Random, max_factors: int = 4, max_deg: int = 12) -> Poly:
    """Product of pool factors and a unit; rich factor structure, bounded degree."""
    while True:
        k = rng.randint(1, max_factors)
        p = Poly.const(Fraction(rng.choice([1, 1, 2, -1, 3])))
        for _ in range(k):
            p = p * rng.choice(_FACTOR_POOL)
        if p.degree <= max_deg:
            return p


_REAL_IRREDUCIBLES = [
    Poly([0, 1]),
    Poly([-1, 1]),
    Poly([1, 1]),
    Poly([-2, 1]),
    Poly([2, 1]),
    Poly([-3, 1]),
    Poly([3, 1]),
    Poly([-2, 0, 1]),
    Poly([-3, 0, 1]),
]


def random_real_quotient(rng: random.Random, max_primes: int = 3) -> Ring:
    """Quotient by a squarefree product of real-rooted irreducibles: a real ring."""
    k = rng.randint(1, max_primes)
    picks = rng.sample(_REAL_IRREDUCIBLES, k)
    modulus = Poly.one()
    for p in picks:
        modulus = modulus * p
    return Ring.quotient(modulus)


_NONREAL_IRREDUCIBLES = [Poly([1, 0, 1]), Poly([1, 1, 1]), Poly([3, 0, 0, 0, 1])]  # x^2+1, x^2+x+1, x^4+3


def random_semireal_quotient(rng: random.Random) -> Ring:
    """Semi-real, non-real quotient: (x - a)^k for one to three distinct a
    with k <= 3, times x^2 + 1, x^2 + x + 1 or x^4 + 3 to the power 1 or 2."""
    modulus = rng.choice(_NONREAL_IRREDUCIBLES) ** rng.randint(1, 2)
    for a in rng.sample(range(-3, 4), rng.randint(1, 3)):
        modulus = modulus * Poly([-a, 1]) ** rng.randint(1, 3)
    return Ring.quotient(modulus)


_QX_LINEARS = tuple(Poly([-c, 1]) for c in (0, 1, -1, 2, Fraction(1, 2), -3))
_QX_NONREAL = tuple(Poly(c) for c in ([1, 0, 1], [2, 0, 1], [1, 1, 1], [1, 0, 0, 0, 1], [3, -1, 1]))


def _product(polys) -> Poly:
    return math.prod(polys, start=Poly.one())


@st.composite
def qx_sections(draw):
    """(section, a, h, primes): the paper's case, a section of Q[x] over D(f)
    on 2-3 patches (a*k_i, h*k_i) that all stand for r = a/h.

    f is 1 or one or two distinct linear factors; h is some of f's factors,
    all to one power 1..3, times 0..2 of x^2+1, x^2+2, x^2+x+1, x^4+1 and
    x^2-x+3, all to one power 1..2 (at least one when f = 1, so that r is a
    global section of Sigma_1^-1 Q[x] outside Q[x]). k_i is the linear factors
    outside f less those assigned to patch i, times an optional non-real
    factor, so the k_i share no real root and the D(h*k_i) cover D(f).
    primes are real primes of D(f): the zero prime, the prime of each linear
    factor outside f, and (x - 7)."""
    linears = draw(st.lists(st.sampled_from(_QX_LINEARS), min_size=1, max_size=5, unique=True))
    k = draw(st.integers(0, min(2, len(linears))))
    in_f, outside = linears[:k], linears[k:]
    nonreal = draw(st.lists(st.sampled_from(_QX_NONREAL), min_size=0 if k else 1, max_size=2, unique=True))
    h_real = draw(st.lists(st.sampled_from(in_f), unique=True)) if in_f else []
    h = _product(h_real) ** draw(st.integers(1, 3)) * _product(nonreal) ** draw(st.integers(1, 2))
    a = Poly(draw(st.lists(st.integers(-3, 3), max_size=4)))
    n = draw(st.integers(2, 3))
    owner = [draw(st.integers(0, n - 1)) for _ in outside]
    ring, patches = Ring.rationals(), []
    for i in range(n):
        k_i = _product(q for q, j in zip(outside, owner) if j != i)
        k_i = k_i * draw(st.sampled_from((Poly.one(),) + _QX_NONREAL))
        patches.append(LocalFraction(ring.elem(a * k_i), ring.elem(h * k_i)))
    primes = [RealPrime(ring, q) for q in (Poly.zero(), *outside, Poly([-7, 1]))]
    return Section(ring, ring.elem(_product(in_f)), tuple(patches)), a, h, primes


def random_elem(rng: random.Random, ring: Ring, max_deg: int = 3, coeff: int = 4) -> RingElem:
    return ring.elem(Poly([Fraction(rng.randint(-coeff, coeff)) for _ in range(max_deg + 1)]))


def random_nonzero_elem(rng: random.Random, ring: Ring, max_deg: int = 3) -> RingElem:
    while True:
        e = random_elem(rng, ring, max_deg)
        if not e.is_zero():
            return e


# Prime containment as the library decided it when a real prime was a kind
# ("zero" for the zero prime of Q[x], "principal" otherwise) with an optional
# generator: one branch per kind and per closed-set marker. The library now
# decides both by whether the prime's generator divides; these are the
# reference it is checked against.


def prime_kind(gen: Poly) -> tuple[str, Optional[Poly]]:
    return ("zero", None) if gen.is_zero() else ("principal", gen)


def reference_contains(kind: str, gen: Optional[Poly], a: RingElem) -> bool:
    if kind == "zero":
        return a.is_zero()
    return gen.divides(a.rep)


def reference_prime_in(kind: str, gen: Optional[Poly], closed_gen: Poly) -> bool:
    """closed_gen is a closed set's generator: 0 the whole space, 1 the empty set."""
    if kind == "zero":
        return closed_gen.is_zero()
    if closed_gen.is_zero():
        return True
    if closed_gen.is_one():
        return False
    return gen.divides(closed_gen)


def reference_compatible(cross: RingElem, g: RingElem) -> bool:
    """Whether cross is 0 on D(g), as the library decided it before it asked
    each real prime power of the modulus: g lies in the real radical of the
    annihilator of cross."""
    return real_radical_member(annihilator(cross), g)


def reference_stalk_eq(e1: StalkElement, e2: StalkElement) -> bool:
    """Whether two germs at one prime agree, as the library decided it before
    p^e | cross: the annihilator of the cross difference is not inside the
    prime."""
    cross = e1.numerator * e2.denominator - e2.numerator * e1.denominator
    return not e1.prime.gen.divides(annihilator(cross).gen)


# Factorization, real part and V(I) as the library computed them before it
# went one squarefree component at a time: sympy's complete factorization of
# the whole primitive part, a real part filtered from all of its factors, and
# V(I) compared with the real part of the modulus. The library's routes are
# checked against these.


def reference_factor(p: Poly) -> Factorization:
    _, raw = dup_factor_list(list(reversed(p._p)), ZZ)
    pairs = [(Poly(reversed(f)).monic(), mult) for f, mult in raw]
    pairs.sort(key=lambda pm: pm[0].sort_key())
    return Factorization(p.leading, tuple(pairs))


def least_even_power(gen: Poly, a: Poly) -> int:
    """max(1, ceil(e / 2v)) over the irreducible factors q^e of gen that
    divide the nonzero a, with q^v exactly dividing a: the least m with
    a^(2m) = 0 mod the part of gen that shares its factors with a. Both
    factorizations come from sympy."""
    in_a = {from_sympy(q).monic(): v for q, v in to_sympy(a).factor_list()[1]}
    m = 1
    for q, e in to_sympy(gen).factor_list()[1]:
        v = in_a.get(from_sympy(q).monic(), 0)
        if v:
            m = max(m, -(-e // (2 * v)))
    return m


def reference_real_part(p: Poly) -> Poly:
    out = Poly.one()
    for q, _mult in reference_factor(p).factors:
        if has_real_root(q):
            out = out * q
    return out


def reference_v_of(ideal: Ideal) -> ClosedSet:
    ring, gen = ideal.ring, ideal.gen
    if gen.is_zero():  # the zero ideal of Q[x] is real
        return ClosedSet(ring, gen)
    gen = reference_real_part(gen)
    if ring.is_quotient and not gen.is_one() and gen == reference_real_part(ring.modulus):
        gen = Poly.zero()
    return ClosedSet(ring, gen)


#: Factors with every root real (non-monic ones among them), without a real
#: root, irreducible with both kinds (x^3 - 2, x^5 - x - 1), and cyclotomic.
ROUTE_POOL = tuple(parse_poly(t) for t in (
    "x", "x-1", "x+2", "2*x+3", "3*x-1", "x^2-2", "x^3-3*x+1",
    "x^2+1", "x^2+x+1", "2*x^2+3",
    "x^3-2", "x^5-x-1",
    "x^4+1", "x^6-1",
))


def route_factors():
    """One to four distinct pool factors, each with a power 1..3 (pool
    factors may share a factor, whose multiplicities then add up)."""
    pairs = st.tuples(st.sampled_from(ROUTE_POOL), st.integers(1, 3))
    return st.lists(pairs, min_size=1, max_size=4, unique_by=lambda qk: qk[0])


@st.composite
def route_products(draw) -> Poly:
    """A rational unit of either sign times the powers of `route_factors`."""
    p = Poly.const(Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 5])), draw(st.integers(1, 4))))
    for q, k in draw(route_factors()):
        p = p * q**k
    return p


#: Leading coefficients of `kernel_products` factors are products of these, so
#: factors share them and the factoring prime has to avoid them.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def kernel_products(draw) -> Poly:
    """A product of up to five random factors of degree 1..9, each to a power
    1..3, of total degree at most 40. A factor has integer coefficients of up
    to 3, 10 or 40 bits over a denominator of 1, 2, 3 or 7, and a leading
    numerator of either sign made of `SMALL_PRIMES`."""
    p, total = Poly.one(), 0
    for _ in range(draw(st.integers(1, 5))):
        degree, mult = draw(st.integers(1, 9)), draw(st.integers(1, 3))
        if total + degree * mult > 40:
            break
        bound = 1 << draw(st.sampled_from([3, 10, 40]))
        lead = draw(st.sampled_from([-1, 1])) * math.prod(draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=3)))
        low = draw(st.lists(st.integers(-bound, bound), min_size=degree, max_size=degree))
        den = draw(st.sampled_from([1, 2, 3, 7]))
        p, total = p * Poly([Fraction(c, den) for c in low + [lead]]) ** mult, total + degree * mult
    return p


# ---------------------------------------------------------------------------
# the parser and printer before polynomials were read in one pass and printed
# from integers; the same grammar, budgets, messages and columns


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str  # 'int', 'x', 'op', 'end'
    text: str
    column: int  # 1-based


def _reference_tokenize(text: str) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_ReferenceToken("int", text[i:j], col))
            i = j
        elif ch == "x":
            tokens.append(_ReferenceToken("x", ch, col))
            i += 1
        elif ch in "+-*^()/":
            tokens.append(_ReferenceToken("op", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(_ReferenceToken("end", "", n + 1))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.depth = 0
        self.size = 0  # what `_check_size` has admitted so far

    def _check_size(self, factors: list[tuple[Poly, int]], what: str, column: int) -> None:
        """Refuse, before it is expanded, a product of powers base^n over the
        pairs (base, n) whose degree exceeds MAX_EXPONENT or whose size
        exceeds MAX_POWER_SIZE, or that takes the expression's total past
        MAX_EXPRESSION_SIZE. A power is one pair, a product p*q the pairs
        (p, 1), (q, 1).

        The size bounds the work from the coefficient bits, at most the sum
        of n*log2(base.height). A product of monomials is a shift, so its
        bits are its size. Any other result has deg+1 coefficients of at most
        that many bits, and squaring or convolving takes (deg+1)^2 products
        however small they are, so the bits count at least deg+1 each; only
        these quadratic sizes count towards the total.
        """
        degree, bits = 0, 0.0
        for base, n in factors:
            degree += max(base.degree, 0) * n
            bits += n * math.log2(base.height)
        if degree > MAX_EXPONENT:
            raise ParseError(f"{what} has degree above {MAX_EXPONENT}", column)
        if any(base.terms > 1 for base, _ in factors):
            bits = (degree + 1) * max(degree + 1, bits)
            self.size += bits
        if bits > MAX_POWER_SIZE:
            raise ParseError(f"{what} has size above {MAX_POWER_SIZE} bits", column)
        if self.size > MAX_EXPRESSION_SIZE:
            raise ParseError(f"expression has size above {MAX_EXPRESSION_SIZE} bits", column)

    def peek(self) -> _ReferenceToken:
        return self.tokens[self.pos]

    def advance(self) -> _ReferenceToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _ReferenceToken:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.column)
        return self.advance()

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.column)
        return value

    def expr(self) -> Poly:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                rhs = self.unary()
                self._check_size([(value, 1), (rhs, 1)], "product", tok.column)
                value = value * rhs
            else:
                return value

    def unary(self) -> Poly:
        negations = 0
        while self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negations += 1
        value = self.power()
        return -value if negations % 2 else value

    def power(self) -> Poly:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise ParseError("expected a nonnegative integer exponent", exp_tok.column)
            self.advance()
            exponent = int(exp_tok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", exp_tok.column)
            self._check_size([(base, exponent)], "power", exp_tok.column)
            return base**exponent
        return base

    def atom(self) -> Poly:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = int(tok.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError("expected an integer denominator", den_tok.column)
                self.advance()
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.column)
                return Poly.const(Fraction(num, den))
            return Poly.const(Fraction(num))
        if tok.kind == "x":
            self.advance()
            return Poly([0, 1])
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.column)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected a number, 'x' or '('", tok.column)


def reference_parse_poly(text: str) -> Poly:
    return _ReferenceParser(text).parse()


def _term_str(c: Fraction, power: int) -> str:
    if power == 0:
        return str(c)
    xpart = "x" if power == 1 else f"x^{power}"
    if c == 1:
        return xpart
    return f"{c}*{xpart}"


def reference_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    coeffs = p.coeffs
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        body = _term_str(abs(c), power)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
