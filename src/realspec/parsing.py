"""Parsing of polynomial expressions and ring descriptions.

Grammar for polynomials over the variable x (tightest binding first):

    power:   atom ['^' NAT]          exponent a nonnegative integer literal
    unary:   '-' unary | power
    term:    unary ('*' unary)*
    expr:    term (('+'|'-') term)*
    atom:    NAT ['/' NAT] | 'x' | '(' expr ')'

There is no general division; NAT '/' NAT is an exact rational literal.
Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent well inside Python's recursion limit. Ring descriptions are "Q[x]"
or "Q[x]/(<poly>)". Printing (Poly.__str__) round-trips through parse_poly.

`polynomials.check_size` is the one budget for expanding outside input:
degree at most MAX_EXPONENT and size (degree+1) * max(degree+1, bits) at
most MAX_POWER_SIZE. The parser applies it to each power and product before
expanding it, and one expression's dense sizes add up to at most
MAX_EXPRESSION_SIZE; `rings.checked_power` applies it to every power f^(2m)
that a certificate is built or read with, and the CLI to each lift that a
quotient's modulus reduces.

One compiled regex reads the tokens as plain strings once `_INVALID` finds
no other character than decimal digits (as for `int`), operators, x and
space; a column is worked out only for an error. A number longer than
int() reads (4300 digits unless the interpreter says otherwise) is refused
with its column, as any other malformed input. A value of at most one term
stays a monomial (num, den, k) for num/den * x^k through products, powers
and negation, and a sum adds all its terms in one integer pass (`Poly.sum`,
which takes monomials as they are); Polys are built only through Poly's
public methods. A product of monomials is costed by its bits alone and
never adds to the expression's total.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Union

from .errors import InputError, ParseError
from .polynomials import MAX_EXPONENT, MAX_POWER_SIZE, Poly, check_size
from .rings import Ring

MAX_NESTING = 100
#: Budget for the sizes of one expression's dense products and powers together.
MAX_EXPRESSION_SIZE = 4 * MAX_POWER_SIZE


_TOKEN = re.compile(r"\d+|[-+*^()/x]")
_INVALID = re.compile(r"[^\d\s+\-*^()/x]")

#: A parsed value: a monomial (num, den, k) for num/den * x^k, with den > 0,
#: gcd(num, den) = 1 and zero as (0, 1, 0), or a Poly of two or more terms.
Value = Union[tuple, Poly]


def _poly(value: Value) -> Poly:
    if type(value) is not tuple:
        return value
    num, den, k = value
    return Poly.monomial(Fraction(num, den), k)


def _value(p: Poly) -> Value:
    if p.terms > 1:
        return p
    c = 0 if p.is_zero() else p.leading
    return (c.numerator, c.denominator, p.degree) if c else (0, 1, 0)


def _neg(value: Value) -> Value:
    return (-value[0], value[1], value[2]) if type(value) is tuple else -value


def _mul(a: Value, b: Value) -> Value:
    if type(a) is not tuple or type(b) is not tuple:
        return _value(_poly(a) * _poly(b))  # a monomial only if zero
    num, den = a[0] * b[0], a[1] * b[1]
    g = math.gcd(num, den)
    return (num // g, den // g, a[2] + b[2]) if num else (0, 1, 0)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        invalid = _INVALID.search(text)
        if invalid:
            raise ParseError(f"unexpected character {invalid.group()!r}", invalid.start() + 1)
        self.tokens = _TOKEN.findall(text) + [""]  # "" is the end
        self.depth = 0
        self.size = 0  # what `_check_size` has admitted so far

    def _error(self, message: str, index: int) -> ParseError:
        """The refusal at the token at index, by 1-based column; the end is one past the text."""
        starts = [match.start() + 1 for match in _TOKEN.finditer(self.text)] + [len(self.text) + 1]
        return ParseError(message, starts[index])

    def _int(self, index: int) -> int:
        """The decimal literal at token index. A literal longer than int()
        reads (sys.get_int_max_str_digits) is refused here, not left to
        raise a ValueError; the interpreter's limit stays as it is."""
        try:
            return int(self.tokens[index])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise self._error(f"number has more than {limit} digits", index) from None

    def _check_size(self, factors: tuple[tuple[Value, int], ...], what: str, index: int) -> None:
        """Refuse, before it is expanded, a product of powers base^n over the
        pairs (base, n) that `check_size` refuses, with bits the sum of
        n*log2(base.height), or whose dense size takes the expression's total
        past MAX_EXPRESSION_SIZE. A power is one pair, a product p*q the
        pairs (p, 1), (q, 1); the error points at the token at index."""
        monomials, degree, bits = True, 0, 0.0
        for base, n in factors:
            if type(base) is tuple:
                degree += base[2] * n
                height = max(abs(base[0]), base[1])
            else:
                monomials = False
                degree += base.degree * n
                height = base.height
            bits += n * math.log2(height)
        try:
            size = check_size(degree, bits, what, dense=not monomials)
        except InputError as exc:
            raise self._error(str(exc), index) from None
        if not monomials:
            self.size += size
            if self.size > MAX_EXPRESSION_SIZE:
                raise self._error(f"expression has size above {MAX_EXPRESSION_SIZE} bits", index)

    def parse(self) -> Poly:
        value, pos = self.expr(0)
        if self.tokens[pos]:
            raise self._error(f"unexpected {self.tokens[pos]!r}", pos)
        return _poly(value)

    def expr(self, pos: int) -> tuple[Value, int]:
        """The sum of the terms from token pos on, and the position after it.
        A term is the product of its factors, a factor '-'* atom ['^' NAT],
        and the atoms are NAT ['/' NAT], 'x' and '(' expr ')'."""
        tokens = self.tokens
        terms, op = [], "+"
        while True:
            value, index = None, 0
            while True:
                start = pos
                while tokens[pos] == "-":
                    pos += 1
                negations = pos - start
                atom = tokens[pos]
                pos += 1
                if atom == "x":
                    rhs = (1, 1, 1)
                elif atom.isdecimal():
                    rhs = (self._int(pos - 1), 1, 0)
                    if tokens[pos] == "/":
                        if not tokens[pos + 1].isdecimal():
                            raise self._error("expected an integer denominator", pos + 1)
                        den, pos = self._int(pos + 1), pos + 2
                        if den == 0:
                            raise self._error("zero denominator", pos - 1)
                        g = math.gcd(rhs[0], den)
                        rhs = (rhs[0] // g, den // g, 0)
                elif atom == "(":
                    rhs, pos = self.parenthesized(pos)
                else:
                    raise self._error("expected a number, 'x' or '('", pos - 1)
                if tokens[pos] == "^":
                    rhs, pos = self.power(rhs, pos + 1)
                if negations % 2:
                    rhs = _neg(rhs)
                if value is None:
                    value = rhs
                else:
                    self._check_size(((value, 1), (rhs, 1)), "product", index)
                    value = _mul(value, rhs)
                if tokens[pos] != "*":
                    break
                index = pos
                pos += 1
            terms.append(value if op == "+" else _neg(value))
            op = tokens[pos]
            if op != "+" and op != "-":
                return (terms[0] if len(terms) == 1 else _value(Poly.sum(terms))), pos
            pos += 1

    def power(self, base: Value, pos: int) -> tuple[Value, int]:
        """base ^ the exponent at token pos."""
        text = self.tokens[pos]
        if not text.isdecimal():
            raise self._error("expected a nonnegative integer exponent", pos)
        exponent = self._int(pos)
        if exponent > MAX_EXPONENT:
            raise self._error(f"exponent exceeds {MAX_EXPONENT}", pos)
        self._check_size(((base, exponent),), "power", pos)
        if type(base) is tuple:  # coprime powers stay coprime, and 0^0 = 1
            return (base[0] ** exponent, base[1] ** exponent, base[2] * exponent), pos + 1
        return (base**exponent if exponent else (1, 1, 0)), pos + 1

    def parenthesized(self, pos: int) -> tuple[Value, int]:
        """The expression from token pos on, up to its ')'."""
        if self.depth == MAX_NESTING:
            raise self._error(f"parentheses nest deeper than {MAX_NESTING}", pos - 1)
        self.depth += 1
        inner, pos = self.expr(pos)
        if self.tokens[pos] != ")":
            raise self._error("expected ')'", pos)
        self.depth -= 1
        return inner, pos + 1


def parse_poly(text: str) -> Poly:
    """Parse an exact polynomial expression in x."""
    return _Parser(text).parse()


def parse_ring(text: str) -> Ring:
    """Parse "Q[x]" or "Q[x]/(<poly>)" into a ring."""
    stripped = text.strip()
    if not stripped.startswith("Q[x]"):
        raise ParseError('ring must start with "Q[x]"', 1)
    rest = stripped[4:].strip()
    if not rest:
        return Ring.rationals()
    if not (rest.startswith("/(") and rest.endswith(")")):
        raise ParseError('quotient ring must look like "Q[x]/(<poly>)"', 5)
    return Ring.quotient(parse_poly(rest[2:-1]))
