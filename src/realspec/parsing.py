"""Parsing of polynomial expressions and ring descriptions.

Grammar for polynomials over the variable x (tightest binding first):

    power:   atom ['^' NAT]          exponent a nonnegative integer literal
    unary:   '-' unary | power
    term:    unary ('*' unary)*
    expr:    term (('+'|'-') term)*
    atom:    NAT ['/' NAT] | 'x' | '(' expr ')'

There is no general division; NAT '/' NAT is an exact rational literal.
Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent well inside Python's recursion limit. A power or a product is
checked against MAX_EXPONENT and MAX_POWER_SIZE (`_check_size`) before it
is expanded, and the sizes of one expression's products and powers of
polynomials with two or more terms add up to at most MAX_EXPRESSION_SIZE.
Ring descriptions are "Q[x]" or "Q[x]/(<poly>)". Printing (Poly.__str__)
round-trips through parse_poly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .polynomials import Poly
from .rings import Ring

MAX_EXPONENT = 1 << 16
MAX_NESTING = 100
#: Budget for `_check_size`; the largest admissible power, (x+1)^1023, takes about
#: 0.2 s on a 2-vCPU x86_64 host.
MAX_POWER_SIZE = 1 << 20
#: Budget for the sizes of one expression's dense products and powers together.
MAX_EXPRESSION_SIZE = 4 * MAX_POWER_SIZE


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'x', 'op', 'end'
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("int", text[i:j], col))
            i = j
        elif ch == "x":
            tokens.append(_Token("x", ch, col))
            i += 1
        elif ch in "+-*^()/":
            tokens.append(_Token("op", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
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

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
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
            return Poly.x()
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
