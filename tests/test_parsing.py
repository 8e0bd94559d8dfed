import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realspec import DomainError, ParseError, Poly, Ring, parse_poly, parse_ring
from realspec.parsing import MAX_EXPONENT, MAX_EXPRESSION_SIZE, MAX_NESTING, MAX_POWER_SIZE

from helpers import reference_parse_poly, reference_str


class TestParse:
    def test_examples(self):
        assert parse_poly("(x-1)*(x+1)") == Poly([-1, 0, 1])
        assert parse_poly("1/2*x^2 - 3") == Poly([Fraction(-3), 0, Fraction(1, 2)])

    def test_double_caret(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x^^2")
        assert err.value.column == 3

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than *
        assert parse_poly("-x^2") == Poly([0, 0, -1])
        assert parse_poly("-x^2 + x^2") == Poly.zero()
        assert parse_poly("2*x+1") == Poly([1, 2])
        assert parse_poly("-2*-3") == Poly([6])

    def test_left_associative(self):
        assert parse_poly("1-2-3") == Poly([-4])
        assert parse_poly("x-x-x") == Poly([0, -1])

    def test_rational_literals(self):
        assert parse_poly("3/4") == Poly([Fraction(3, 4)])
        assert parse_poly("6/4") == Poly([Fraction(3, 2)])
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_no_general_division(self):
        with pytest.raises(ParseError):
            parse_poly("x/2")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_poly("x^65537")
        with pytest.raises(ParseError):
            parse_poly("x^-1")

    def test_nested_power_degree(self):
        # deg(base) * n is checked before the power is expanded
        assert parse_poly("((x)^256)^256") == Poly.monomial(1, MAX_EXPONENT)
        assert parse_poly("(x^2+1)^0") == Poly.one()
        assert parse_poly("(3)^65536") == Poly.const(3**65536)
        for text, column in (("((x)^65536)^65536", 13), ("((x)^256)^257", 11), ("(x^2)^32769", 7)):
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert err.value.column == column

    def test_power_size_budget(self):
        # (deg+1) * max(deg+1, n*log2|base|) for a power with two or more terms
        assert MAX_POWER_SIZE == 1024 * 1024
        assert parse_poly("(x+1)^1023").coefficient(512) == math.comb(1023, 512)
        # a monomial counts its coefficient bits only: 2^20 at the limit
        assert parse_poly("((2)^32)^32768") == Poly.const(2 ** (1 << 20))
        assert parse_poly("(1/4*x)^2") == Poly.monomial(Fraction(1, 16), 2)
        for text, column in (
            ("(x+1)^1024", 7),
            ("((2)^32)^32769", 10),
            ("((2)^65536)^65536", 13),  # a 2^32-bit integer
            ("((1/3)^65536)^65536", 15),  # the denominator counts too
            ("(1/2*x+1/2)^1024", 13),
        ):
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert err.value.column == column
            assert "size" in str(err.value)

    def test_product_size_budget(self):
        # a product p*q is held to the same degree and size budget as a power,
        # before it is expanded; the error points at the '*'
        assert parse_poly("(x+1)^511*(x+1)^512").coefficient(512) == math.comb(1023, 512)
        assert parse_poly("(1/2*x+1/2)^511*(x+1)^512").degree == 1023
        assert parse_poly("x^65535*x") == Poly.monomial(1, MAX_EXPONENT)
        # a product of monomials counts its coefficient bits only: 2^20 at the limit
        assert parse_poly("(2)^65536*" * 15 + "(2)^65536") == Poly.const(2 ** (1 << 20))
        for text, column, what in (
            ("(x+1)^512*(x+1)^512", 10, "size"),
            ("(1/3*x+1/3)^511*(x+1)^512", 16, "size"),  # the denominator counts too
            ("(2)^65536*" * 16 + "(2)^65536", 160, "size"),
            ("x^65536*x", 8, "degree"),
        ):
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert err.value.column == column
            assert f"product has {what}" in str(err.value)

    def test_expression_size_budget(self):
        # the sizes of one expression's dense products and powers add up:
        # (x+1)^511*(x+1)^512 is about 1.57 M, so two copies fit and five do not
        assert MAX_EXPRESSION_SIZE == 4 * MAX_POWER_SIZE
        one = "(x+1)^511*(x+1)^512"
        assert parse_poly(one).degree == 1023
        with pytest.raises(ParseError) as err:
            parse_poly("+".join([one] * 5))
        assert "expression has size" in str(err.value)
        assert err.value.column == 2 * (len(one) + 1) + 10  # the '*' of the third copy

    def test_error_columns(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x + ")
        assert err.value.column == 5
        with pytest.raises(ParseError) as err:
            parse_poly("(x+1")
        assert err.value.column == 5
        with pytest.raises(ParseError) as err:
            parse_poly("x$1")
        assert err.value.column == 2

    def test_only_decimal_digits_are_numbers(self):
        # a superscript is a digit to str.isdigit but no int literal: refused, not a ValueError
        with pytest.raises(ParseError) as err:
            parse_poly("x^\u00b2")
        assert err.value.column == 3 and "unexpected character '\u00b2'" in str(err.value)
        assert parse_poly("x^\u0663") == Poly.monomial(1, 3)  # ARABIC-INDIC DIGIT THREE

    def test_number_longer_than_int_reads(self):
        # int() refuses more than 4300 digits by default; that is a usage error with a column
        big = "1" + "0" * 4400
        for text, column in ((big + "*x+1", 1), ("x + 3/" + big, 7), ("x^" + big, 3)):
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert err.value.column == column and "more than 4300 digits" in str(err.value)
        assert parse_poly("9" * 4300) == Poly.const(10**4300 - 1)

    def test_nesting_depth(self):
        deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_poly(deepest) == Poly([0, 1])
        with pytest.raises(ParseError) as err:
            parse_poly("(" * 3000 + "x" + ")" * 3000)
        assert err.value.column == MAX_NESTING + 1
        # unary minus is a loop, not recursion: any run of signs parses
        assert parse_poly("-" * 3000 + "x") == Poly([0, 1])
        assert parse_poly("-" * 3001 + "x^2") == Poly([0, 0, -1])

    def test_whitespace(self):
        assert parse_poly("  x ^ 2  +  1 ") == Poly([1, 0, 1])


def coeffs():
    return st.builds(
        Fraction,
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=12),
    )


class TestRoundTrip:
    @given(st.lists(coeffs(), min_size=0, max_size=9).map(Poly))
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, p):
        assert parse_poly(str(p)) == p

    def test_specific_shapes(self):
        for text in ("0", "1", "-1", "x", "-x", "x^2 - 3*x + 1/2", "-1/2*x^7 + x"):
            p = parse_poly(text)
            assert parse_poly(str(p)) == p


def _outcome(parse, text):
    """The parsed Poly, or the refusal as (column, message)."""
    try:
        return parse(text)
    except ParseError as err:
        return err.column, str(err)


def grammar_texts():
    """Expressions of the grammar: parentheses, '^', unary '-' and a/b,
    with and without spaces, exponents small enough to expand at once."""
    atoms = st.one_of(
        st.just("x"),
        st.integers(0, 30).map(str),
        st.tuples(st.integers(0, 30), st.integers(0, 9)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", " * "]), inner).map("".join),
            inner.map(lambda t: f"({t})"),
            inner.map(lambda t: f"-{t}"),
            st.tuples(inner, st.integers(0, 3)).map(lambda tn: f"({tn[0]})^{tn[1]}"),
            st.tuples(inner, st.integers(0, 3)).map(lambda tn: f"{tn[0]}^{tn[1]}"),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def printed_polys():
    return st.lists(coeffs(), min_size=0, max_size=9).map(lambda cs: str(Poly(cs)))


@st.composite
def mutated(draw, texts):
    """A text with one character replaced, inserted or deleted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("0123456789x+-*^()/ \t$."))
    how = draw(st.sampled_from(["replace", "insert", "delete"]))
    if how == "insert" or not text:
        return text[:i] + char + text[i:]
    i = min(i, len(text) - 1)
    return text[:i] + (char if how == "replace" else "") + text[i + 1:]


class TestAgainstReferenceParser:
    """The one-pass parser against the token-object recursive descent it
    replaced: equal Polys, or refusals with equal columns and messages."""

    @given(st.one_of(printed_polys(), grammar_texts()))
    @settings(max_examples=400, deadline=None)
    def test_valid_texts(self, text):
        assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)

    @given(mutated(st.one_of(printed_polys(), grammar_texts())))
    @settings(max_examples=600, deadline=None)
    def test_one_character_mutations(self, text):
        assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text)

    def test_budget_boundaries(self):
        for text in (
            "((2)^32)^32768", "((2)^32)^32769", "(x+1)^1023", "(x+1)^1024",
            "(2)^65536*" * 15 + "(2)^65536", "(2)^65536*" * 16 + "(2)^65536",
            "((1/3)^65536)^65536", "x^65536*x", "0*x^65536*x^65536", "(x-x+2)^3*x",
            "x + ", "(x+1", "x$1", "1/0", "x^^2", "2 3", "(x)(x)",
            "0*(x+1)*" + "(x+1)^1000*" * 3 + "x",  # a zero product still counts what follows
        ):
            assert _outcome(parse_poly, text) == _outcome(reference_parse_poly, text), text


class TestIntegerPrinting:
    @given(st.lists(
        st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)) | st.just(Fraction(0)),
        min_size=0, max_size=9,
    ).map(Poly))
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_printer_and_round_trips(self, p):
        assert str(p) == reference_str(p)
        assert parse_poly(str(p)) == p

    def test_coefficient_too_long_to_print(self):
        # 4300 digits print; one more is a DomainError, not int()'s ValueError
        assert str(Poly([10**4300 - 1, 1])) == "x + " + "9" * 4300
        for p in (Poly([1, 10**4300]), Poly([Fraction(1, 10**4300), 1])):
            with pytest.raises(DomainError, match="more than 4300 digits to print"):
                str(p)


class TestRing:
    def test_base(self):
        assert parse_ring("Q[x]") == Ring.rationals()
        assert parse_ring(" Q[x] ") == Ring.rationals()

    def test_quotient(self):
        ring = parse_ring("Q[x]/(x^2-x)")
        assert ring.is_quotient
        assert ring.modulus == parse_poly("x^2-x")

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_ring("Z[x]")
        with pytest.raises(ParseError):
            parse_ring("Q[x]/x^2")
        with pytest.raises(DomainError):
            parse_ring("Q[x]/(2*x^2)")
        with pytest.raises(DomainError):
            parse_ring("Q[x]/(5)")
        with pytest.raises(DomainError):
            parse_ring("Q[x]/(0)")
