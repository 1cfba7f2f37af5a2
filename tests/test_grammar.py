import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socle.errors import ParseError
from socle.grammar import _tokenize, parse_operator, parse_poly
from socle.poly import MultiPoly
from socle.weyl import WeylOp


def test_literals_and_rationals():
    assert parse_poly("3", 1) == MultiPoly.constant(1, 3)
    assert parse_poly("2/3", 1) == MultiPoly.constant(1, Fraction(2, 3))
    assert parse_poly("-5/2 + 1", 1) == MultiPoly.constant(1, Fraction(-3, 2))


def test_variable_aliases():
    # x,y,z,w are aliases for x0..x3
    assert parse_poly("x*y + z^2*w", 4) == parse_poly("x0*x1 + x2^2*x3", 4)


def test_inferred_variable_count():
    p = parse_poly("x2 + 1")
    assert p.n_vars == 3
    q = parse_operator("d1")
    assert q.n_vars == 2


def test_juxtaposition_is_multiplication():
    assert parse_poly("2x y", 2) == parse_poly("2*x*y", 2)
    assert parse_poly("(1+x)(1-x)", 1) == parse_poly("1 - x^2", 1)


def test_power_binds_tighter_than_product():
    assert parse_poly("2*x^3", 1) == MultiPoly.monomial(1, (3,), 2)
    assert parse_poly("-x^2", 1) == MultiPoly.monomial(1, (2,), -1)


def test_operator_order_of_factors_is_kept():
    # d*x and x*d differ by 1
    left = parse_operator("d0*x", 1)
    right = parse_operator("x*d0", 1)
    assert left == right + WeylOp.one(1)


def test_parse_errors_carry_byte_offsets():
    cases = [
        ("x^", 3, "exponent"),
        ("2/0", 1, "zero denominator"),
        ("x10", 1, "indices"),
        ("d", 1, "digit"),
        ("(x + y", 7, "')'"),
        ("x $ y", 3, "unexpected"),
        ("3 + + 4", 5, "expected"),
        ("", 1, "expected"),
    ]
    for text, offset, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_operator(text)
        assert exc.value.offset == offset, text
        assert fragment in str(exc.value), text


@pytest.mark.parametrize("text, offset", [("x²", 2), ("٣*x", 1), ("x٣", 2), ("٣٣ $", 1)])
def test_non_ascii_digits_are_parse_errors(text, offset):
    # digits are ASCII only: none of these is a literal or a variable index
    with pytest.raises(ParseError) as exc:
        parse_operator(text)
    assert exc.value.offset == offset
    assert "unexpected character" in str(exc.value)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter has no int/str digit limit")
@pytest.mark.parametrize("literal", ["7" * 5000, "1/" + "7" * 5000, "7" * 5000 + "/3"])
def test_a_literal_past_the_digit_limit_is_a_parse_error(literal):
    assert len(literal) > DIGIT_LIMIT
    with pytest.raises(ParseError) as exc:
        parse_poly("x+" + literal)
    assert exc.value.offset == 3
    assert "literal too long" in str(exc.value)
    # at the limit the literal is read
    assert parse_poly("x+" + "7" * DIGIT_LIMIT).terms[(0,)] == int("7" * DIGIT_LIMIT)


LEXEMES = ["x", "Y", "z", "w", "x3", "X0", "d1", "D2", "7", "12", "3/4", "0/5",
           "+", "-", "*", "^", "(", ")", " ", "\t", "\n"]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    st.one_of(
        st.text(alphabet=" \t\r\n0123456789/+-*^()xXyYzZwWdD$", max_size=20),
        st.lists(st.sampled_from(LEXEMES), max_size=12).map("".join),
    )
)
def test_token_offsets_point_at_their_tokens(text):
    try:
        tokens = _tokenize(text)
    except ParseError as exc:
        assert 1 <= exc.offset <= len(text)
        return
    offsets = [t.offset for t in tokens]
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    assert tokens[-1].kind == "END" and tokens[-1].offset == len(text) + 1
    starts = {"NUM": "0123456789", "XVAR": "xXyYzZwW", "DVAR": "dD"}
    for tok in tokens[:-1]:
        ch = text[tok.offset - 1]
        assert ch == tok.value if tok.kind == "OP" else ch in starts[tok.kind]


def test_poly_parser_rejects_partials():
    with pytest.raises(ParseError) as exc:
        parse_poly("x*d0", 1)
    assert exc.value.offset == 3


def test_operator_round_trip():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 3)
        op = WeylOp.zero(n)
        for _ in range(rng.randint(1, 4)):
            xe = tuple(rng.randint(0, 2) for _ in range(n))
            de = tuple(rng.randint(0, 2) for _ in range(n))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                op = op + WeylOp(n, {(xe, de): c})
        assert parse_operator(op.render(), n) == op


def test_whitespace_is_insignificant():
    assert parse_poly(" 1+ x ^ 2 ", 1) == parse_poly("1+x^2", 1)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(x+y+z)^60", 9),
        ("(x+y+z)^2000", 9),
        ("(x0+x1)^3000", 9),
        ("(x0+d0)^80", 9),
        ("(x0*d0)^1000", 9),
        ("((x+y)^30)^30", 12),
        ("2*(x+y+z)^100 + 1", 11),
        # as many term products as (x+y)^805, but of far larger coefficients
        ("(123456789*x+y)^805", 17),
        ("(3^20*x+y)^805", 12),
    ],
)
def test_oversized_powers_are_refused_before_expansion(text, offset):
    # each of these expands for seconds to hours; the estimate refuses it at
    # its exponent before any product is formed
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_operator(text)
    assert time.perf_counter() - start < 0.1
    assert exc.value.offset == offset
    assert "exceeds 250000" in str(exc.value)


def test_powers_within_the_bound_still_expand():
    assert parse_poly("x0^100000000", 1) == MultiPoly.monomial(1, (100000000,))
    assert parse_operator("d0^2", 1) == WeylOp.d_gen(1, 0) * WeylOp.d_gen(1, 0)
    assert len(parse_poly("(x+y+z)^20", 3).terms) == 231
    assert parse_operator("(x0*d0)^2", 1) == parse_operator("x0^2*d0^2 + x0*d0", 1)
    assert parse_poly("(x-x)^3", 1) == MultiPoly.zero(1)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(x+y+z)^31*(x+y+z)^31", 11),
        ("(x+y+z)^31 (x+y+z)^31", 12),
        ("(d0 d1 d2)^300 * (x0 x1 x2)^300", 16),
        ("1 + (x+y+z+w)^13*(x+y+z+w)^13", 17),
    ],
)
def test_oversized_products_are_refused_before_expansion(text, offset):
    # the estimate counts term pairs times the Leibniz terms of each pair;
    # it refuses at the '*', or at the right factor of a juxtaposition
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_operator(text)
    assert time.perf_counter() - start < 0.5
    assert exc.value.offset == offset
    assert "exceeds 250000" in str(exc.value)


def test_a_product_of_two_large_powers_is_refused():
    # unbounded, this product of two 1326-term factors took 8.6 s; the
    # factors themselves take about 0.8 s (2-core x86-64, Python 3.11)
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_poly("(x+y+z)^50*(x+y+z)^50")
    assert time.perf_counter() - start < 4
    assert exc.value.offset == 11
    assert "1326-term" in str(exc.value)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("3^10000000*x", 3),
        ("x + (2/3)^100000", 11),
        ("(3^39*x+y)^805", 12),
        ("3^30000*3^30000", 8),
    ],
)
def test_oversized_coefficients_are_refused_before_expansion(text, offset):
    # few terms, so the work estimate lets these through; unrefused,
    # 3^10000000 alone takes about 8 s
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert time.perf_counter() - start < 0.1
    assert exc.value.offset == offset
    assert "bits, which exceeds 32768" in str(exc.value)


def test_coefficients_within_the_bit_bound_still_expand():
    assert parse_poly("3^20000*x", 1).terms == {(1,): Fraction(3) ** 20000}
    assert parse_poly("x0^100000000", 1) == MultiPoly.monomial(1, (100000000,))
    # the estimate is e * (bits of the base + log2 of its terms): 100 * 5
    assert len(parse_poly("(5/7*x+11/3*y)^100", 2).terms) == 101


def test_products_within_the_bound_still_expand():
    assert len(parse_poly("(x+y+z)^30*(x+y+z)^30").terms) == 1891
    assert parse_operator("d0^3*x0^3", 1) == parse_operator("(d0^3)(x0^3)", 1)
