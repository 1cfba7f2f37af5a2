import random
import time
from fractions import Fraction

import pytest

from socle.errors import ParseError
from socle.grammar import parse_operator, parse_poly
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
