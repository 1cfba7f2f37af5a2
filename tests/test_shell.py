"""The shell shared by polynomials, truncated series, Weyl operators and E:
rendering pins and the scalar rules every type follows."""

import re
from fractions import Fraction as F

import pytest

from socle.errors import DimensionMismatch, DomainError
from socle.poly import MultiPoly
from socle.series import TruncatedSeries
from socle.weyl import EElement, WeylOp

Z = (0, 0)

POLY_TERMS = {
    "zero": {},
    "one": {Z: 1},
    "minus_one": {Z: -1},
    "constant": {Z: F(-3, 2)},
    "unit_factors": {(1, 0): 1, (0, 1): -1},
    "negative_lead": {(2, 1): -1, (1, 0): 3, Z: -1},
    "fraction": {(1, 2): F(-2, 3), (0, 3): F(5, 7)},
}

POLY_TEXT = {
    "zero": "0",
    "one": "1",
    "minus_one": "-1",
    "constant": "-3/2",
    "unit_factors": "x - y",
    "negative_lead": "-x^2*y + 3*x - 1",
    "fraction": "-2/3*x*y^2 + 5/7*y^3",
}

OP_TERMS = {
    "zero": {},
    "one": {(Z, Z): 1},
    "minus_one": {(Z, Z): -1},
    "unit_factors": {((1, 0), (1, 0)): 1, (Z, (0, 1)): -1},
    "negative_lead": {((2, 0), (2, 0)): -2, (Z, (1, 0)): 1, (Z, Z): F(1, 2)},
    "mixed": {((0, 1), (1, 1)): F(3, 4), ((1, 0), Z): -1},
}

OP_TEXT = {
    "zero": "0",
    "one": "1",
    "minus_one": "-1",
    "unit_factors": "x*d0 - d1",
    "negative_lead": "-2*x^2*d0^2 + d0 + 1/2",
    "mixed": "-x + 3/4*y*d0*d1",
}

E_TERMS = {
    "zero": {},
    "socle": {(1, 1): 1},
    "minus_one": {(1, 1): -1},
    "mixed": {(2, 1): F(-1, 2), (1, 3): 4, (1, 1): 1},
}

E_TEXT = {
    "zero": "0",
    "socle": "x^-1*y^-1",
    "minus_one": "-x^-1*y^-1",
    "mixed": "-1/2*x^-2*y^-1 + 4*x^-1*y^-3 + x^-1*y^-1",
}


@pytest.mark.parametrize("name", sorted(POLY_TEXT))
def test_poly_render_is_pinned(name):
    assert MultiPoly(2, POLY_TERMS[name]).render() == POLY_TEXT[name]


@pytest.mark.parametrize("name", sorted(POLY_TEXT))
def test_series_render_is_pinned(name):
    # precision 4 keeps every term of the polynomial cases
    want = f"{POLY_TEXT[name]} + O(deg 4)"
    assert TruncatedSeries(2, 4, POLY_TERMS[name]).render() == want


def test_series_render_drops_terms_past_the_precision():
    assert TruncatedSeries(2, 3, POLY_TERMS["negative_lead"]).render() == "3*x - 1 + O(deg 3)"


@pytest.mark.parametrize("name", sorted(OP_TEXT))
def test_weyl_render_is_pinned(name):
    assert WeylOp(2, OP_TERMS[name]).render() == OP_TEXT[name]


@pytest.mark.parametrize("name", sorted(E_TEXT))
def test_e_render_is_pinned(name):
    assert EElement(2, E_TERMS[name]).render() == E_TEXT[name]


# ---------------------------------------------------------- scalar rules

MAKERS = {
    "poly": lambda n, terms: MultiPoly(n, terms),
    "series": lambda n, terms: TruncatedSeries(n, 5, terms),
    "weyl": lambda n, terms: WeylOp(n, {(e, (0,) * n): c for e, c in terms.items()}),
}


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_scalar_rules(kind):
    make = MAKERS[kind]
    p = make(2, {(1, 0): 2, (0, 1): F(-1, 3), Z: 1})
    one = make(2, {Z: 1})
    zero = make(2, {})
    assert p + 1 == make(2, {(1, 0): 2, (0, 1): F(-1, 3), Z: 2})
    assert 1 + p == p + 1
    assert 1 - p == make(2, {(1, 0): -2, (0, 1): F(1, 3)})
    assert p - 1 == make(2, {(1, 0): 2, (0, 1): F(-1, 3)})
    assert -p == make(2, {(1, 0): -2, (0, 1): F(1, 3), Z: -1})
    assert p - p == 0 and zero == 0 and not zero and p
    assert p != 0 and one == 1 and one * 5 == 5
    assert p * 0 == zero and 0 * p == zero and not (p * 0).terms
    assert p * F(2, 3) == make(2, {(1, 0): F(4, 3), (0, 1): F(-2, 9), Z: F(2, 3)})
    assert F(2, 3) * p == p * F(2, 3)
    with pytest.raises(DimensionMismatch):
        p + make(3, {})
    with pytest.raises(DimensionMismatch):
        p - make(3, {})
    assert p != make(3, {})
    with pytest.raises(TypeError):
        hash(p)


def test_series_sums_take_the_smaller_precision():
    a = TruncatedSeries(1, 5, {(k,): 1 for k in range(5)})
    b = TruncatedSeries(1, 3, {(0,): 2, (2,): 1})
    for s in (a + b, b + a, a - b, b - a):
        assert s.precision == 3
        assert all(e[0] < 3 for e in s.terms)
    assert (a + b).terms == {(0,): 3, (1,): 1, (2,): 2}
    assert (a - b).terms == {(0,): -1, (1,): 1}
    # scalars, negation and scalar products keep the precision
    assert (a + 1).precision == (1 - a).precision == (-a).precision == (a * 3).precision == 5
    assert a != TruncatedSeries(1, 4, a.terms)


def test_e_has_no_scalar_sum():
    v = EElement(2, E_TERMS["mixed"])
    for bad in (lambda: v + 1, lambda: 1 + v, lambda: v - 1, lambda: 1 - v):
        with pytest.raises(TypeError):
            bad()
    assert v != 0 and v != 1
    assert v * 2 == 2 * v == v + v
    assert v - v == EElement.zero(2) and not v * 0
    assert -v == v * -1
    with pytest.raises(DimensionMismatch):
        v + EElement.socle(3)
    with pytest.raises(TypeError):
        hash(v)


# ---------------------------------------------------- public constructors

# per type: a constructor over two variables, a valid key, a key it drops
# (a series drops terms past its precision), and bad calls, each with the
# error type and message it raises
CHECKED = {
    "poly": (
        lambda terms: MultiPoly(2, terms),
        (1, 0),
        None,
        [
            (lambda: MultiPoly(2, {(1, -1): 1}), DomainError, "bad exponent (1, -1) for 2 variables"),
            (lambda: MultiPoly(2, {(1,): 1}), DomainError, "bad exponent (1,) for 2 variables"),
            (lambda: MultiPoly(-1), DomainError, "n_vars must be nonnegative"),
        ],
    ),
    "series": (
        lambda terms: TruncatedSeries(2, 3, terms),
        (1, 0),
        (2, 1),
        [
            (lambda: TruncatedSeries(2, 3, {(5, -1): 1}), DomainError, "bad exponent (5, -1) for 2 variables"),
            (lambda: TruncatedSeries(2, 0), DomainError, "precision must be at least 1"),
        ],
    ),
    "weyl": (
        lambda terms: WeylOp(2, terms),
        ((1, 0), (0, 1)),
        None,
        [
            (lambda: WeylOp(2, {((1, 0), (1,)): 1}), DimensionMismatch, "exponents (1, 0), (1,) do not fit 2 variables"),
            (lambda: WeylOp(2, {((1, 0), (0, -1)): 1}), DomainError, "negative exponent in operator term"),
            (lambda: WeylOp(0), DomainError, "need at least one variable"),
        ],
    ),
    "e": (
        lambda terms: EElement(2, terms),
        (1, 2),
        None,
        [
            (lambda: EElement(2, {(0, 1): 1}), DomainError, "inverse-monomial exponent (0, 1) must have all entries >= 1"),
            (lambda: EElement(2, {(1, 1, 1): 1}), DomainError, "inverse-monomial exponent (1, 1, 1) must have all entries >= 1"),
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(CHECKED))
def test_public_constructors_check_keys_and_drop_zeros(kind):
    make, key, dropped, bad_calls = CHECKED[kind]
    for call, error, message in bad_calls:
        with pytest.raises(error, match=re.escape(message)):
            call()
    with pytest.raises(DomainError, match="coefficient must be an integer or Fraction"):
        make({key: 0.5})
    assert make({key: 0}).terms == {}
    assert make({key: F(2, 4)}).terms == {key: F(1, 2)}
    assert type(make({key: 3}).terms[key]) is F
    if dropped:
        # a dropped term is never read, not even its coefficient
        assert make({key: 1, dropped: 0.5}).terms == {key: 1}
