"""Ring axioms and helpers for sparse multivariate polynomials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socle.errors import DimensionMismatch, DomainError
from socle.poly import MultiPoly, graded_piece_basis
from socle.grammar import parse_poly


def random_poly(rng, n_vars, max_deg=3, max_terms=5):
    p = MultiPoly.zero(n_vars)
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n_vars))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + MultiPoly.monomial(n_vars, exp, c)
    return p


def test_constructors_and_equality():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert x + y == y + x
    assert MultiPoly.constant(2, 0) == MultiPoly.zero(2)
    assert MultiPoly.one(2) == MultiPoly.constant(2, 1)
    assert x != y
    assert not MultiPoly.zero(2)
    assert x


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert a + (b + c) == (a + b) + c
        assert a * b == b * a
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        assert a - a == MultiPoly.zero(n)


def test_power_matches_repeated_product():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(rng, 2, max_deg=2, max_terms=3)
        acc = MultiPoly.one(2)
        for k in range(5):
            assert p ** k == acc
            acc = acc * p


def test_mixed_var_counts_rejected():
    with pytest.raises(DimensionMismatch):
        MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)


def test_partial_derivative_product_rule():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        i = rng.randrange(n)
        a = random_poly(rng, n)
        b = random_poly(rng, n)
        lhs = (a * b).partial_derivative(i)
        rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
        assert lhs == rhs


def test_partials_commute():
    rng = random.Random(31)
    for _ in range(20):
        p = random_poly(rng, 3)
        for i in range(3):
            for j in range(3):
                assert (
                    p.partial_derivative(i).partial_derivative(j)
                    == p.partial_derivative(j).partial_derivative(i)
                )


def test_degree_bookkeeping():
    p = parse_poly("x^2*y + 3*y^2", 2)
    assert p.degree() == 3
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 2
    assert MultiPoly.zero(2).degree() == -math.inf
    assert not p.is_homogeneous()
    q = parse_poly("x^2*y + y^3", 2)
    assert q.is_homogeneous()
    assert q.homogeneous_degree() == 3
    with pytest.raises(DomainError):
        p.homogeneous_degree()


def test_graded_piece_basis_sizes():
    # dimension of degree-d forms in n variables is C(d + n - 1, n - 1)
    for n in range(1, 4):
        for d in range(0, 5):
            basis = graded_piece_basis(d, n)
            assert len(basis) == math.comb(d + n - 1, n - 1)
            assert len(set(basis)) == len(basis)
            assert all(sum(e) == d for e in basis)


def test_x0_slices_reassemble():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        rebuilt = MultiPoly.zero(n)
        for j, sl in p.x0_slices().items():
            assert sl.degree_in(0) <= 0
            mono = MultiPoly.monomial(n, (j,) + (0,) * (n - 1))
            rebuilt = rebuilt + sl * mono
        assert rebuilt == p


def test_render_parse_round_trip():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 4)
        p = random_poly(rng, n)
        assert parse_poly(p.render(), n) == p


# ------------------------------------------- fraction-free product kernel

BIG = 2**64


@st.composite
def big_rationals(draw):
    return Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))


@st.composite
def sparse_polys(draw, n_vars, max_exp=3, max_terms=6):
    exps = st.tuples(*[st.integers(0, max_exp)] * n_vars)
    return MultiPoly(n_vars, draw(st.dictionaries(exps, big_rationals(), max_size=max_terms)))


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(sparse_polys(n)), draw(sparse_polys(n))


def oracle_product(a, b):
    """Plain double loop over Fraction terms, zero sums dropped at the end."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def assert_clean(p):
    """Every stored coefficient is a nonzero Fraction."""
    assert all(type(c) is Fraction and c for c in p.terms.values())


@settings(deadline=None, derandomize=True, max_examples=100)
@given(poly_pairs())
def test_products_and_sums_match_the_fraction_oracle(pair):
    a, b = pair
    for got, want in (
        (a * b, oracle_product(a.terms, b.terms)),
        (a + b, oracle_sum(a.terms, b.terms)),
        (a - b, oracle_sum(a.terms, b.terms, -1)),
    ):
        assert got.terms == want
        assert_clean(got)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(poly_pairs())
def test_cancelling_cross_terms_are_never_stored(pair):
    # (a + b)(a - b) = a^2 - b^2: every cross term a*b cancels against -b*a
    a, b = pair
    got = (a + b) * (a - b)
    assert got.terms == oracle_product((a + b).terms, (a - b).terms)
    assert got == a * a - b * b
    assert_clean(got)
    assert not (a * b - b * a).terms
