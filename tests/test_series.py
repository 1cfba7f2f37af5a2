import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socle.errors import DimensionMismatch, DomainError, NonUnitError
from socle.series import TruncatedSeries
from socle.grammar import parse_poly


def random_series(rng, n_vars, precision, constant=None):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exp = tuple(rng.randint(0, precision - 1) for _ in range(n_vars))
        if sum(exp) >= precision:
            continue
        terms[exp] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    s = TruncatedSeries(n_vars, precision, terms)
    if constant is not None:
        shift = constant - s.constant_coefficient()
        s = s + TruncatedSeries.constant(n_vars, shift, precision)
    return s


def test_from_poly_truncates():
    p = parse_poly("1 + x + x^2 + x^5", 1)
    s = TruncatedSeries.from_poly(p, 3)
    assert s.poly_part() == parse_poly("1 + x + x^2", 1)
    assert s.precision == 3


def test_precision_of_arithmetic_is_the_minimum():
    a = TruncatedSeries.from_poly(parse_poly("1 + x", 1), 5)
    b = TruncatedSeries.from_poly(parse_poly("x", 1), 3)
    assert (a + b).precision == 3
    assert (a * b).precision == 3


def test_geometric_series_inverse():
    one_minus_x = TruncatedSeries.from_poly(parse_poly("1 - x", 1), 8)
    inv = one_minus_x.invert()
    assert inv.poly_part() == parse_poly(
        "1 + x + x^2 + x^3 + x^4 + x^5 + x^6 + x^7", 1
    )


def test_invert_is_two_sided():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 3)
        s = random_series(rng, n, 6, constant=Fraction(rng.choice([1, -1, 2]), 1))
        inv = s.invert()
        assert s * inv == TruncatedSeries.one(n, 6)
        assert inv * s == TruncatedSeries.one(n, 6)


def test_invert_needs_a_unit():
    s = TruncatedSeries.from_poly(parse_poly("x + x^2", 1), 4)
    with pytest.raises(NonUnitError):
        s.invert()


def test_exp_is_a_homomorphism():
    rng = random.Random(29)
    for _ in range(15):
        a = random_series(rng, 2, 6, constant=Fraction(0))
        b = random_series(rng, 2, 6, constant=Fraction(0))
        assert (a + b).exp() == a.exp() * b.exp()


def test_exp_rejects_constant_term():
    s = TruncatedSeries.constant(1, Fraction(1), 5)
    with pytest.raises(DomainError):
        s.exp()


def test_integrate_then_differentiate():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 2)
        i = rng.randrange(n)
        s = random_series(rng, n, 5)
        back = s.integrate(i).differentiate(i)
        # integration raises precision, differentiation lowers it back
        assert back.precision == 5
        assert back == s


def test_differentiate_tracks_precision():
    s = TruncatedSeries.from_poly(parse_poly("1 + x + x^2", 1), 4)
    assert s.differentiate(0).precision == 3
    assert s.integrate(0).precision == 5
    low = TruncatedSeries.one(1, 1)
    with pytest.raises(DomainError):
        low.differentiate(0)


def test_differentiate_checks_the_index_before_the_precision():
    low = TruncatedSeries.one(2, 1)
    with pytest.raises(DimensionMismatch, match="variable index 2 out of range"):
        low.differentiate(2)
    with pytest.raises(DomainError, match="cannot differentiate below precision 1"):
        low.differentiate(1)


def test_valuation():
    assert TruncatedSeries.zero(2, 5).valuation() == math.inf
    s = TruncatedSeries.from_poly(parse_poly("x*y + x^3", 2), 5)
    assert s.valuation() == 2
    assert TruncatedSeries.one(2, 5).valuation() == 0


# ------------------------------------------- fraction-free product kernel

BIG = 2**64


@st.composite
def big_rationals(draw):
    return Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))


@st.composite
def mixed_precision_series(draw, count):
    """``count`` series in the same variables, each at its own precision 1-6;
    the constructor drops terms at or above a series' precision."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return [
        TruncatedSeries(
            n,
            draw(st.integers(1, 6)),
            draw(st.dictionaries(exps, big_rationals(), max_size=6)),
        )
        for _ in range(count)
    ]


@st.composite
def one_term_series_pairs(draw):
    """Two series in the same variables, one of them with exactly one term
    c*x^a below its precision, c one of 1, -1 or a 64-bit rational, in
    either order."""
    (other,) = draw(mixed_precision_series(1))
    exp = draw(st.tuples(*[st.integers(0, 4)] * other.n_vars))
    c = draw(st.sampled_from([Fraction(1), Fraction(-1)]) | big_rationals().filter(bool))
    single = TruncatedSeries(other.n_vars, draw(st.integers(sum(exp) + 1, sum(exp) + 6)), {exp: c})
    return [single, other] if draw(st.booleans()) else [other, single]


def oracle(base, left, right, sign, precision):
    """base + sign * left * right by a plain double loop over Fractions,
    truncated at ``precision``."""
    out = {e: c for e, c in base.items() if sum(e) < precision}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) < precision:
                out[e] = out.get(e, Fraction(0)) + sign * c1 * c2
    return {e: c for e, c in out.items() if c}


def assert_clean(s):
    """Nonzero Fraction coefficients, and nothing at or above the precision."""
    assert all(type(c) is Fraction and c for c in s.terms.values())
    assert all(sum(e) < s.precision for e in s.terms)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(mixed_precision_series(2) | one_term_series_pairs())
def test_arithmetic_matches_the_truncated_fraction_oracle(series):
    a, b = series
    one = {(0,) * a.n_vars: Fraction(1)}
    prec = min(a.precision, b.precision)
    for got, want in (
        (a * b, oracle({}, a.terms, b.terms, 1, prec)),
        (a + b, oracle(a.terms, b.terms, one, 1, prec)),
        (a - b, oracle(a.terms, b.terms, one, -1, prec)),
    ):
        assert got.terms == want
        assert got.precision == prec
        assert_clean(got)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(mixed_precision_series(2))
def test_cancelling_series_terms_are_never_stored(series):
    # (s + t)(s - t) = s^2 - t^2: every cross term s*t cancels against -t*s
    s, t = series
    got = (s + t) * (s - t)
    assert got == s * s - t * t
    assert_clean(got)
    assert not (s * t - t * s).terms


@st.composite
def invertible_series(draw):
    """A series at precision 1-8 with a nonzero constant term of either sign
    and up to six further terms, all with 64-bit numerators and denominators."""
    n = draw(st.integers(1, 3))
    precision = draw(st.integers(1, 8))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), big_rationals(), max_size=6))
    sign = draw(st.sampled_from([-1, 1]))
    terms[(0,) * n] = sign * Fraction(draw(st.integers(1, BIG)), draw(st.integers(1, BIG)))
    return TruncatedSeries(n, precision, terms)


def oracle_inverse(s):
    """1/s degree by degree over Fractions: w_0 = 1/a_0 and
    w_d = -(1/a_0) * sum of a_e w_g over sum(e) >= 1, sum(e) + sum(g) = d."""
    zero = (0,) * s.n_vars
    a0 = s.terms[zero]
    w = {zero: 1 / a0}
    for d in range(1, s.precision):
        acc = {}
        for e1, c1 in s.terms.items():
            for e2, c2 in w.items():
                if sum(e1) and sum(e1) + sum(e2) == d:
                    e = tuple(x + y for x, y in zip(e1, e2))
                    acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        w.update({e: -c / a0 for e, c in acc.items() if c})
    return w


@settings(deadline=None, derandomize=True, max_examples=100)
@given(invertible_series())
def test_invert_matches_the_degree_by_degree_oracle(s):
    inv = s.invert()
    assert inv.terms == oracle_inverse(s)
    assert inv.precision == s.precision
    assert_clean(inv)
    assert s * inv == TruncatedSeries.one(s.n_vars, s.precision)
