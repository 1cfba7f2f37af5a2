"""Ring axioms and helpers for sparse multivariate polynomials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socle.errors import DimensionMismatch, DomainError
from socle.poly import MultiPoly, _accumulate, _pack, _scaled, _unpack, graded_piece_basis
from socle.grammar import parse_poly
from socle.weyl import WeylOp


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


#: the coefficient of a one-term factor: 1, -1 or a 64-bit rational
one_term_coefficients = st.sampled_from([Fraction(1), Fraction(-1)]) | big_rationals().filter(bool)


@st.composite
def one_term_pairs(draw):
    """A polynomial over 0-3 variables and a one-term polynomial c*x^a, in
    either order."""
    n = draw(st.integers(0, 3))
    exp = draw(st.tuples(*[st.integers(0, 3)] * n))
    single, other = MultiPoly(n, {exp: draw(one_term_coefficients)}), draw(sparse_polys(n))
    return (single, other) if draw(st.booleans()) else (other, single)


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


@settings(deadline=None, derandomize=True, max_examples=200)
@given(poly_pairs() | one_term_pairs())
def test_products_and_sums_match_the_fraction_oracle(pair):
    a, b = pair
    for got, want in (
        (a * b, oracle_product(a.terms, b.terms)),
        (a + b, oracle_sum(a.terms, b.terms)),
        (a - b, oracle_sum(a.terms, b.terms, -1)),
    ):
        assert got.terms == want
        assert_clean(got)


@st.composite
def fraction_term_dicts(draw):
    """Fraction terms under distinct keys in a drawn order, whose
    denominators form a divisibility chain, are pairwise coprime prime
    powers, or are all 1; the empty dict among them."""
    size = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("chain", "coprime", "one")))
    if kind == "chain":
        dens = [1]
        for _ in range(size):
            dens.append(dens[-1] * draw(st.integers(1, 12)))
        dens = draw(st.permutations(dens[1:]))
    elif kind == "coprime":
        primes = draw(st.permutations((2, 3, 5, 7, 11, 13, 2**31 - 1)))
        dens = [q ** draw(st.integers(1, 3)) for q in primes[:size]]
    else:
        dens = [1] * size
    keys = draw(st.lists(st.integers(-50, 50), unique=True, min_size=size, max_size=size))
    return {k: Fraction(draw(st.integers(-BIG, BIG).filter(bool)), d) for k, d in zip(keys, dens)}



@settings(deadline=None, derandomize=True, max_examples=200)
@given(fraction_term_dicts())
def test_scaled_puts_the_terms_over_the_lcm_of_their_denominators(terms):
    nums, den = _scaled(terms)
    assert den == math.lcm(*(c.denominator for c in terms.values()))
    assert list(nums) == list(terms)
    assert all(type(v) is int and Fraction(v, den) == terms[k] for k, v in nums.items())


@st.composite
def int_term_triples(draw):
    """Two int term dicts over 0-3 variables and a dict they are added into,
    with small coefficients, zeros included, so that products cancel."""
    n = draw(st.integers(0, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 5)] * n), st.integers(-3, 3), max_size=6)
    return n, draw(terms), draw(terms), draw(terms)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(int_term_triples())
def test_packed_products_match_the_exponent_tuple_products(case):
    # with every digit sum below 2^width the packed keys add as the exponents
    # do, so both paths list the same terms, cancelled ones included, in the
    # same order, into a fresh dict or one given as ``acc``
    n, lhs, rhs, start = case
    width = 4  # digit sums are at most 10

    def packed(terms):
        return {_pack(e, width): v for e, v in terms.items()}

    for acc in (None, start):
        want = _accumulate(lhs, rhs, acc=None if acc is None else dict(acc))
        got = _accumulate(packed(lhs), packed(rhs), acc=None if acc is None else packed(acc), packed=True)
        assert [(_unpack(k, width, n), v) for k, v in got.items()] == list(want.items())


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


@st.composite
def pending_cases(draw):
    """A ``MultiPoly`` or ``WeylOp`` in 1-3 variables, int numerators on
    packed keys with zeros among them, a positive den, the key map that
    unpacks them (a ``WeylOp`` takes its power of the first partial from the
    top digit, as the Euler certificate's R does), and a second element."""
    cls, n, width = draw(st.sampled_from((MultiPoly, WeylOp))), draw(st.integers(1, 3)), 3
    digits = st.tuples(*[st.integers(0, 7)] * (n + (cls is WeylOp)))
    numerators = st.sampled_from((0, 0, 1, -1)) | st.integers(-BIG, BIG)
    keys = digits.map(lambda e: _pack(e, width))
    nums = draw(st.dictionaries(keys, numerators, max_size=8))
    den = draw(st.integers(1, BIG))

    def key(k):
        if cls is MultiPoly:
            return _unpack(k, width, n)
        return _unpack(k, width, n), (k >> width * n,) + (0,) * (n - 1)

    other = draw(st.dictionaries(keys, big_rationals(), max_size=8))
    return cls, n, nums, den, key, cls(n, {key(k): c for k, c in other.items()})


@settings(deadline=None, derandomize=True, max_examples=200)
@given(pending_cases())
def test_the_pending_form_reads_as_the_eager_build(case):
    # each check reads a fresh pending element, so its first read of the
    # terms is the one the check makes
    cls, n, nums, den, key, other = case
    eager = cls._trusted(n, {key(k): Fraction(v, den) for k, v in nums.items() if v})

    def pending():
        return cls._from_ints(n, nums, den, key)

    got = pending()
    assert list(got.terms.items()) == list(eager.terms.items())
    assert got.terms is got.terms
    assert_clean(got)
    assert bool(pending()) is bool(eager)
    assert pending() == eager
    assert eager == pending()
    assert (pending() == other) is (eager == other)
    assert list((-pending()).terms.items()) == list((-eager).terms.items())
    assert list((pending() + other).terms.items()) == list((eager + other).terms.items())
    assert list((other - pending()).terms.items()) == list((other - eager).terms.items())
    assert pending().render() == eager.render()
    for element in (pending(), got):
        with pytest.raises(AttributeError):
            element.no_such_attribute
