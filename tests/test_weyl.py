"""Operator algebra: rewriting, module actions, adjoints, the product identity."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from socle import weyl
from socle.errors import DomainError
from socle.grammar import parse_operator, parse_poly
from socle.poly import MultiPoly
from socle.weyl import (
    EElement,
    WeylOp,
    _act,
    check_euler_identity,
    formal_adjoint,
    right_coefficients,
)


def random_op(rng, n, max_exp=2, max_terms=3):
    op = WeylOp.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        xe = tuple(rng.randint(0, max_exp) for _ in range(n))
        de = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            op = op + WeylOp(n, {(xe, de): c})
    return op


def random_poly(rng, n, max_deg=3):
    p = MultiPoly.zero(n)
    for _ in range(rng.randint(0, 4)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        p = p + MultiPoly.monomial(n, exp, rng.randint(-3, 3))
    return p


# ---------------------------------------------------------------- rewriting


def test_basic_relation():
    # d x = x d + 1
    d, x = WeylOp.d_gen(1, 0), WeylOp.x_gen(1, 0)
    assert d * x == parse_operator("x*d0 + 1", 1)
    # one term on each side, and still normal-ordered
    assert d * x == x * d + 1


def test_second_order_relation():
    # d^2 x = x d^2 + 2 d
    d, x = WeylOp.d_gen(1, 0), WeylOp.x_gen(1, 0)
    assert d * d * x == parse_operator("x*d0^2 + 2*d0", 1)


def test_commutators_all_pairs():
    for n in range(1, 5):
        for i in range(n):
            for j in range(n):
                d = WeylOp.d_gen(n, i)
                x = WeylOp.x_gen(n, j)
                want = WeylOp.one(n) if i == j else WeylOp.zero(n)
                assert d * x - x * d == want
                # x's commute, d's commute
                xi, dj = WeylOp.x_gen(n, i), WeylOp.d_gen(n, j)
                assert xi * x - x * xi == WeylOp.zero(n)
                assert WeylOp.d_gen(n, i) * dj - dj * WeylOp.d_gen(n, i) == WeylOp.zero(n)


def test_rewriting_is_confluent():
    """Grouping a product arbitrarily cannot change the normal form."""
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        word = []
        for _ in range(rng.randint(2, 6)):
            kind = rng.choice(["x", "d"])
            word.append((kind, rng.randrange(n)))
        gens = [
            WeylOp.x_gen(n, i) if kind == "x" else WeylOp.d_gen(n, i)
            for kind, i in word
        ]
        left = gens[0]
        for g in gens[1:]:
            left = left * g
        right = gens[-1]
        for g in reversed(gens[:-1]):
            right = g * right
        assert left == right


def test_product_agrees_with_action_on_polynomials():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 3)
        p_op, q_op = random_op(rng, n), random_op(rng, n)
        f = random_poly(rng, n)
        assert (p_op * q_op).act_on_poly(f) == p_op.act_on_poly(q_op.act_on_poly(f))


def test_action_is_linear():
    rng = random.Random(73)
    for _ in range(20):
        op = random_op(rng, 2)
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        assert op.act_on_poly(f + g) == op.act_on_poly(f) + op.act_on_poly(g)


# ------------------------------------------------------- the E-module action


def test_e_action_basics():
    n = 2
    socle = EElement.socle(n)
    # every x_i kills the socle
    for i in range(n):
        assert WeylOp.x_gen(n, i).act_on_e(socle) == EElement.zero(n)
    # d_0 pushes the pole deeper: d_0 (x^-1 y^-1) = -x^-2 y^-1
    deeper = WeylOp.d_gen(n, 0).act_on_e(socle)
    assert deeper == EElement.inverse_monomial(n, (2, 1), -1)


def test_product_agrees_with_action_on_e():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 2)
        p_op, q_op = random_op(rng, n), random_op(rng, n)
        v = EElement.inverse_monomial(
            n, tuple(rng.randint(1, 3) for _ in range(n)), rng.randint(1, 3)
        )
        assert (p_op * q_op).act_on_e(v) == p_op.act_on_e(q_op.act_on_e(v))


def test_e_is_generated_in_both_directions():
    """Multiplication drives any element down to the socle; partials climb back."""
    rng = random.Random(53)
    n = 2
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(1, 4) for _ in range(n))
            terms[a] = Fraction(rng.randint(1, 5))
        v = EElement(n, terms)
        # multiply by x^(a*-1) for a* the lexicographically largest exponent
        a_star = max(terms)
        op = WeylOp.one(n)
        for i in range(n):
            op = op * (WeylOp.x_gen(n, i) ** (a_star[i] - 1))
        down = op.act_on_e(v)
        assert down.terms, "descent died"
        assert set(down.terms) == {(1,) * n}
    # climb: d^a applied to the socle reaches the inverse monomial x^-(a+1)
    for _ in range(10):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        op = WeylOp.one(n)
        for i in range(n):
            op = op * (WeylOp.d_gen(n, i) ** a[i])
        up = op.act_on_e(EElement.socle(n))
        assert set(up.terms) == {tuple(ai + 1 for ai in a)}


# ------------------------------------------------- adjoints and the identity


def test_adjoint_is_an_involution():
    rng = random.Random(83)
    for _ in range(30):
        op = random_op(rng, 1)
        assert formal_adjoint(formal_adjoint(op)) == op


def test_adjoint_is_an_antihomomorphism():
    rng = random.Random(89)
    for _ in range(30):
        a, b = random_op(rng, 1), random_op(rng, 1)
        assert formal_adjoint(a * b) == formal_adjoint(b) * formal_adjoint(a)


def test_adjoint_with_spectator_variables():
    # coefficients may involve other variables as long as only d0 appears
    q = parse_operator("x1^2 * d0 + x0*x1", 2)
    assert formal_adjoint(formal_adjoint(q)) == q
    with pytest.raises(DomainError):
        formal_adjoint(parse_operator("d1", 2))


def test_right_coefficients_reconstruct():
    rng = random.Random(97)
    d = WeylOp.d_gen(1, 0)
    for _ in range(30):
        q = random_op(rng, 1)
        coeffs = right_coefficients(q)
        rebuilt = WeylOp.zero(1)
        for i, a in enumerate(coeffs):
            rebuilt = rebuilt + (d ** i) * WeylOp.from_poly(a) * ((-1) ** i)
        assert rebuilt == q


def test_euler_identity_frozen_example():
    q = parse_operator("-d0*x^2", 1)
    b = parse_poly("x", 1)
    p, r_op, residual = check_euler_identity(q, b)
    assert p == parse_operator("x^2*d0", 1)
    assert r_op == parse_operator("-x^3", 1)
    assert residual == WeylOp.zero(1)


def test_euler_identity_builds_the_remainder_on_its_first_read():
    # the residual's terms are built by the check; R's wait in its unset slot
    q = formal_adjoint(parse_operator("(x+y)*d0^2+y*d0+3", 2))
    b = parse_poly("x^3*y-1/2*x*y^2+1/3*y", 2)
    _, r_op, residual = check_euler_identity(q, b)
    with pytest.raises(AttributeError):
        object.__getattribute__(r_op, "terms")
    assert object.__getattribute__(residual, "terms") == {}
    assert r_op.terms == oracle_euler_identity(q, b)[1].terms
    assert object.__getattribute__(r_op, "terms") is r_op.terms


def test_euler_identity_randomized():
    rng = random.Random(103)
    for _ in range(15):
        q = random_op(rng, 1, max_exp=2)
        b = random_poly(rng, 1, max_deg=2)
        _, _, residual = check_euler_identity(q, b)
        assert residual == WeylOp.zero(1)


# ------------------------------------------- fraction-free product kernel

BIG = 2**64


@st.composite
def big_rationals(draw):
    return Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))


def weyl_ops(n, max_exp=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    terms = st.dictionaries(st.tuples(exps, exps), big_rationals(), max_size=max_terms)
    return terms.map(lambda t: WeylOp(n, t))


def polys(n, max_exp=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    terms = st.dictionaries(exps, big_rationals(), max_size=max_terms)
    return terms.map(lambda t: MultiPoly(n, t))


@st.composite
def operator_cases(draw):
    """Three operators and a polynomial in 1-3 variables."""
    n = draw(st.integers(1, 3))
    p, q, r = (draw(weyl_ops(n)) for _ in range(3))
    return p, q, r, draw(polys(n))


def oracle_product(p, q):
    """x^a d^b * x^g d^e = sum_nu prod_i C(b_i, nu_i) g_i!/(g_i-nu_i)!
    x^(a+g-nu) d^(b+e-nu), as a plain double loop over Fraction terms."""
    out = {}
    for (a, b), c1 in p.terms.items():
        for (g, e), c2 in q.terms.items():
            for nu in product(*(range(min(bi, gi) + 1) for bi, gi in zip(b, g))):
                w = 1
                for bi, gi, ni in zip(b, g, nu):
                    w *= math.comb(bi, ni) * math.perm(gi, ni)
                key = (
                    tuple(x - k for x, k in zip(map(sum, zip(a, g)), nu)),
                    tuple(x - k for x, k in zip(map(sum, zip(b, e)), nu)),
                )
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * w
    return {k: c for k, c in out.items() if c}


def oracle_action(p, f):
    """x^a d^b applied to x^g gives g!/(g-b)! x^(a+g-b), zero if some b_i > g_i."""
    out = {}
    for (a, b), c1 in p.terms.items():
        for g, c2 in f.terms.items():
            w = math.prod(math.perm(gi, bi) for gi, bi in zip(g, b))
            if w:
                e = tuple(ai + gi - bi for ai, gi, bi in zip(a, g, b))
                out[e] = out.get(e, Fraction(0)) + c1 * c2 * w
    return {e: c for e, c in out.items() if c}


def assert_clean(x):
    assert all(type(c) is Fraction and c for c in x.terms.values())


@settings(deadline=None, derandomize=True, max_examples=100)
@given(operator_cases())
def test_products_and_actions_match_the_fraction_oracle(case):
    p, q, _, f = case
    for got, want in (
        (p * q, oracle_product(p, q)),
        (p.act_on_poly(f), oracle_action(p, f)),
    ):
        assert got.terms == want
        assert_clean(got)
    total, diff = p + q, p - q
    assert_clean(total)
    assert_clean(diff)
    assert total - q == p and diff + q == p


@st.composite
def grouped_action_cases(draw):
    """An operator in 2-3 variables whose terms share a few d-exponents,
    several terms to each, and a polynomial to act on."""
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = {}
    for de in draw(st.lists(exps, min_size=1, max_size=3, unique=True)):
        for xe in draw(st.lists(exps, min_size=2, max_size=4, unique=True)):
            terms[(xe, de)] = draw(big_rationals())
    return WeylOp(n, terms), draw(polys(n, max_terms=8))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(grouped_action_cases())
def test_grouped_action_matches_the_fraction_oracle(case):
    p, f = case
    got = p.act_on_poly(f)
    assert got.terms == oracle_action(p, f)
    assert_clean(got)


def test_each_derivative_is_shared_by_the_operators_of_one_action():
    # two operators share the d-exponent (1, 0) and one has no partial: each
    # result is that of its own call at the same width, term for term
    f = {(3, 2): 4, (1, 1): -2, (2, 0): 5, (0, 0): 1}
    ops = [
        {((1, 0), (1, 0)): 2, ((0, 1), (0, 0)): 3, ((2, 1), (1, 1)): -1},
        {((2, 0), (1, 0)): -1, ((0, 0), (0, 2)): 5},
        {((1, 1), (0, 0)): 7},
    ]
    width, together = _act(f, *ops)
    for op, got in zip(ops, together):
        alone_width, (alone,) = _act(f, op)
        assert alone_width == width
        assert list(got.items()) == list(alone.items())


@settings(deadline=None, derandomize=True, max_examples=100)
@given(operator_cases())
def test_weyl_relations_associativity_and_action(case):
    p, q, r, f = case
    n = p.n_vars
    assert (p * q) * r == p * (q * r)
    assert (p * q).act_on_poly(f) == p.act_on_poly(q.act_on_poly(f))
    c = next(iter(f.terms.values()), Fraction(1))
    for i in range(n):
        for j in range(n):
            cd, x = WeylOp.d_gen(n, i) * c, WeylOp.x_gen(n, j)
            comm = cd * x - x * cd
            assert comm == (WeylOp.one(n) * c if i == j else WeylOp.zero(n))
            assert_clean(comm)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(operator_cases())
def test_cancelling_operator_terms_are_never_stored(case):
    # with a in the partials only and b in the variables only, the leading
    # x^g d^b terms of a*(-b) cancel against b*a inside one product
    p, q, _, _ = case
    a = WeylOp(p.n_vars, {(tuple(0 for _ in xe), de): c for (xe, de), c in p.terms.items()})
    b = WeylOp(q.n_vars, {(xe, tuple(0 for _ in de)): c for (xe, de), c in q.terms.items()})
    got = (a + b) * (a - b)
    assert got.terms == oracle_product(a + b, a - b)
    assert got == a * a - a * b + b * a - b * b
    assert_clean(got)


def test_power_is_the_repeated_product():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(1, 2)
        op = random_op(rng, n)
        assert op ** 0 == WeylOp.one(n)
        acc = WeylOp.one(n)
        for k in range(1, 7):
            acc = acc * op
            assert op ** k == acc


# ----------------------------------------- adjoint against the product route


def oracle_adjoint(q):
    """The adjoint as a sum of products: (-1)^b d0^b * c x^a per term."""
    n = q.n_vars
    out = WeylOp.zero(n)
    for (xe, de), c in q.terms.items():
        term = (WeylOp.d_gen(n, 0) ** de[0]) * WeylOp.from_poly(MultiPoly.monomial(n, xe, c))
        out = out - term if de[0] % 2 else out + term
    return out


@st.composite
def d0_operators(draw):
    """Operators in 1-3 variables with d0 the only partial, of d0-order <= 4."""
    n = draw(st.integers(1, 3))
    xe = st.tuples(*[st.integers(0, 3)] * n)
    de = st.integers(0, 4).map(lambda k: (k,) + (0,) * (n - 1))
    return WeylOp(n, draw(st.dictionaries(st.tuples(xe, de), big_rationals(), max_size=5)))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(d0_operators())
def test_adjoint_matches_the_product_route(q):
    p = formal_adjoint(q)
    assert p == oracle_adjoint(q)
    assert_clean(p)
    assert formal_adjoint(p) == q


# ----------------------------------------- Euler identity against the oracle


def oracle_euler_identity(q, b):
    """(p, remainder_op, residual) over Fraction terms, by the recursion
    R_i(f, g) = R_{i-1}(f', g) + (-1)^i f d^(i-1) g,  R_0 = 0,
    summed over the right coefficients g = a_i of q."""
    n = q.n_vars
    d = WeylOp.d_gen(n, 0)

    def remainder(i, f, g):
        if i == 0:
            return WeylOp.zero(n)
        prev = remainder(i - 1, f.partial_derivative(0), g)
        tail = WeylOp.from_poly(f) * ((d ** (i - 1)) * WeylOp.from_poly(g))
        return prev - tail if i % 2 else prev + tail

    r_op = WeylOp.zero(n)
    for i, g in enumerate(right_coefficients(q)):
        r_op = r_op + remainder(i, b, g)
    p = formal_adjoint(q)
    p_of_b = MultiPoly(n, oracle_action(p, b))
    residual = WeylOp.from_poly(b) * q - WeylOp.from_poly(p_of_b) - d * r_op
    return p, r_op, residual


@st.composite
def euler_cases(draw):
    """q of order 1-3 in the first partial only, and b nonzero with 64-bit
    numerators and denominators, in 1-3 variables."""
    n = draw(st.integers(1, 3))
    xe = st.tuples(*[st.integers(0, 3)] * n)
    de = st.integers(0, 3).map(lambda k: (k,) + (0,) * (n - 1))
    coeff = big_rationals().filter(bool)
    q = draw(st.dictionaries(st.tuples(xe, de), coeff, min_size=1, max_size=4))
    q[(draw(xe), (draw(st.integers(1, 3)),) + (0,) * (n - 1))] = draw(coeff)
    return WeylOp(n, q), MultiPoly(n, draw(st.dictionaries(xe, coeff, min_size=1, max_size=6)))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(euler_cases())
def test_euler_identity_matches_the_fraction_oracle(case):
    q, b = case
    got = check_euler_identity(q, b)
    for x, want in zip(got, oracle_euler_identity(q, b)):
        assert x.terms == want.terms
        assert_clean(x)
    assert not got[2]


@settings(deadline=None, derandomize=True, max_examples=100)
@given(euler_cases())
def test_euler_identity_reads_b_only_for_the_remainder(case):
    # Lagrange's identity leaves no term of the residual's operator, so the
    # check never scales b or applies an operator to it; R still can
    q, b = case

    def refuse(*args):
        raise AssertionError("b was read")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weyl, "_act", refuse)
        mp.setattr(weyl, "_scaled", refuse)
        _, r_op, residual = check_euler_identity(q, b)
        assert object.__getattribute__(residual, "terms") == {}
        with pytest.raises(AttributeError):
            object.__getattribute__(r_op, "terms")
    assert r_op.terms == oracle_euler_identity(q, b)[1].terms


@settings(deadline=None, derandomize=True, max_examples=100)
@given(euler_cases())
def test_a_wrong_adjoint_leaves_the_residual_of_the_oracle(case):
    # P is given an extra x0*d0, so the a_1 that R is built from gets an
    # extra x0: the surviving terms must be applied to b, as the oracle does
    q, b = case
    n = q.n_vars
    x0d0 = WeylOp.x_gen(n, 0) * WeylOp.d_gen(n, 0)
    adjoint, coefficients = formal_adjoint, right_coefficients

    def wrong_adjoint(op):
        return adjoint(op) + x0d0

    def wrong_coefficients(op):
        a = coefficients(op)
        a[1] = a[1] + MultiPoly.variable(n, 0)
        return a

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weyl, "formal_adjoint", wrong_adjoint)
        mp.setitem(globals(), "formal_adjoint", wrong_adjoint)
        mp.setitem(globals(), "right_coefficients", wrong_coefficients)
        got, want = check_euler_identity(q, b), oracle_euler_identity(q, b)
    assert got[2]
    for x, w in zip(got, want):
        assert x.terms == w.terms
        assert_clean(x)


# ------------------------------------------- packed keys at the width boundary


@st.composite
def boundary_cases(draw, d0_only):
    """An operator and a polynomial in 1-3 variables whose terms pair up so
    that each digit of an x-part plus the paired exponent is 2^w - 1 or 2^w,
    for one w in 1..5: a packing one bit narrower carries at 2^w.  Partials
    are 0, the whole paired exponent (taking that digit to 0) or in between;
    with ``d0_only`` only the first partial occurs, to order at most 3.  Some
    cases are instead the zero operator, the zero polynomial or a constant
    operator."""
    n, w = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    coeff = big_rationals().filter(bool)
    op, f = {}, {}
    for _ in range(draw(st.integers(1, 3))):
        xe, de, g = [], [], []
        for i in range(n):
            total = draw(st.sampled_from((2**w - 1, 2**w)))
            a = draw(st.integers(0, total))
            xe.append(a)
            g.append(total - a)
            if d0_only:
                de.append(draw(st.integers(0, 3)) if i == 0 else 0)
            else:
                de.append(draw(st.sampled_from((0, total - a, draw(st.integers(0, total - a))))))
        op[(tuple(xe), tuple(de))] = draw(coeff)
        f[tuple(g)] = draw(coeff)
    shape = draw(st.sampled_from(("boundary",) * 5 + ("zero operator", "zero polynomial", "constant operator")))
    if shape == "zero operator":
        op = {}
    elif shape == "zero polynomial":
        f = {}
    elif shape == "constant operator":
        op = {((0,) * n, (0,) * n): draw(coeff)}
    return WeylOp(n, op), MultiPoly(n, f)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(boundary_cases(d0_only=False))
def test_action_at_the_width_boundary_matches_the_fraction_oracle(case):
    p, f = case
    got = p.act_on_poly(f)
    assert got.terms == oracle_action(p, f)
    assert_clean(got)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(boundary_cases(d0_only=True))
def test_euler_identity_at_the_width_boundary_matches_the_fraction_oracle(case):
    q, b = case
    got = check_euler_identity(q, b)
    for x, want in zip(got, oracle_euler_identity(q, b)):
        assert x.terms == want.terms
        assert_clean(x)
    assert not got[2]
