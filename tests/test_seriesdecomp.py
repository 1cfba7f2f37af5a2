"""Series splitting along an operator: analysis data, sweeps, reconstruction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from socle.errors import DimensionMismatch, DomainError
from socle.grammar import parse_operator
from socle.poly import MultiPoly
from socle.series import TruncatedSeries
from socle.seriesdecomp import (
    Decomposition,
    OperatorAnalysis,
    RegularOperator,
    _merge,
    analyze_operator,
    decompose,
    expansion_coeffs,
    expansion_condition_report,
    valuation_growth_probe,
)


def op_from_text(text, n_vars=None):
    return RegularOperator.from_weyl(parse_operator(text, n_vars))


def const(n, c):
    return MultiPoly.monomial(n, (0,) * n, Fraction(c))


def xpow(n, m, c=1):
    return MultiPoly.monomial(n, (m,) + (0,) * (n - 1), Fraction(c))


def random_x_poly(rng, n, max_deg=5):
    p = MultiPoly.zero(n)
    for _ in range(rng.randint(0, 5)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        p = p + MultiPoly.monomial(n, exp, rng.randint(-4, 4))
    return p


# ------------------------------------------------------------------- analysis


def test_analysis_frozen_families():
    # plain derivative: band at the constant level, one root at zero
    a = analyze_operator(op_from_text("d0", 1))
    assert (a.t, a.largest_root, a.ell0, a.s) == (0, 0, 1, 0)
    assert a.lambdas == (Fraction(0), Fraction(1))
    assert [a.g_at(ell) for ell in range(4)] == [0, 1, 2, 3]

    # euler operator: band one step up, one plain coefficient
    a = analyze_operator(op_from_text("x*d0", 1))
    assert (a.t, a.largest_root, a.ell0, a.s) == (1, 0, 1, 1)
    assert a.g_at(5) == 5

    # second order with a doubled x: g(l) = l(l-1)
    a = analyze_operator(op_from_text("x^2*d0^2", 1))
    assert (a.t, a.largest_root, a.ell0, a.s) == (2, 1, 2, 2)
    assert a.g_coeffs == (Fraction(0), Fraction(-1), Fraction(1))

    # constant-coefficient part plus a spectator variable
    a = analyze_operator(op_from_text("y + d0", 2))
    assert (a.t, a.largest_root, a.ell0, a.s) == (0, 0, 1, 0)

    # order zero: everything is in the operator's range
    a = analyze_operator(RegularOperator(1, (const(1, 1),)))
    assert (a.t, a.largest_root, a.ell0, a.s) == (0, None, 0, 0)


def test_analysis_shifted_roots():
    # coefficients tuned so g(l) = l^2 - 8l + 15 = (l-3)(l-5)
    p = RegularOperator(
        1,
        (const(1, 15), xpow(1, 1, -7), xpow(1, 2, 1)),
    )
    a = analyze_operator(p)
    assert a.t == 2
    assert a.lambdas == (Fraction(15), Fraction(-7), Fraction(1))
    assert a.g_at(3) == 0 and a.g_at(5) == 0 and a.g_at(4) == -1
    assert a.largest_root == 5
    assert a.ell0 == 6
    assert a.s == 6


def test_analysis_without_nonnegative_roots():
    # x*d0 + 1 has g(l) = l + 1, never zero on nonnegative integers
    a = analyze_operator(op_from_text("x*d0 + 1", 1))
    assert a.largest_root is None
    assert a.ell0 == 1  # falls back to the operator order
    assert a.s == 1


def test_weyl_round_trip():
    w = parse_operator("x^2*d0^2 + 3*x*d0 + 1", 1)
    p = RegularOperator.from_weyl(w)
    assert p.order == 2
    assert p.coeffs[0] == const(1, 1)
    assert p.coeffs[1] == xpow(1, 1, 3)
    assert p.coeffs[2] == xpow(1, 2, 1)
    assert p.to_weyl().terms == w.terms


def test_constructor_and_from_weyl_rejections():
    with pytest.raises(DomainError):
        RegularOperator.from_weyl(parse_operator("0", 1))
    with pytest.raises(DomainError):
        RegularOperator.from_weyl(parse_operator("d1", 2))
    with pytest.raises(DomainError):
        RegularOperator(1, (MultiPoly.zero(1),))
    with pytest.raises(DomainError):
        # top coefficient y has no pure power of the distinguished variable
        RegularOperator(2, (MultiPoly.zero(2), MultiPoly.variable(2, 1)))
    with pytest.raises(DimensionMismatch):
        RegularOperator(2, (MultiPoly.zero(2), MultiPoly.variable(1, 0)))


# ----------------------------------------------------------------- expansions


def test_expansion_coeffs_match_operator_action():
    ops = [
        op_from_text("d0", 1),
        op_from_text("x*d0", 1),
        op_from_text("x^2*d0^2 + 3*x*d0 + 1", 1),
        op_from_text("(x + y)*d0", 2),
        op_from_text("y + d0", 2),
    ]
    for p in ops:
        w = p.to_weyl()
        for ell in range(p.order, p.order + 9):
            acted = w.act_on_poly(xpow(p.n_vars, ell))
            assert expansion_coeffs(p, ell) == acted.x0_slices()


def test_expansion_coeffs_below_order():
    p = op_from_text("x^2*d0^2", 1)
    with pytest.raises(DomainError):
        expansion_coeffs(p, 1)


def test_condition_report_over_generator_range():
    for text, n in [("d0", 1), ("x*d0", 1), ("x^2*d0^2", 1), ("(x + y)*d0", 2)]:
        p = op_from_text(text, n)
        a = analyze_operator(p)
        for ell in range(a.ell0, a.ell0 + 26):
            report = expansion_condition_report(p, a, ell)
            assert report["support_ok"], (text, ell)
            assert report["band_ok"], (text, ell)
            assert report["pivot_unit"], (text, ell)
            assert report["pivot_matches_indicial"], (text, ell)


def test_condition_report_sees_root_below_ell0():
    # at an indicial root the pivot loses its unit
    p = RegularOperator(1, (const(1, 15), xpow(1, 1, -7), xpow(1, 2, 1)))
    a = analyze_operator(p)
    assert not expansion_condition_report(p, a, 3)["pivot_unit"]
    assert expansion_condition_report(p, a, 4)["pivot_unit"]


# -------------------------------------------------------------- decomposition


def test_decompose_antiderivative():
    p = op_from_text("d0", 1)
    f = const(1, 1) + xpow(1, 1) + xpow(1, 2)
    dec = decompose(f, p, precision=4)
    assert dec.e == ()
    assert {ell: v.poly_part() for ell, v in dec.b.items()} == {
        1: const(1, 1),
        2: const(1, Fraction(1, 2)),
        3: const(1, Fraction(1, 3)),
    }
    assert dec.reconstruction() == f.x0_slices()


def test_decompose_euler_operator():
    p = op_from_text("x*d0", 1)
    f = const(1, 7) + xpow(1, 1, 3) + xpow(1, 3, 5)
    dec = decompose(f, p, precision=4)
    assert len(dec.e) == 1
    assert dec.e[0].poly_part() == const(1, 7)
    assert {ell: v.poly_part() for ell, v in dec.b.items()} == {
        1: const(1, 3),
        3: const(1, Fraction(5, 3)),
    }
    assert dec.reconstruction() == f.x0_slices()


def test_decompose_identity_operator():
    p = RegularOperator(2, (const(2, 1),))
    f = MultiPoly.variable(2, 1) * xpow(2, 2, 3) + const(2, 4)
    dec = decompose(f, p, precision=5)
    assert dec.e == ()
    assert {ell: v.poly_part() for ell, v in dec.b.items()} == f.x0_slices()


def test_decompose_mixed_variable_family():
    # y + d0 pushes corrections upward, gaining a y each step
    p = op_from_text("y + d0", 2)
    y = MultiPoly.variable(2, 1)
    f = y * xpow(2, 4)
    dec = decompose(f, p, precision=6)
    assert dec.analysis.s == 0
    assert dec.x_window == 5
    assert sorted(dec.b) == [5, 6]
    assert dec.b[5].poly_part() == y * Fraction(1, 5)
    assert dec.b[6].poly_part() == y * y * Fraction(-1, 30)
    assert dec.sweep_valuations[0] == 1
    assert dec.sweep_valuations[-1] == math.inf


def test_decompose_two_plain_coefficients():
    p = op_from_text("x^2*d0^2", 1)
    f = const(1, 4) + xpow(1, 1, 9) + xpow(1, 3, 6)
    dec = decompose(f, p, precision=3)
    assert [e.poly_part() for e in dec.e] == [const(1, 4), const(1, 9)]
    assert {ell: v.poly_part() for ell, v in dec.b.items()} == {3: const(1, 1)}
    assert dec.reconstruction() == f.x0_slices()


def test_decompose_past_shifted_roots():
    # ell0 = 6, so six plain coefficients; x^7 lands in the operator's range
    p = RegularOperator(1, (const(1, 15), xpow(1, 1, -7), xpow(1, 2, 1)))
    f = xpow(1, 7, 8)
    dec = decompose(f, p, precision=3)
    assert len(dec.e) == 6
    assert all(not e for e in dec.e)
    # pivot at x^7 carries g(7) = 8, so b_7 = 8/8 = 1
    assert {ell: v.poly_part() for ell, v in dec.b.items()} == {7: const(1, 1)}
    assert dec.reconstruction() == f.x0_slices()


def test_decompose_accepts_truncated_series_input():
    p = op_from_text("x*d0", 1)
    f = const(1, 2) + xpow(1, 2, 4)
    direct = decompose(f, p, precision=5)
    wrapped = decompose(TruncatedSeries.from_poly(f, 5), p, precision=5)
    assert direct.e == wrapped.e
    assert direct.b == wrapped.b


def test_reconstruction_randomized():
    rng = random.Random(20260816)
    families = [
        ("d0", 1),
        ("x*d0", 1),
        ("d0 + 1", 1),
        ("y + d0", 2),
        ("(x + y)*d0", 2),
    ]
    precision = 8
    for text, n in families:
        p = op_from_text(text, n)
        for _ in range(25):
            f = random_x_poly(rng, n)
            dec = decompose(f, p, precision=precision)
            recon = dec.reconstruction()
            truth = {j: sl for j, sl in f.x0_slices().items() if j <= dec.x_window}
            for j in set(recon) | set(truth):
                got = TruncatedSeries.from_poly(recon.get(j, MultiPoly.zero(n)), precision)
                want = TruncatedSeries.from_poly(truth.get(j, MultiPoly.zero(n)), precision)
                assert got == want, (text, j)


def test_sweep_valuations_cohere():
    # downward cascade: each sweep moves one x-power lower and one y-order up
    p = op_from_text("(x + y)*d0", 2)
    y = MultiPoly.variable(2, 1)
    f = xpow(2, 5) + xpow(2, 3, 2)
    dec = decompose(f, p, precision=7)
    finite = [v for v in dec.sweep_valuations if v != math.inf]
    assert finite == sorted(finite)
    for k, v in enumerate(dec.sweep_valuations, start=1):
        assert v >= k - 1
    assert dec.e_valuations == (3,)
    assert dec.e[0].poly_part() == y ** 3 * Fraction(-2) + y ** 5 * Fraction(-1)
    assert dec.b_valuations == {1: 2, 2: 1, 3: 0, 4: 1, 5: 0}
    assert dec.b[5].poly_part() == const(2, Fraction(1, 5))
    assert dec.b[3].poly_part() == const(2, Fraction(2, 3)) + y * y * Fraction(1, 3)


def test_cross_precision_agreement():
    p = op_from_text("(x + y)*d0", 2)
    f = xpow(2, 4) + xpow(2, 2)
    lo = decompose(f, p, precision=4)
    hi = decompose(f, p, precision=9)
    assert lo.e[0].agrees_with(hi.e[0], through_degree=3)
    assert set(lo.b) <= set(hi.b)
    for ell in lo.b:
        assert lo.b[ell].agrees_with(hi.b[ell], through_degree=3)


def test_valuation_growth_probe_with_band_offset():
    rows = valuation_growth_probe(op_from_text("(x + y)*d0", 2), [3, 5, 7], precision=9)
    for row in rows:
        assert row["within_bound"]
        assert row["bound"] == row["m"] - 2
        # the correction has to walk all the way down from x^m
        assert row["min_e_valuation"] == row["m"]


def test_valuation_growth_probe_vacuous_and_rejected():
    # the euler operator banks nothing for pure positive powers
    rows = valuation_growth_probe(op_from_text("x*d0", 1), [3, 7, 11, 15], precision=6)
    for row in rows:
        assert row["min_e_valuation"] == math.inf
        assert row["within_bound"]
    with pytest.raises(DomainError):
        valuation_growth_probe(op_from_text("d0", 1), [3], precision=6)
    with pytest.raises(DomainError):
        valuation_growth_probe(op_from_text("x*d0", 1), [-1], precision=6)


def test_decompose_error_paths():
    p = op_from_text("x*d0", 1)
    f = xpow(1, 3)
    with pytest.raises(DomainError):
        decompose(f, p, precision=0)
    with pytest.raises(DimensionMismatch):
        decompose(xpow(2, 3), p, precision=3)
    with pytest.raises(DomainError):
        decompose("x^3", p, precision=3)


def test_default_window():
    p = op_from_text("(x + y)*d0", 2)
    f = xpow(2, 3)
    dec = decompose(f, p, precision=5)
    assert dec.x_window == 5 * 1 + 3 + 1


def test_to_json_shape():
    p = op_from_text("x*d0", 1)
    dec = decompose(xpow(1, 2, 4), p, precision=4)
    payload = dec.to_json()
    assert payload["schema"] == 1
    assert payload["t"] == 1 and payload["s"] == 1 and payload["ell0"] == 1
    assert payload["e"] == ["0"]
    assert payload["b"] == {"2": "2"}
    # a vanished plain coefficient reports a null valuation
    assert payload["e_valuations"] == [None]
    assert payload["b_valuations"] == {"2": 0}


# ------------------------------------------- the sweep against a plain oracle

BIG = 2**32
SWEEP_OPERATORS = (
    ("(x0 + x1)*d0^2 + x1*d0 + 3", 2),
    ("(x0 + x1 + x2)*d0 + x1*x2", 3),
    ("x*d0", 1),
    ("x*d0", 2),
)


def truncated_product(a, b, precision):
    """a * b below total degree ``precision``, by a plain double loop over
    Fractions."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) < precision:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return TruncatedSeries(a.n_vars, precision, out)


def plain_sweep(f, p, K):
    """The sweep of ``decompose`` on TruncatedSeries, one generator at a time:
    (e-parts, nonzero b-parts, sweep valuations)."""
    analysis = analyze_operator(p)
    r, t, s = p.order, analysis.t, analysis.s
    window = K * t + (f.degree_in(0) if f else 0) + r
    zero = TruncatedSeries.zero(p.n_vars, K)
    residual = [zero] * (window + 1)
    for j, sl in f.x0_slices().items():
        residual[j] = TruncatedSeries.from_poly(sl, K)
    e, b, valuations = [zero] * s, {}, []
    for _ in range(K):
        low = math.inf
        for j, gamma in enumerate(residual):
            if not gamma:
                continue
            low = min(low, gamma.valuation())
            if j < s:
                e[j], residual[j] = e[j] + gamma, zero
                continue
            ell = j + r - t
            column = expansion_coeffs(p, ell)
            inverse = TruncatedSeries.from_poly(column[j], K).invert()
            delta = truncated_product(gamma, inverse, K)
            b[ell] = b.get(ell, zero) + delta
            for m, c in column.items():
                if m <= window:
                    product = truncated_product(delta, TruncatedSeries.from_poly(c, K), K)
                    residual[m] = residual[m] - product
            assert not residual[j]
        valuations.append(low)
        if low == math.inf:
            break
    return tuple(e), {ell: v for ell, v in b.items() if v}, tuple(valuations)


@st.composite
def sweep_inputs(draw):
    """An operator of SWEEP_OPERATORS, a precision 1-8 and a random f: one to
    five terms of x-degree <= 5 and B-degree <= 3, with numerators and
    denominators up to 2^32."""
    text, n = draw(st.sampled_from(SWEEP_OPERATORS))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        b_exp = [0] * (n - 1)
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            b_exp[draw(st.integers(0, n - 2))] += 1
        exp = (draw(st.integers(0, 5)), *b_exp)
        terms[exp] = Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))
    return op_from_text(text, n), MultiPoly(n, terms), draw(st.sampled_from(range(1, 9)))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(sweep_inputs())
def test_fraction_free_sweep_matches_the_plain_series_sweep(inputs):
    p, f, K = inputs
    dec = decompose(f, p, K)
    assert (dec.e, dec.b, dec.sweep_valuations) == plain_sweep(f, p, K)
    for part in (*dec.e, *dec.b.values()):
        assert part.precision == K
        assert all(type(c) is Fraction and c for c in part.terms.values())


@st.composite
def scaled_pairs(draw):
    """A (numerators, den) pair in one variable; zeros and a common factor
    allowed."""
    nums = draw(st.dictionaries(st.tuples(st.integers(0, 4)), st.integers(-BIG, BIG), max_size=5))
    return nums, draw(st.integers(1, BIG))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(scaled_pairs(), scaled_pairs(), st.sampled_from((1, -1)))
def test_merged_pairs_are_exact_and_primitive(a, b, sign):
    # the sweep's integers stay small: zeros dropped, common gcd divided out
    nums, den = _merge(a, b, sign)
    want = {}
    for (part_nums, part_den), part_sign in ((a, 1), (b, sign)):
        for e, v in part_nums.items():
            want[e] = want.get(e, 0) + part_sign * Fraction(v, part_den)
    assert {e: Fraction(v, den) for e, v in nums.items()} == {e: c for e, c in want.items() if c}
    assert den > 0 and all(nums.values())
    assert math.gcd(den, *nums.values()) == 1
