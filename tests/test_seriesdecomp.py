"""Series splitting along an operator: analysis data, sweeps, reconstruction."""

import dataclasses
import hashlib
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from socle import seriesdecomp
from socle.errors import DimensionMismatch, DomainError, InternalCheckError
from socle.grammar import parse_operator
from socle.poly import MultiPoly, _pack, _unpack
from socle.series import TruncatedSeries
from socle.seriesdecomp import (
    RegularOperator,
    _cell_scale,
    _divide,
    _primitive,
    analyze_operator,
    decompose,
    expansion_coeffs,
    expansion_condition_report,
    valuation_growth_probe,
)
from socle.weyl import check_euler_identity, formal_adjoint


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


def test_decompose_refuses_truncated_series_input():
    # f is a polynomial; a series is refused, not read through its terms
    p = op_from_text("x*d0", 1)
    f = const(1, 2) + xpow(1, 2, 4)
    with pytest.raises(DomainError, match="polynomial"):
        decompose(TruncatedSeries.from_poly(f, 5), p, precision=5)


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


def per_generator_reconstruction(dec):
    """sum e_i x^i + sum P(b_l x^l), one operator action per generator."""
    op, n = dec.operator.to_weyl(), dec.operator.n_vars
    total = MultiPoly.zero(n)
    for i, ei in enumerate(dec.e):
        total = total + ei.poly_part() * xpow(n, i)
    for ell, bl in dec.b.items():
        total = total + op.act_on_poly(bl.poly_part() * xpow(n, ell))
    return {j: sl for j, sl in total.x0_slices().items() if j <= dec.x_window}


def test_wide_keys_certify_and_reconstruct_the_costliest_accepted_input():
    # the costliest input accepted under the earlier sweep bound of 52000:
    # b has 2225 terms, x-powers up to 54, y-powers up to 42 and numerators
    # of about 3000 bits, so the action and the certificate pack wide keys
    text, K = "(x+y)*d0^2+y*d0+3", 43
    p_weyl = parse_operator(text, 2)
    p = RegularOperator.from_weyl(p_weyl)
    f = MultiPoly(2, {(8, 3): 1, (2, 1): 1})
    dec = decompose(f, p, precision=K)
    b = MultiPoly.zero(2)
    for ell, bl in dec.b.items():
        b = b + bl.poly_part() * xpow(2, ell)
    adjoint, _, residual = check_euler_identity(formal_adjoint(p_weyl), b)
    assert not residual
    assert adjoint == p_weyl
    recon = dec.reconstruction()
    for j in range(dec.x_window + 1):
        got = TruncatedSeries.from_poly(recon.get(j, MultiPoly.zero(2)), K)
        want = TruncatedSeries.from_poly(f.x0_slices().get(j, MultiPoly.zero(2)), K)
        assert got == want, j


@pytest.mark.slow
def test_remainder_of_the_costliest_accepted_input_is_built_on_its_first_read():
    # the costliest input under the sweep bound of 100000: b has 3391 terms,
    # and R, built from its int numerators only when read, has 6960 terms
    # with numerators of up to 4574 bits over a 5120-bit denominator; its
    # term count and text are pinned to those of the eager build
    p_weyl = parse_operator("(x+y)*d0^2+y*d0+3", 2)
    dec = decompose(MultiPoly(2, {(8, 3): 1, (2, 1): 1}), RegularOperator.from_weyl(p_weyl), precision=54)
    b = MultiPoly.zero(2)
    for ell, bl in dec.b.items():
        b = b + bl.poly_part() * xpow(2, ell)
    adjoint, r_op, residual = check_euler_identity(formal_adjoint(p_weyl), b)
    assert not residual.terms
    assert adjoint == p_weyl
    assert len(r_op.terms) == 6960
    assert hashlib.sha256(r_op.render().encode()).hexdigest() == (
        "da2b8c0583f5f717b19b1a96e0cfbe69c1b9bd05633da0ab03f633665de0c774"
    )


@pytest.mark.parametrize(
    "text, n",
    [("(x0 + x1)*d0^2 + x1*d0 + 3", 2), ("(x0 + x1 + x2)*d0 + x1*x2", 3), ("x*d0", 1)],
)
def test_reconstruction_is_the_per_generator_route(text, n):
    rng = random.Random(text)
    p = op_from_text(text, n)
    for _ in range(6):
        # x-degree up to 6, B-degree low enough to survive the truncation
        terms = {}
        for _ in range(6):
            exp = (rng.randint(0, 6),) + tuple(rng.randint(0, 1) for _ in range(n - 1))
            terms[exp] = rng.choice((-1, 1)) * rng.randint(1, 9)
        dec = decompose(MultiPoly(n, terms), p, precision=rng.randint(n + 1, 6))
        assert dec.b
        assert dec.reconstruction() == per_generator_reconstruction(dec)


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
    assert lo.e[0] == TruncatedSeries.from_poly(hi.e[0].poly_part(), 4)
    assert set(lo.b) <= set(hi.b)
    for ell in lo.b:
        assert lo.b[ell] == TruncatedSeries.from_poly(hi.b[ell].poly_part(), 4)


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


def test_decompose_refuses_a_generator_at_an_indicial_root(monkeypatch):
    # g(l) = l(l-1) - 6 = (l-3)(l+2); an analysis that puts ell0 at the root
    # 3 hands the sweep a generator whose pivot is no unit
    p = op_from_text("x^2*d0^2 - 6", 1)
    true = analyze_operator(p)
    assert (true.largest_root, true.ell0) == (3, 4)
    a = dataclasses.replace(true, ell0=3, s=3 - p.order + true.t)
    monkeypatch.setattr(seriesdecomp, "analyze_operator", lambda op: a)
    with pytest.raises(DomainError) as info:
        decompose(xpow(1, 3), p, precision=2)
    report = expansion_condition_report(p, a, 3)
    assert not report["pivot_unit"]
    assert str(info.value) == (
        f"operator fails its expansion conditions at generator index 3: {report}"
    )


def test_a_pivot_off_the_indicial_value_is_an_internal_error(monkeypatch):
    # x*d0 has g(l) = l; an analysis that reports g(l) = l + 1 disagrees
    # with the pivot of P(x^3), 3*x^3, when the sweep first builds it
    p = op_from_text("x*d0", 1)
    true = analyze_operator(p)
    off = dataclasses.replace(true, g_coeffs=(true.g_coeffs[0] + 1,) + true.g_coeffs[1:])
    monkeypatch.setattr(seriesdecomp, "analyze_operator", lambda op: off)
    with pytest.raises(InternalCheckError, match=r"^the pivot of generator 3 is not g\(3\)$"):
        decompose(xpow(1, 3), p, precision=2)


def test_an_inexact_pivot_division_is_an_internal_error(monkeypatch):
    # x*d0 on 3*x^3*y + 6*x^3*z: gamma = 3*y + 6*z at x^3 is divided by
    # g(3) = 3, and the only gcd the sweep takes that is 3 is the content of
    # that quotient; a gcd that reports 2 there leaves delta = y + 3*z
    p = op_from_text("x*d0", 3)
    f = MultiPoly(3, {(3, 1, 0): Fraction(3), (3, 0, 1): Fraction(6)})

    def gcd(*args):
        g = math.gcd(*args)
        return 2 if g == 3 else g

    monkeypatch.setattr(seriesdecomp, "math", types.SimpleNamespace(**{**vars(math), "gcd": gcd}))
    with pytest.raises(InternalCheckError, match=r"^pivot cancellation was not exact$"):
        decompose(f, p, precision=2)


@pytest.mark.parametrize(
    "precision, message",
    [
        (2, r"^coherence failure: sweep 2 found valuation 0 at position 3$"),
        (1, r"^residual survived all sweeps at the stated precision$"),
    ],
)
def test_a_residual_past_the_window_is_an_internal_error(monkeypatch, precision, message):
    # a window that stops short of f's x^3 leaves it in the residual: sweep 2
    # finds it below its degree, and with one sweep it outlives the sweeps
    p = op_from_text("x*d0", 1)
    monkeypatch.setattr(seriesdecomp, "x_window", lambda p, t, f, K: 1)
    with pytest.raises(InternalCheckError, match=message):
        decompose(xpow(1, 3), p, precision)


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
    ("(x0 + x1 + x2 + x3)*d0 + x1*x3", 4),
    # rational indicial coefficients and negative g(l): g = -1, -3, -6, ...
    # from l0 = 2 on, over the denominator 2, and g = -4/3, -7/3, ... from
    # l0 = 1 on, so 1/g(l) has a sign and a denominator
    ("-1/2*(x0 + x1)*d0^2 + x1*d0 - 7/3", 2),
    ("-x*d0 - 1/3", 1),
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
    """The series-inverse sweep on TruncatedSeries, one generator at a time:
    each visit divides the whole residual coefficient by the pivot's series
    inverse.  Returns (e-parts, nonzero b-parts)."""
    analysis = analyze_operator(p)
    r, t, s = p.order, analysis.t, analysis.s
    window = K * t + (f.degree_in(0) if f else 0) + r
    zero = TruncatedSeries.zero(p.n_vars, K)
    residual = [zero] * (window + 1)
    for j, sl in f.x0_slices().items():
        residual[j] = TruncatedSeries.from_poly(sl, K)
    e, b = [zero] * s, {}
    for _ in range(K):
        for j, gamma in enumerate(residual):
            if not gamma:
                continue
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
    return tuple(e), {ell: v for ell, v in b.items() if v}


def below_degree(series, d):
    """The terms of a series of B-degree below d, as a polynomial."""
    return MultiPoly(series.n_vars, {e: c for e, c in series.terms.items() if sum(e) < d})


def residual_valuations(f, p, K, dec):
    """The ledger from the output alone: for d = 0, 1, ..., K-1 the valuation
    of f - sum e_i^{<d} x^i - P(sum b_l^{<d} x^l) on the x-powers up to the
    window, mod m_B^K, where ^{<d} keeps the terms of B-degree below d;
    it stops after the first infinite one."""
    n, op = p.n_vars, p.to_weyl()
    out = []
    for d in range(K):
        e = MultiPoly.zero(n)
        for i, ei in enumerate(dec.e):
            e = e + below_degree(ei, d) * xpow(n, i)
        b = MultiPoly.zero(n)
        for ell, bl in dec.b.items():
            b = b + below_degree(bl, d) * xpow(n, ell)
        residual = (f - e - op.act_on_poly(b)).x0_slices()
        out.append(min(
            (TruncatedSeries.from_poly(sl, K).valuation() for j, sl in residual.items() if j <= dec.x_window),
            default=math.inf,
        ))
        if out[-1] == math.inf:
            break
    return tuple(out)


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
# y sits at x^0 in B-degree 1, so sweep 1, which clears B-degree 0, leaves it
# and the ledger reads (1, 1); the series-inverse sweep clears it at once
@example((op_from_text("(x0 + x1)*d0^2 + x1*d0 + 3", 2), MultiPoly.variable(2, 1), 2))
def test_fraction_free_sweep_matches_the_plain_series_sweep(inputs):
    p, f, K = inputs
    dec = decompose(f, p, K)
    assert (dec.e, dec.b) == plain_sweep(f, p, K)
    assert dec.sweep_valuations == residual_valuations(f, p, K, dec)
    for part in (*dec.e, *dec.b.values()):
        assert part.precision == K
        assert all(type(c) is Fraction and c for c in part.terms.values())


@st.composite
def scaled_pieces(draw):
    """One to four (numerators, den) pieces keyed by packed ints; zeros, a
    common factor and cancelling keys allowed."""
    piece = st.tuples(
        st.dictionaries(st.integers(0, 4), st.integers(-BIG, BIG), max_size=5),
        st.integers(1, BIG),
    )
    return draw(st.lists(piece, min_size=1, max_size=4))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(scaled_pieces())
def test_merged_pairs_are_exact_and_primitive(pieces):
    # pieces summed into one cell as the sweep sums them, the cell's
    # denominator growing to their lcm, then made primitive when visited:
    # the sweep's integers stay small, zeros dropped, common gcd divided out
    cell = [{}, 1]
    for part_nums, part_den in pieces:
        scale = _cell_scale(cell, part_den)
        for e, v in part_nums.items():
            cell[0][e] = cell[0].get(e, 0) + v * scale
    assert cell[1] == math.lcm(*(d for _, d in pieces))
    nums, den = _primitive(*cell)
    want = {}
    for part_nums, part_den in pieces:
        for e, v in part_nums.items():
            want[e] = want.get(e, 0) + Fraction(v, part_den)
    assert {e: Fraction(v, den) for e, v in nums.items()} == {e: c for e, c in want.items() if c}
    assert den > 0 and all(nums.values())
    assert math.gcd(den, *nums.values()) == 1


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.dictionaries(st.integers(0, 4), st.integers(-BIG, BIG).filter(bool), min_size=1, max_size=5),
    st.integers(1, BIG),
    st.integers(-BIG, BIG).filter(bool),
    st.integers(1, BIG),
)
def test_pivot_quotients_are_exact_and_primitive(nums, den, p, q):
    # delta = gamma / g(l) from two small gcds, for gamma primitive and
    # 1/g(l) = p/q in lowest terms, is the primitive pair of the quotient
    gamma_nums, gamma_den = _primitive(nums, den)
    inverse = Fraction(p, q)
    delta_nums, delta_den = _divide(gamma_nums, gamma_den, inverse.numerator, inverse.denominator)
    assert {e: Fraction(v, delta_den) for e, v in delta_nums.items()} == {
        e: Fraction(v, gamma_den) * inverse for e, v in gamma_nums.items()
    }
    assert delta_den > 0 and all(delta_nums.values())
    assert math.gcd(delta_den, *delta_nums.values()) == 1


@st.composite
def packed_monomials(draw):
    """A variable count 1-5, a precision 1-12 and two B-monomials below it,
    with the distinguished variable's exponent 0."""
    n, K = draw(st.integers(1, 5)), draw(st.integers(1, 12))

    def monomial():
        exp = [0] * n
        for _ in range(draw(st.integers(0, K - 1)) if n > 1 else 0):
            exp[draw(st.integers(1, n - 1))] += 1
        return tuple(exp)

    return n, K, monomial(), monomial()


@settings(deadline=None, derandomize=True, max_examples=200)
@given(packed_monomials())
def test_packed_keys_round_trip_add_and_order_by_degree(inputs):
    n, K, a, b = inputs
    width = (2 * K).bit_length()
    shift = width * (n - 1)
    # the sweep's key: the B-exponents, then the total degree as the top digit
    ka, kb = (_pack(e[1:] + (sum(e),), width) for e in (a, b))
    assert (0,) + _unpack(ka, width, n - 1) == a and (0,) + _unpack(kb, width, n - 1) == b
    # a product adds the keys, and its degree digit is the total degree
    ab = tuple(x + y for x, y in zip(a, b))
    assert ka + kb == _pack(ab[1:] + (sum(ab),), width) and (ka + kb) >> shift == sum(ab)
    # the degree digit orders keys, so the least key carries the valuation
    if sum(a) < sum(b):
        assert ka < kb
    assert min(ka, kb) >> shift == min(sum(a), sum(b))
