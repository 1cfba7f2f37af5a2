"""End-to-end acceptance checks, one test per criterion.

Every comparison here is exact (Fraction arithmetic throughout); the only
tolerances are the stated runtime budgets, enforced with a monotonic clock.
Each test prints a single summary line on success, so a verbose run reads as
a pass/fail scoreboard.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from socle.catalog import PROFILES
from socle.derham import (
    completion_flattening,
    derham_closed_form,
    derham_rank_one,
    derham_truncated,
    les_splice,
    spec_from_json,
)
from socle.grammar import parse_operator, parse_poly
from socle.poly import MultiPoly
from socle.series import TruncatedSeries
from socle.seriesdecomp import (
    RegularOperator,
    analyze_operator,
    decompose,
    expansion_condition_report,
    valuation_growth_probe,
)
from socle.structure import BettiProfile, CurveData, cone_homology, predict, singular_curve_h1
from socle.weyl import WeylOp, check_euler_identity


def _passed(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_weyl_relations():
    start = time.monotonic()
    # d*x rewrites to x*d + 1 in one variable
    got = WeylOp.d_gen(1, 0) * WeylOp.x_gen(1, 0)
    want = WeylOp(1, {((1,), (1,)): Fraction(1), ((0,), (0,)): Fraction(1)})
    assert got == want
    # [d_i, x_j] = delta_ij across every pair for n up to 4
    for n in range(1, 5):
        for i in range(n):
            for j in range(n):
                di = WeylOp.d_gen(n, i)
                xj = WeylOp.x_gen(n, j)
                commutator = di * xj - xj * di
                want = WeylOp.one(n) if i == j else WeylOp.zero(n)
                assert commutator == want, (n, i, j)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed(1, f"normal ordering and all commutators, n <= 4 ({elapsed:.3f}s)")


def test_criterion_02_closed_forms_both_engines():
    for n in range(1, 4):
        spec_r = spec_from_json({"kind": "R", "vars": n})
        spec_e = spec_from_json({"kind": "E", "vars": n})
        want_r = [1] + [0] * n
        want_e = [0] * n + [1]
        assert list(derham_closed_form(spec_r)) == want_r
        assert list(derham_closed_form(spec_e)) == want_e
        dims_r, report_r = derham_truncated(spec_r, pole_cutoff=4)
        assert list(dims_r) == want_r
        assert report_r.certificate in ("exact", "stabilized")
        if n <= 2:
            dims_e, report_e = derham_truncated(spec_e, pole_cutoff=4)
            assert list(dims_e) == want_e
            assert report_e.certificate in ("exact", "stabilized")
    # the top local cohomology of one variable, spliced out of the
    # localization sequence computed by the truncation engine
    sub, _ = derham_truncated(spec_from_json({"kind": "R", "vars": 1}), pole_cutoff=4)
    total, _ = derham_truncated(
        spec_from_json({"kind": "loc", "f": "x", "vars": 1}), pole_cutoff=4
    )
    spliced = les_splice(list(sub), list(total), [0, 0])
    assert list(spliced) == [0, 1]
    _passed(2, "full ring and top injective tables agree across both engines, n <= 3")


def test_criterion_03_kunneth_profile():
    start = time.monotonic()
    names = ["x0", "x1", "x2"]
    for size in range(0, 4):
        for subset in combinations(range(3), size):
            if subset:
                spec = spec_from_json(
                    {"kind": "loc", "f": "*".join(names[i] for i in subset), "vars": 3}
                )
            else:
                spec = spec_from_json({"kind": "R", "vars": 3})
            dims, report = derham_truncated(spec, pole_cutoff=4)
            assert report.certificate in ("exact", "stabilized"), subset
            assert list(dims) == [comb(len(subset), j) for j in range(4)], subset
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(3, f"all eight monomial localizations in three variables ({elapsed:.2f}s)")


def test_criterion_04_rank_one_connection():
    x_sq = parse_poly("x^2", 1)
    assert list(derham_rank_one(x_sq)) == [0, 2]
    assert list(derham_rank_one(MultiPoly.zero(1))) == [1, 0]

    u = completion_flattening(x_sq, 10)
    cube = TruncatedSeries.from_poly(parse_poly("-1/3*x^3", 1), 10)
    assert u == cube.exp()
    # defining equation u' + p*u = 0, checked through every tracked degree
    residual = u.differentiate(0) + TruncatedSeries.from_poly(x_sq, 10) * u
    assert not residual
    _passed(4, "rank-one tables and the flattening series with zero residual")


def test_criterion_05_elliptic_cross_check():
    start = time.monotonic()
    profile = BettiProfile(n=2, d=1, betti=(1, 2, 1))
    report = predict(profile)
    assert list(report.critical_dims) == [0, 1, 2, 2]
    assert report.quotient_e_copies == 2

    spec = spec_from_json({"kind": "loc-quot", "f": "x^3 + y^3 + z^3", "vars": 3})
    dims, trunc = derham_truncated(spec, pole_cutoff=6)
    assert trunc.stabilized
    assert list(dims) == [0, 1, 2, 2]
    assert list(dims) == list(report.critical_dims)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _passed(5, f"betti [1,2,1] prediction matches the cubic engine ({elapsed:.2f}s)")


def test_criterion_06_simplicity_catalog():
    for name in ("p1", "twisted-cubic", "veronese-p2-p5"):
        entry = PROFILES[name]
        report = predict(entry.profile, name=name)
        assert report.quotient_e_copies == 0, name
        assert report.simple, name
    segre = predict(PROFILES["segre-p1xp2"].profile, name="segre-p1xp2")
    assert segre.e_copies[3] == 1
    assert segre.ogus_vanishing is False
    _passed(6, "rational-image entries are simple; the segre threefold is not")


def test_criterion_07_degeneration_identity():
    for entry in PROFILES.values():
        profile = entry.profile
        n, d, r = profile.n, profile.d, profile.r
        h = cone_homology(profile)
        # independent transcription of the piecewise dimension formula
        dims = [0] * (n + 2)
        for j in range(r, n + 1):
            dims[j] = profile.b(n + d - j) - profile.b(n + d - j + 2)
        dims[n + 1] = profile.b(d) - profile.b(d - 2)
        for j in range(n + 2):
            mirror = 2 * n + 2 - j - r
            want = h[mirror] if 0 <= mirror < len(h) else 0
            assert dims[j] == want, (entry.name, j)
        assert dims == list(predict(profile, name=entry.name).critical_dims)
    _passed(7, "cone homology mirrors the dimension table on every profile")


def test_criterion_08_singular_curves():
    assert singular_curve_h1(CurveData(0, (2,))) == 1
    assert singular_curve_h1(CurveData(2, (2, 2))) == 6
    _passed(8, "nodal rational curve and genus-two curve with two planar pairs")


def test_criterion_09_decomposition_suite():
    start = time.monotonic()
    rng = random.Random(4257)
    families = [
        ("d0", 1),
        ("x*d0", 1),
        ("x1 + d0", 2),
    ]
    precision = 8
    for text, n in families:
        op = RegularOperator.from_weyl(parse_operator(text, n))
        analysis = analyze_operator(op)

        # reconstruction residual vanishes mod m_B^8 for 25 random inputs
        for _ in range(25):
            f = MultiPoly.zero(n)
            for _ in range(rng.randint(0, 5)):
                exp = tuple(rng.randint(0, 5) for _ in range(n))
                f = f + MultiPoly.monomial(n, exp, rng.randint(-4, 4))
            dec = decompose(f, op, precision=precision)
            recon = dec.reconstruction()
            truth = {j: sl for j, sl in f.x0_slices().items() if j <= dec.x_window}
            for j in set(recon) | set(truth):
                got = TruncatedSeries.from_poly(recon.get(j, MultiPoly.zero(n)), precision)
                want = TruncatedSeries.from_poly(truth.get(j, MultiPoly.zero(n)), precision)
                assert got == want, (text, j)
            # sweep-by-sweep coherence certified by the engine's own ledger
            for k, v in enumerate(dec.sweep_valuations, start=1):
                assert v >= k - 1, (text, k)

        # expansion conditions over thirty generator indices past ell0
        for ell in range(analysis.ell0, analysis.ell0 + 31):
            flags = expansion_condition_report(op, analysis, ell)
            assert flags["support_ok"] and flags["band_ok"], (text, ell)
            assert flags["pivot_unit"] and flags["pivot_matches_indicial"], (text, ell)

        # successive precisions only refine: e parts agree mod m_B^k
        probe_f = MultiPoly.monomial(n, (4,) + (0,) * (n - 1), 3)
        decs = [decompose(probe_f, op, precision=k) for k in range(1, precision + 1)]
        for k in range(1, precision):
            lo, hi = decs[k - 1], decs[k]
            assert len(lo.e) == len(hi.e)
            for e_lo, e_hi in zip(lo.e, hi.e):
                assert e_lo == TruncatedSeries.from_poly(e_hi.poly_part(), k), (text, k)

    # valuation growth probe on the family with a positive band offset
    euler = RegularOperator.from_weyl(parse_operator("x*d0", 1))
    s = analyze_operator(euler).s
    rows = valuation_growth_probe(euler, [s + 2, s + 6, s + 10, s + 14], precision)
    assert all(row["within_bound"] for row in rows)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _passed(9, f"three operator families, 75 reconstructions, probes ({elapsed:.2f}s)")


def test_criterion_10_product_identity():
    rng = random.Random(90125)
    checked = 0
    while checked < 100:
        q = WeylOp.zero(1)
        for _ in range(rng.randint(1, 3)):
            xe = rng.randint(0, 3)
            de = rng.randint(0, 3)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if c:
                q = q + WeylOp(1, {((xe,), (de,)): c})
        b = MultiPoly.zero(1)
        for _ in range(rng.randint(0, 3)):
            b = b + MultiPoly.monomial(1, (rng.randint(0, 3),), rng.randint(-5, 5))
        if not q:
            continue
        _, _, residual = check_euler_identity(q, b)
        assert not residual
        checked += 1
    _passed(10, "adjoint product identity on 100 randomized operator pairs")
