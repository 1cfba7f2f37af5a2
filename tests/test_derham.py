"""De Rham tables: closed forms, the truncation engine, and their agreement."""

import math
from itertools import combinations

import pytest

import socle.derham
from socle.catalog import PROFILES
from socle.errors import (
    EmptyComplexError,
    InconsistentSequenceError,
    UnsupportedSpecError,
)
from socle.derham import (
    DeRhamDims,
    DirectSum,
    HypersurfaceLocalization,
    InjectiveHull,
    MonomialLocalization,
    PolynomialRing,
    RankOneConnection,
    assemble_complex,
    completion_flattening,
    derham_closed_form,
    derham_rank_one,
    derham_truncated,
    jacobian_ring_is_finite,
    les_splice,
    spec_from_json,
    spec_to_json,
)
from socle.grammar import parse_poly
from socle.linalg import GradedMatrix
from socle.series import TruncatedSeries
from socle.structure import predict


def test_closed_form_polynomial_ring():
    for n in range(1, 4):
        dims = list(derham_closed_form(PolynomialRing(n)))
        assert dims == [1] + [0] * n


def test_closed_form_injective_hull():
    for n in range(1, 4):
        dims = list(derham_closed_form(InjectiveHull(n)))
        assert dims == [0] * n + [1]


def test_closed_form_monomial_binomials():
    for n in range(1, 4):
        for size in range(0, n + 1):
            for subset in combinations(range(n), size):
                spec = MonomialLocalization(n, frozenset(subset))
                dims = list(derham_closed_form(spec))
                assert dims == [math.comb(size, j) for j in range(n + 1)]


def test_closed_form_direct_sum_is_additive():
    ds = DirectSum((InjectiveHull(2), PolynomialRing(2), InjectiveHull(2)))
    assert list(derham_closed_form(ds)) == [1, 0, 2]


def test_truncated_engine_matches_closed_forms():
    for n in range(1, 4):
        specs = [PolynomialRing(n)]
        for size in range(1, n + 1):
            for subset in combinations(range(n), size):
                specs.append(MonomialLocalization(n, frozenset(subset)))
        for spec in specs:
            want = list(derham_closed_form(spec))
            dims, report = derham_truncated(spec, pole_cutoff=4)
            assert list(dims) == want, spec
            assert report.certificate in ("exact", "stabilized")


def test_truncated_injective_hull_small():
    for n in (1, 2):
        dims, report = derham_truncated(InjectiveHull(n), pole_cutoff=4)
        assert list(dims) == [0] * n + [1]
        assert report.certificate == "exact"


def test_injective_hull_via_splice():
    # 0 -> A -> A_x -> E -> 0 over one variable: splice the quotient dims
    sub = list(derham_closed_form(PolynomialRing(1)))
    total, _ = derham_truncated(MonomialLocalization(1, frozenset({0})), 4)
    quotient = les_splice(sub, list(total), [0, 0])
    assert list(quotient) == list(derham_closed_form(InjectiveHull(1)))


def test_differential_squares_to_zero():
    cases = [
        (spec_from_json({"kind": "loc-quot", "f": "x^2 + y^2"}), 3, 0),
        (spec_from_json({"kind": "loc", "f": "x^3 + y^3 + z^3"}), 2, 0),
        (MonomialLocalization(2, frozenset({0, 1})), 3, 0),
        (InjectiveHull(2), 3, 0),
        (PolynomialRing(2), 3, 1),
    ]
    for spec, cutoff, tau in cases:
        bases, diffs, _ = assemble_complex(spec, cutoff, tau)
        for j in range(len(diffs) - 1):
            assert diffs[j + 1].compose(diffs[j]).is_zero(), (spec, j)


def test_filtration_inclusion_is_a_chain_map():
    """Multiplying numerators by f commutes with the pole differential."""
    f = parse_poly("x^2 + y^2", 2)
    spec = HypersurfaceLocalization(f)
    lo, hi = 3, 4
    bases_lo, diffs_lo, _ = assemble_complex(spec, lo, 0)
    bases_hi, diffs_hi, _ = assemble_complex(spec, hi, 0)
    iotas = []
    for j, base in enumerate(bases_lo):
        hi_index = {label: i for i, label in enumerate(bases_hi[j])}
        columns = []
        for (index_set, exp) in base:
            col = {}
            for fexp, c in f.terms.items():
                target = tuple(e + fe for e, fe in zip(exp, fexp))
                col[hi_index[(index_set, target)]] = c
            columns.append(col)
        iotas.append(
            GradedMatrix.from_columns(list(bases_hi[j]), list(base), columns)
        )
    for j in range(len(diffs_lo)):
        left = diffs_hi[j].compose(iotas[j])
        right = iotas[j + 1].compose(diffs_lo[j])
        assert left.entries == right.entries


def test_nonzero_weights_contribute_nothing():
    # widening the weight window around the limit classes adds no dimensions
    spec = MonomialLocalization(1, frozenset({0}))
    narrow, _ = derham_truncated(spec, 5)
    wide, report = derham_truncated(spec, 5, degree_window=(-2, 2))
    assert list(narrow) == list(wide) == [1, 1]
    assert report.stabilized


def test_empty_window_raises():
    with pytest.raises(EmptyComplexError):
        derham_truncated(InjectiveHull(1), 3, degree_window=(4, 4))


def test_direct_sum_rejected_by_truncation_engine():
    with pytest.raises(UnsupportedSpecError):
        derham_truncated(DirectSum((PolynomialRing(1),)), 4)


def test_les_splice_frozen():
    dims = les_splice([1, 0], [1, 1], [0, 0])
    assert list(dims) == [0, 1]


def test_les_splice_rejects_impossible_data():
    with pytest.raises(InconsistentSequenceError):
        les_splice([0, 0], [1, 1], [5, 0])
    with pytest.raises(InconsistentSequenceError):
        les_splice([2, 0], [1, 1], [0, 0])  # sub cannot inject
    with pytest.raises(InconsistentSequenceError):
        les_splice([1, 0], [1, 1], [0])  # length mismatch


def test_rank_one_dims():
    assert list(derham_rank_one(parse_poly("0", 1))) == [1, 0]
    assert list(derham_rank_one(parse_poly("7", 1))) == [0, 0]
    assert list(derham_rank_one(parse_poly("x", 1))) == [0, 1]
    assert list(derham_rank_one(parse_poly("x^2", 1))) == [0, 2]
    assert list(derham_rank_one(parse_poly("x^2 - 3*x + 1", 1))) == [0, 2]


def test_completion_flattening_frozen():
    p = parse_poly("x^2", 1)
    u7 = completion_flattening(p, 7)
    assert u7.poly_part() == parse_poly("1 - 1/3*x^3 + 1/18*x^6", 1)
    u10 = completion_flattening(p, 10)
    assert u10.poly_part() == parse_poly("1 - 1/3*x^3 + 1/18*x^6 - 1/162*x^9", 1)
    # defining property: u' + p u = 0 at the stated precision
    residual = u10.differentiate(0) + u10 * p
    assert residual == TruncatedSeries.zero(1, 9)


def test_completion_flattening_against_independent_exponential():
    p = parse_poly("x^2 + x", 1)
    u = completion_flattening(p, 8)
    minus_integral = TruncatedSeries.from_poly(p, 8).integrate(0) * (-1)
    # integration bumps the precision by one, so compare through degree 7
    assert u.agrees_with(minus_integral.exp(), through_degree=7)


def test_jacobian_gate():
    assert jacobian_ring_is_finite(parse_poly("x^3 + y^3 + z^3", 3))
    assert jacobian_ring_is_finite(parse_poly("x^2 + y^2 + z^2", 3))
    assert jacobian_ring_is_finite(parse_poly("z*y^2 - x^3 + x*z^2", 3))
    assert jacobian_ring_is_finite(parse_poly("x*y - z*w", 4))
    # two points in the projective line are smooth; the same pair of planes
    # in three variables crosses itself and is not
    assert jacobian_ring_is_finite(parse_poly("x*y", 2))
    assert not jacobian_ring_is_finite(parse_poly("x*y", 3))
    assert not jacobian_ring_is_finite(parse_poly("x^3 - y^2*z", 3))


def test_spec_json_round_trip():
    specs = [
        PolynomialRing(2),
        InjectiveHull(3),
        MonomialLocalization(3, frozenset({0, 2})),
        spec_from_json({"kind": "loc-quot", "f": "x^3 + y^3 + z^3"}),
        RankOneConnection(parse_poly("x^2", 1)),
        DirectSum((PolynomialRing(1), InjectiveHull(1))),
    ]
    for spec in specs:
        # specs with polynomial fields deliberately skip __eq__; the JSON
        # form is their canonical identity
        assert spec_to_json(spec_from_json(spec_to_json(spec))) == spec_to_json(spec)


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedSpecError):
        spec_from_json({"kind": "mystery"})


def test_derham_dims_hash_agrees_with_tuple_equality():
    dims = DeRhamDims((0, 1))
    assert dims == (0, 1)
    assert hash(dims) == hash((0, 1))
    assert {(0, 1): "table"}[dims] == "table"
    assert len({dims, DeRhamDims((0, 1)), (0, 1)}) == 1


def test_each_cutoff_complex_is_assembled_once(monkeypatch):
    # the pairs (K-2, K-1) and (K-1, K) share the cutoff K-1 complex
    cases = [
        (spec_from_json({"kind": "loc-quot", "f": "x^2 + y^2 + z^2"}), 6, [0, 1, 0, 0]),
        (MonomialLocalization(2, frozenset({0, 1})), 4, [1, 2, 1]),
    ]
    original = socle.derham.assemble_complex
    for spec, cutoff, want_dims in cases:
        calls = []

        def counting(spec, cutoff, tau):
            calls.append((cutoff, tau))
            return original(spec, cutoff, tau)

        monkeypatch.setattr(socle.derham, "assemble_complex", counting)
        dims, report = derham_truncated(spec, cutoff)
        monkeypatch.undo()
        assert sorted(calls) == [(k, 0) for k in range(cutoff - 2, cutoff + 1)]
        assert list(dims) == want_dims
        assert (dims, report) == derham_truncated(spec, cutoff)
        assert report.certificate == "stabilized"


@pytest.mark.slow
def test_fermat_cubic_surface_matches_prediction():
    spec = spec_from_json({"kind": "loc-quot", "f": "x^3 + y^3 + z^3 + w^3"})
    dims, report = derham_truncated(spec, 4)
    want = predict(PROFILES["cubic-surface-p3"].profile).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 6, 6]
    assert report.certificate == "stabilized"
