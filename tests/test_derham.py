"""De Rham tables: closed forms, the truncation engine, and their agreement."""

import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import socle.derham
from socle.catalog import PROFILES
from socle.errors import (
    DomainError,
    EmptyComplexError,
    InconsistentSequenceError,
    InternalCheckError,
    UnsupportedSpecError,
)
from socle.derham import (
    DeRhamDims,
    HypersurfaceLocalization,
    InjectiveHull,
    MonomialLocalization,
    PolynomialRing,
    assemble_complex,
    completion_flattening,
    derham_closed_form,
    derham_rank_one,
    derham_truncated,
    jacobian_ring_is_finite,
    les_splice,
    spec_from_json,
)
from socle.grammar import parse_poly
from socle.linalg import _content_free, rank_of_columns
from socle.poly import MultiPoly, _scaled, graded_piece_basis
from socle.series import TruncatedSeries
from socle.structure import BettiProfile, predict


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


@pytest.mark.parametrize("cutoff", [3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cutoff_free_specs_over_a_weight_window(n, cutoff):
    # R and E ignore the cutoff: one pass over weights -2..2 is exact, and
    # every nonzero weight (R has them at tau = 1, 2) adds nothing
    for spec in (PolynomialRing(n), InjectiveHull(n)):
        dims, report = derham_truncated(spec, cutoff, degree_window=(-2, 2))
        assert dims == derham_closed_form(spec), spec
        assert report.certificate == "exact"
        assert report.cutoffs == (cutoff, cutoff)


@pytest.mark.parametrize("n, tau", [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4)])
def test_ring_differential_is_the_exterior_derivative(n, tau):
    # d(x^e dx_I) = sum_i e_i x^(e - 1_i) dx_i ^ dx_I, written into the
    # sorted index set with the sign of moving dx_i past the smaller indices
    bases, diffs, incls = assemble_complex(PolynomialRing(n), 4, tau)
    assert incls is None
    for j in range(n + 1):
        assert bases[j] == [
            (I, e) for I in combinations(range(n), j) for e in graded_piece_basis(tau - j, n)
        ]
    for j, d in enumerate(diffs):
        assert (d.cols, d.rows) == (bases[j], bases[j + 1])
        row = {label: r for r, label in enumerate(bases[j + 1])}
        want = {}
        for col, (I, e) in enumerate(bases[j]):
            for i in range(n):
                if i in I or not e[i]:
                    continue
                sign = (-1) ** sum(1 for k in I if k < i)
                target = (tuple(sorted(I + (i,))), e[:i] + (e[i] - 1,) + e[i + 1:])
                want[(row[target], col)] = Fraction(sign * e[i])
        assert list(d.entries.items()) == list(want.items())
        assert all(type(v) is Fraction for v in d.entries.values())


def test_ring_and_hull_reject_negative_variable_counts():
    for kind in (PolynomialRing, InjectiveHull):
        with pytest.raises(DomainError, match="-1"):
            kind(-1)


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


def engine_piece(spec, cutoff, tau, width_cutoff=None):
    """The piece ``derham_truncated`` ranks: the primitive integer multiple of
    f, keys wide enough for cutoffs up to ``width_cutoff`` (default: this one)."""
    f = _content_free(_scaled(spec.pole_terms())[0])
    width = socle.derham._key_width(spec.n_vars, f, width_cutoff or cutoff, (tau, tau))
    return socle.derham._Piece(spec, f, cutoff, tau, width)


def d_map(piece, j):
    """d_j of a piece as {key: column} over its whole basis."""
    keys = piece.keys[j]
    return dict(zip(keys, piece.d_columns(j, range(len(keys)))))


def apply(linear_map, vector):
    """The image of a {key: c} vector under a {key: column} map, zeros dropped."""
    out = {}
    for key, c in vector.items():
        for row, v in linear_map[key].items():
            out[row] = out.get(row, 0) + c * v
    return {row: v for row, v in out.items() if v}


def inclusion(lo, hi, j, f):
    """The chain map F_lo -> F_hi in form degree j as {key: column}, built
    from labels: (I, e) goes to (I, e + a) with weight c_a for each term c_a x^a
    of f."""
    key_at = dict(zip(hi.labels(j), hi.keys[j]))
    return {
        key: {key_at[(I, tuple(x + y for x, y in zip(e, a)))]: c for a, c in f.items()}
        for (I, e), key in zip(lo.labels(j), lo.keys[j])
    }


def test_differential_squares_to_zero():
    cases = [
        (spec_from_json({"kind": "loc-quot", "f": "x^2 + y^2"}), 3, 0),
        (spec_from_json({"kind": "loc", "f": "x^3 + y^3 + z^3"}), 2, 0),
        (MonomialLocalization(2, frozenset({0, 1})), 3, 0),
        (InjectiveHull(2), 3, 0),
        (PolynomialRing(2), 3, 1),
    ]
    for spec, cutoff, tau in cases:
        piece = engine_piece(spec, cutoff, tau)
        assert any(piece.keys), spec
        for j in range(spec.n_vars - 1):
            d_next = d_map(piece, j + 1)
            for key, col in d_map(piece, j).items():
                assert apply(d_next, col) == {}, (spec, j, key)


def test_filtration_inclusion_is_a_chain_map():
    """Multiplying numerators by f commutes with the pole differential."""
    lo_cut, hi_cut = 3, 4
    for spec in (
        HypersurfaceLocalization(parse_poly("x^2 + y^2", 2)),
        HypersurfaceLocalization(parse_poly("x^2 + 2*y^2 - x*y", 2)),
        MonomialLocalization(3, frozenset({0, 2})),
    ):
        lo, hi = (engine_piece(spec, cut, 0, hi_cut) for cut in (lo_cut, hi_cut))
        n = spec.n_vars
        iotas = [inclusion(lo, hi, j, lo.f) for j in range(n + 1)]
        for j in range(n):
            d_lo, d_hi = d_map(lo, j), d_map(hi, j)
            for key in lo.keys[j]:
                left = apply(d_hi, iotas[j][key])
                assert left == apply(iotas[j + 1], d_lo[key]), (spec, j, key)
                # i is injective, so the check never compares two empty images
                assert bool(left) == bool(d_lo[key])


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


def test_spec_from_json_builds_each_kind():
    assert spec_from_json({"kind": "R", "vars": 2}) == PolynomialRing(2)
    assert spec_from_json({"kind": "E", "vars": 3}) == InjectiveHull(3)
    # a squarefree monomial under loc is a monomial localization, in the
    # declared variables when given
    spec = spec_from_json({"kind": "loc", "f": "x0*x2", "vars": 4})
    assert spec == MonomialLocalization(4, frozenset({0, 2}))
    assert spec.n_vars == 4
    assert spec_from_json({"kind": "loc", "f": "x*z"}) == MonomialLocalization(3, frozenset({0, 2}))
    # any other f, and any f under loc-quot, is a hypersurface; specs with
    # polynomial fields skip __eq__, so compare their fields
    for data, f_text, n, quotient in [
        ({"kind": "loc", "f": "x^2 + y^2 + z^2"}, "x^2 + y^2 + z^2", 3, False),
        ({"kind": "loc", "f": "2*x*y", "vars": 2}, "2*x*y", 2, False),
        ({"kind": "loc", "f": "x^2*y"}, "x^2*y", 2, False),
        ({"kind": "loc-quot", "f": "x^3 + y^3 + z^3"}, "x^3 + y^3 + z^3", 3, True),
        ({"kind": "loc-quot", "f": "x*y*z"}, "x*y*z", 3, True),
    ]:
        spec = spec_from_json(data)
        assert type(spec) is HypersurfaceLocalization
        assert spec.f == parse_poly(f_text, n)
        assert spec.n_vars == n
        assert spec.quotient_mod_A is quotient


@pytest.mark.parametrize(
    "data, field",
    [
        ({"kind": "R"}, "vars"),
        ({"kind": "E", "f": "x"}, "vars"),
        ({"kind": "loc"}, "f"),
        ({"kind": "loc-quot", "vars": 3}, "f"),
        ({"kind": "R", "vars": "2"}, "vars"),
        ({"kind": "E", "vars": 2.0}, "vars"),
        ({"kind": "R", "vars": True}, "vars"),
        ({"kind": "loc", "f": 3}, "f"),
        ({"kind": "loc", "f": "x*y", "vars": "2"}, "vars"),
        # R and E read no f, so they refuse one
        ({"kind": "R", "vars": 2, "f": "x $ y"}, "f"),
        ({"kind": "E", "vars": 2, "f": "x"}, "f"),
    ],
)
def test_spec_from_json_names_a_missing_or_ill_typed_field(data, field):
    with pytest.raises(UnsupportedSpecError, match=repr(field)):
        spec_from_json(data)


@st.composite
def monomial_localizations(draw):
    """A localization at a nonempty set of at most three variables."""
    n = draw(st.integers(1, 3))
    return MonomialLocalization(n, frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1))))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(monomial_localizations())
def test_monomial_localization_runs_as_the_hypersurface_of_its_product(spec):
    # the engine builds a monomial localization as the pole complex of x_S;
    # only the certificate rule differs, so compare everything else
    twin = HypersurfaceLocalization(spec.product())
    assert twin.n_vars == spec.n_vars
    for cutoff in (2, 3):
        dims, report = derham_truncated(spec, cutoff, degree_window=(-1, 1))
        twin_dims, twin_report = derham_truncated(twin, cutoff, degree_window=(-1, 1))
        assert dims == twin_dims
        assert report.dims_low == twin_report.dims_low
        assert report.cutoffs == twin_report.cutoffs
        assert report.smooth == twin_report.smooth


@pytest.mark.parametrize("kind", ["mystery", "rank-one", "sum"])
def test_unknown_kind_rejected(kind):
    # rank-one connections run through derham_rank_one, not a module spec
    with pytest.raises(UnsupportedSpecError):
        spec_from_json({"kind": kind, "f": "x^2", "parts": []})


def test_derham_dims_hash_agrees_with_tuple_equality():
    dims = DeRhamDims((0, 1))
    assert dims == (0, 1)
    assert hash(dims) == hash((0, 1))
    assert {(0, 1): "table"}[dims] == "table"
    assert len({dims, DeRhamDims((0, 1)), (0, 1)}) == 1
    # a tuple, so a list never compares equal
    assert dims != [0, 1]
    assert (len(dims), dims[1], list(dims), dims.euler) == (2, 1, [0, 1], -1)
    # entries are coerced to int, and a negative one is refused
    assert all(type(d) is int for d in DeRhamDims([Fraction(2), True]))
    with pytest.raises(DomainError):
        DeRhamDims((1, -1))


def test_each_cutoff_complex_is_assembled_once(monkeypatch):
    # the pairs (K-2, K-1) and (K-1, K) share the cutoff K-1 complex: each
    # (cutoff, position) set of d columns is built once, and each
    # per-complex rank r(K, j) is eliminated once; a low end gets its cycle
    # images from those eliminations, so no piece builds d_n
    cases = [
        (spec_from_json({"kind": "loc-quot", "f": "x^2 + y^2 + z^2"}), 6, [0, 1, 0, 0]),
        (MonomialLocalization(2, frozenset({0, 1})), 4, [1, 2, 1]),
    ]
    piece = socle.derham._Piece
    d_columns, eliminate = piece.d_columns, piece._eliminate
    for spec, cutoff, want_dims in cases:
        built, eliminated = [], []

        def counting_columns(self, j, kept, *tails):
            built.append((self.cutoff, self.tau, j))
            return d_columns(self, j, kept, *tails)

        def counting_eliminate(self, j):
            eliminated.append((self.cutoff, self.tau, j))
            return eliminate(self, j)

        monkeypatch.setattr(piece, "d_columns", counting_columns)
        monkeypatch.setattr(piece, "_eliminate", counting_eliminate)
        dims, report = derham_truncated(spec, cutoff)
        monkeypatch.undo()
        n = len(want_dims) - 1
        cutoffs = range(cutoff - 2, cutoff + 1)
        assert sorted(eliminated) == [(k, 0, j) for k in cutoffs for j in range(n + 1)]
        assert sorted(built) == [(k, 0, j) for k in cutoffs for j in range(n)]
        assert list(dims) == want_dims
        assert (dims, report) == derham_truncated(spec, cutoff)
        assert report.certificate == "stabilized"


def test_scaling_f_changes_no_table():
    # rational coefficients run through assembly end to end
    for text in ("x^2 + y^2 + z^2", "x^3 + y^3 + z^3"):
        f = parse_poly(text, 3)
        plain = derham_truncated(HypersurfaceLocalization(f, quotient_mod_A=True), 5)
        scaled = derham_truncated(
            HypersurfaceLocalization(f * Fraction(3, 7), quotient_mod_A=True), 5
        )
        assert scaled == plain, text


def test_fermat_cubic_surface_matches_prediction():
    spec = spec_from_json({"kind": "loc-quot", "f": "x^3 + y^3 + z^3 + w^3"})
    dims, report = derham_truncated(spec, 4)
    want = predict(PROFILES["cubic-surface-p3"].profile).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 6, 6]
    assert report.certificate == "stabilized"


def test_fermat_quartic_surface_matches_prediction():
    spec = spec_from_json({"kind": "loc-quot", "f": "x^4 + y^4 + z^4 + w^4"})
    dims, report = derham_truncated(spec, 3)
    want = predict(BettiProfile(3, 2, (1, 0, 22, 0, 1))).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 21, 21]
    assert report.certificate == "stabilized"


def test_cubic_threefold_matches_prediction():
    spec = spec_from_json({"kind": "loc-quot", "f": "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"})
    dims, report = derham_truncated(spec, 3)
    want = predict(BettiProfile(4, 3, (1, 0, 1, 10, 1, 0, 1))).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 0, 10, 10]
    assert report.certificate == "stabilized"


@pytest.mark.slow
def test_quartic_threefold_matches_prediction():
    spec = spec_from_json({"kind": "loc-quot", "f": "x0^4 + x1^4 + x2^4 + x3^4 + x4^4"})
    dims, report = derham_truncated(spec, 3)
    want = predict(BettiProfile(4, 3, (1, 0, 1, 60, 1, 0, 1))).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 0, 60, 60]
    assert report.certificate == "stabilized"


# ------------------------------------------------- property tests (hypothesis)


@st.composite
def hypersurfaces(draw):
    """A homogeneous f with rational coefficients, in loc or loc-quot mode.

    f has at most three variables and degree at most three, and its support
    is drawn from the monomials in a random subset of the variables, so f
    often leaves a variable out.
    """
    n = draw(st.integers(1, 3))
    used = draw(st.sets(st.integers(0, n - 1), min_size=1))
    monomials = [
        e
        for e in graded_piece_basis(draw(st.integers(1, 3)), n)
        if all(e[i] == 0 for i in range(n) if i not in used)
    ]
    support = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    coefficient = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    f = MultiPoly(n, {e: draw(coefficient) for e in support})
    return HypersurfaceLocalization(f, quotient_mod_A=draw(st.booleans()))


@st.composite
def pole_complex_pieces(draw):
    """A random hypersurface spec and one piece of its complex."""
    return draw(hypersurfaces()), draw(st.integers(1, 3)), draw(st.integers(-1, 1))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(pole_complex_pieces())
def test_assembled_columns_match_polynomial_products(case):
    spec, cutoff, tau = case
    n = spec.n_vars
    piece = engine_piece(spec, cutoff, tau)
    # the engine's f is the primitive integer multiple of the spec's
    f = MultiPoly(n, piece.f)
    e0, c0 = next(iter(piece.f.items()))
    assert f == spec.f * (c0 / spec.f.terms[e0])
    label_at = [dict(zip(piece.keys[j], piece.labels(j))) for j in range(n + 1)]
    for j in range(n):
        k = cutoff + j
        labels = piece.labels(j)
        for (I, e), col in zip(labels, piece.d_columns(j, range(len(labels)))):
            assert all(type(c) is int for c in col.values())
            # numerator of d(g/f^k) in direction i is f dg/dx_i - k g df/dx_i
            g = MultiPoly.monomial(n, e)
            want = {}
            for i in range(n):
                if i in I:
                    continue
                sign = -1 if sum(1 for m in I if m < i) % 2 else 1
                J = tuple(sorted(I + (i,)))
                numer = f * g.partial_derivative(i) - k * g * f.partial_derivative(i)
                want.update({(J, exp): sign * c for exp, c in numer.terms.items()})
            assert {label_at[j + 1][r]: c for r, c in col.items()} == want
    for j in range(n - 1):
        d_next = d_map(piece, j + 1)
        assert all(apply(d_next, col) == {} for col in d_map(piece, j).values())
    # the one polynomial form the engine takes out, 1 = f^K / f^K in degree 0
    # at weight 0 in quotient mode, is the pivot vector of r(0)
    pivots = piece.take(0)
    if spec.quotient_mod_A and tau == 0:
        (col,) = pivots.values()
        want = {((), exp): c for exp, c in (f**cutoff).terms.items()}
        assert {label_at[0][r]: c for r, c in col.items()} == want
    else:
        assert pivots == {}


@st.composite
def engine_pieces(draw):
    """A piece of any engine's complex: a random hypersurface (loc or
    loc-quot), R, or E at a weight that gives it negative exponents in
    several degrees, with keys as wide as a pair with the next cutoff uses."""
    kind = draw(st.sampled_from(("hypersurface", "R", "E")))
    cutoff = draw(st.integers(1, 3))
    if kind == "hypersurface":
        spec, tau = draw(hypersurfaces()), draw(st.integers(-1, 1))
    else:
        n = draw(st.integers(1, 3))
        spec = PolynomialRing(n) if kind == "R" else InjectiveHull(n)
        tau = draw(st.integers(-cutoff, 0))
    return spec, cutoff, tau


@settings(deadline=None, derandomize=True, max_examples=60)
@given(engine_pieces())
def test_piece_columns_follow_the_closed_form_at_their_keys(case):
    spec, cutoff, tau = case
    f = spec.pole_terms()
    n = spec.n_vars
    width = socle.derham._key_width(n, f, cutoff + 1, (tau, tau))
    piece = socle.derham._Piece(spec, f, cutoff, tau, width)
    for j in range(n + 1):
        labels = piece.labels(j)
        # keys are one-to-one, and each is mask(I) + code(e)
        assert len(set(piece.keys[j])) == len(labels)
        for (I, e), key in zip(labels, piece.keys[j]):
            assert key == sum(1 << i for i in I) + piece.code(e)
            if isinstance(spec, InjectiveHull):
                assert all(x <= -1 for x in e)
    for j in range(n):
        k = cutoff + j
        label_at = dict(zip(piece.keys[j + 1], piece.labels(j + 1)))
        labels = piece.labels(j)
        for (I, e), col in zip(labels, piece.d_columns(j, range(len(labels)))):
            want = {}
            for a, c in f.items():
                for i in range(n):
                    factor = e[i] - k * a[i]
                    if i in I or not factor:
                        continue
                    sign = -1 if sum(1 for m in I if m < i) % 2 else 1
                    target = tuple(x + y - (m == i) for m, (x, y) in enumerate(zip(e, a)))
                    want[(tuple(sorted(I + (i,))), target)] = sign * c * factor
            assert {label_at[r]: c for r, c in col.items()} == want


def polynomial_forms(spec, piece, j):
    """The polynomial j-forms x^a dx_I = x^a f^k dx_I / f^k (k = cutoff + j) of
    the piece's weight, at every weight, as columns built from labels and the
    spec's own f; none unless the spec is taken modulo them."""
    n = spec.n_vars
    if not spec.quotient_mod_A or j > n:
        return []
    f_k = MultiPoly(n, spec.pole_terms()) ** (piece.cutoff + j)
    key_at = dict(zip(piece.labels(j), piece.keys[j]))
    return [
        {key_at[(I, tuple(x + y for x, y in zip(a, b)))]: c for b, c in f_k.terms.items()}
        for I in combinations(range(n), j)
        for a in graded_piece_basis(piece.tau - j, n)
    ]


def plain_persistent_dims(spec, lo, hi, tau):
    """The persistence formula as plain ranks of the pieces' columns.

    rank H^j = rank M - rank[i(d C_lo,j) | A_hi,j+1] - rank[d C_hi,j-1 | A_hi,j],
    where M sends (u, w, a, b) to (i u + d w + a, i(d u) + b) and i is the
    chain map F_lo -> F_hi that multiplies numerators by the spec's own f,
    built from labels.  A is every polynomial form of the weight in quotient
    mode (``polynomial_forms``), so this ranks the honest quotient, and its
    agreement with the engine, which takes out only 1 at weight 0, checks
    that A is acyclic at every nonzero weight.  Rows are the packed keys,
    tagged 0 in the first block and 1 in the second.  Every rank is a fresh
    ``rank_of_columns`` call over whole bases: no clearing and no shared
    pivot state.
    """
    f = spec.pole_terms()
    n = spec.n_vars
    width = socle.derham._key_width(n, f, hi, (tau, tau))
    p_lo, p_hi = (socle.derham._Piece(spec, f, cut, tau, width) for cut in (lo, hi))
    # i multiplies numerators by f (1 for R and E), the identity at lo = hi
    iotas = [inclusion(p_lo, p_hi, j, f if lo < hi else {(0,) * n: 1}) for j in range(n + 1)]
    iotas.append({})

    def tagged(block, col):
        return {(block, r): c for r, c in col.items()}

    dims = []
    for j in range(n + 1):
        pushed = [apply(iotas[j + 1], col) for col in d_map(p_lo, j).values()]
        bottom = list(d_map(p_hi, j - 1).values()) if j else []
        bottom += polynomial_forms(spec, p_hi, j)
        a_next = polynomial_forms(spec, p_hi, j + 1)
        m = [
            {**tagged(0, iotas[j][key]), **tagged(1, d_u)}
            for key, d_u in zip(p_lo.keys[j], pushed)
        ]
        m += [tagged(0, col) for col in bottom] + [tagged(1, col) for col in a_next]
        dims.append(rank_of_columns(m) - rank_of_columns(pushed + a_next) - rank_of_columns(bottom))
    return dims


def plain_window_dims(spec, lo, hi, window):
    total = [0] * (spec.n_vars + 1)
    for tau in range(window[0], window[1] + 1):
        for j, h in enumerate(plain_persistent_dims(spec, lo, hi, tau)):
            total[j] += h
    return tuple(total)


@st.composite
def truncation_inputs(draw):
    """A spec of any kind the engine assembles, a cutoff of at most 5 and a
    weight window around 0 that often holds nonzero weights."""
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("hypersurface", "R", "E", "monomial")))
    if kind == "hypersurface":
        spec = draw(hypersurfaces())
    elif kind == "R":
        spec = PolynomialRing(n)
    elif kind == "E":
        spec = InjectiveHull(n)
    else:
        spec = MonomialLocalization(n, frozenset(i for i in range(n) if draw(st.booleans())))
    window = (draw(st.integers(-2, 0)), draw(st.integers(0, 2)))
    return spec, draw(st.integers(1, 5)), window


@settings(deadline=None, derandomize=True, max_examples=60)
@given(truncation_inputs())
def test_truncated_tables_match_the_plain_rank_formula(case):
    # cleared integer ranks, shared per complex, against plain ranks of
    # the pieces' columns with the pushed block i(d u)
    spec, cutoff, window = case
    dims, report = derham_truncated(spec, cutoff, degree_window=window)
    assert list(dims) == list(plain_window_dims(spec, *report.cutoffs, window))
    low = report.cutoffs if cutoff < 3 or report.certificate == "exact" else (cutoff - 2, cutoff - 1)
    assert report.dims_low == plain_window_dims(spec, *low, window)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(truncation_inputs())
def test_cycle_images_count_the_low_cohomology(case):
    # Z_A ∩ span kept meets B + A only in 0, so a low end hands over exactly
    # dim H^j(F_lo) cycle images; and each pair's table is the oracle's
    spec, cutoff, window = case
    piece = socle.derham._Piece
    cycle_images, persistent_dims = piece.cycle_images, socle.derham._persistent_dims
    counts, tables = {}, {}

    def counting_images(self, j):
        images = cycle_images(self, j)
        counts[(self.cutoff, self.tau, j)] = len(images)
        return images

    def recording_dims(lo, hi):
        dims = persistent_dims(lo, hi)
        tables[(lo.cutoff, hi.cutoff, lo.tau)] = dims
        return dims

    with mock.patch.object(piece, "cycle_images", counting_images), mock.patch.object(
        socle.derham, "_persistent_dims", recording_dims
    ):
        derham_truncated(spec, cutoff, degree_window=window)
    taus = range(window[0], window[1] + 1)
    lows = {lo for lo, _, _ in tables}
    assert sorted(counts) == sorted(
        (lo, tau, j) for lo in lows for tau in taus for j in range(spec.n_vars + 1)
    )
    own = {(lo, tau): plain_persistent_dims(spec, lo, lo, tau) for lo in lows for tau in taus}
    for (lo, tau, j), count in counts.items():
        assert count == own[(lo, tau)][j], (lo, tau, j)
    for (lo, hi, tau), dims in tables.items():
        assert dims == plain_persistent_dims(spec, lo, hi, tau), (lo, hi, tau)


@st.composite
def quotient_inputs(draw):
    """A random f, a cutoff of at most 4 and a weight window near 0 that
    sometimes leaves 0 out; every window holds a weight >= -1, so the
    complex is never empty."""
    low = draw(st.integers(-2, 1))
    window = (low, draw(st.integers(max(low, -1), 2)))
    return draw(hypersurfaces()).f, draw(st.integers(1, 4)), window


@settings(deadline=None, derandomize=True, max_examples=60)
@given(quotient_inputs())
def test_quotient_table_is_the_localization_table_less_the_class_of_one(case):
    # 0 -> A -> A_f -> A_f/A -> 0 with H(A) = k in degree 0, at every cutoff
    f, cutoff, window = case
    dims, report = derham_truncated(HypersurfaceLocalization(f), cutoff, degree_window=window)
    quotient = HypersurfaceLocalization(f, quotient_mod_A=True)
    q_dims, q_report = derham_truncated(quotient, cutoff, degree_window=window)
    one = int(window[0] <= 0 <= window[1])

    def less_one(table):
        return (table[0] - one, *table[1:])

    assert q_dims == less_one(dims)
    # the JSON record: cutoffs, window, low table, certificate and gate
    assert q_report.to_json() == {**report.to_json(), "dims_at_low_cutoff": list(less_one(report.dims_low))}


def test_a_lost_tail_is_an_internal_error(monkeypatch):
    # with the tails dropped, a cycle of the low complex reduces to 0 in
    # r(lo, j+1), which the independence check refuses
    d_columns = socle.derham._Piece.d_columns
    monkeypatch.setattr(
        socle.derham._Piece, "d_columns", lambda self, j, kept, tails=False: d_columns(self, j, kept)
    )
    with pytest.raises(InternalCheckError, match="lost its tail"):
        derham_truncated(MonomialLocalization(2, frozenset({0, 1})), 4)
