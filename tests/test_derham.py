"""De Rham tables: closed forms, the truncation engine, and their agreement."""

import math
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import socle.derham
from socle.catalog import HYPERSURFACES, PROFILES
from socle.errors import (
    DomainError,
    InconsistentSequenceError,
    InternalCheckError,
    UnsupportedSpecError,
)
from socle.derham import (
    DeRhamDims,
    InjectiveHull,
    Localization,
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
from socle.linalg import _reduce_into, rank_of_columns
from socle.poly import MultiPoly, graded_piece_basis
from socle.series import TruncatedSeries
from socle.structure import BettiProfile, predict


def ring(n):
    """R in n variables, the localization at 1."""
    return Localization(MultiPoly.one(n))


def monomial_localization(n, inverted):
    """The localization at the product x_S of the variables in ``inverted``."""
    return Localization(MultiPoly.monomial(n, [int(i in inverted) for i in range(n)]))


def test_closed_form_polynomial_ring():
    for n in range(1, 4):
        dims = list(derham_closed_form(ring(n)))
        assert dims == [1] + [0] * n


def test_closed_form_injective_hull():
    for n in range(1, 4):
        dims = list(derham_closed_form(InjectiveHull(n)))
        assert dims == [0] * n + [1]


def test_closed_form_monomial_binomials():
    for n in range(1, 4):
        for size in range(0, n + 1):
            for subset in combinations(range(n), size):
                spec = monomial_localization(n, subset)
                dims = list(derham_closed_form(spec))
                assert dims == [math.comb(size, j) for j in range(n + 1)]


def test_truncated_engine_matches_closed_forms():
    for n in range(1, 4):
        specs = [ring(n)]
        for size in range(1, n + 1):
            for subset in combinations(range(n), size):
                specs.append(monomial_localization(n, subset))
        for spec in specs:
            want = list(derham_closed_form(spec))
            dims, report = derham_truncated(spec, pole_cutoff=4)
            assert list(dims) == want, spec
            assert report.certificate in ("exact", "stabilized")


@pytest.mark.parametrize("cutoff", [3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cutoff_free_specs_over_a_weight_window(n, cutoff):
    # R and E ignore the cutoff: one pass at weight 0 is exact, and every
    # nonzero weight -2..2 (R has them at tau = 1, 2), ranked on the engine's
    # pieces, adds nothing
    for spec in (ring(n), InjectiveHull(n)):
        dims, report = derham_truncated(spec, cutoff)
        assert dims == derham_closed_form(spec), spec
        assert report.certificate == "exact"
        assert report.cutoffs == (cutoff, cutoff)
        for tau in (-2, -1, 1, 2):
            assert engine_tables(spec, [(cutoff, cutoff)], tau) == [[0] * (n + 1)], (spec, tau)


@pytest.mark.parametrize("n, tau", [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4)])
def test_ring_differential_is_the_exterior_derivative(n, tau):
    # d(x^e dx_I) = sum_i e_i x^(e - 1_i) dx_i ^ dx_I, written into the
    # sorted index set with the sign of moving dx_i past the smaller indices
    bases, diffs, incls = assemble_complex(ring(n), 4, tau)
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
                want[(row[target], col)] = sign * e[i]
        assert d.entries == want
        assert all(type(v) is int for v in d.entries.values())


def test_ring_and_hull_reject_negative_variable_counts():
    # every kind checks the count before its kind branch, so a localization
    # never hands a negative count to the grammar
    cases = [{"kind": kind, "vars": -1} for kind in ("R", "E")]
    cases += [{"kind": kind, "f": text, "vars": -1} for kind in ("loc", "loc-quot") for text in ("x", "1")]
    for data in cases:
        with pytest.raises(DomainError, match="the variable count must be nonnegative, got -1"):
            spec_from_json(data)
    with pytest.raises(DomainError, match="-1"):
        InjectiveHull(-1)


def test_truncated_injective_hull_small():
    for n in (1, 2):
        dims, report = derham_truncated(InjectiveHull(n), pole_cutoff=4)
        assert list(dims) == [0] * n + [1]
        assert report.certificate == "exact"


@pytest.mark.parametrize("cutoff", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_injective_hull_piece_past_its_cutoff_is_empty(n, cutoff):
    # E's x^e dx_I, every e_i <= -1, lie in the piece of weight tau only
    # while -tau <= cutoff: past it every degree is empty, and the table,
    # ranked on no columns, is 0; at tau = -cutoff the n-forms of deg e =
    # -cutoff - n are there
    spec = InjectiveHull(n)
    for low_end in (False, True):
        past = engine_piece(spec, cutoff, -cutoff - 1, cutoff + 1, low_end)
        assert not any(past.keys)
        assert socle.derham._piece_dims(past) == [0] * (n + 1)
        if low_end:
            assert all(past.cycle_images(j) == [] for j in range(n + 1))
    assert engine_piece(spec, cutoff, -cutoff).keys[n]


def test_injective_hull_via_splice():
    # 0 -> A -> A_x -> E -> 0 over one variable: splice the quotient dims
    sub = list(derham_closed_form(ring(1)))
    total, _ = derham_truncated(monomial_localization(1, {0}), 4)
    quotient = les_splice(sub, list(total), [0, 0])
    assert list(quotient) == list(derham_closed_form(InjectiveHull(1)))


def engine_piece(spec, cutoff, tau, width_cutoff=None, low_end=False, torus=False):
    """The piece ``derham_truncated`` ranks: the primitive integer multiple of
    f, keys wide enough for cutoffs up to ``width_cutoff`` (default: this one),
    the low end of a pair with ``low_end``, and with ``torus`` only the block
    of f's torus (``_torus_block``), else the whole piece."""
    f = spec.pole_terms()
    width = socle.derham._key_width(spec.n_vars, f, width_cutoff or cutoff, tau)
    block = socle.derham._torus_block(f) if torus else None
    return socle.derham._Piece(spec, f, cutoff, tau, width, low_end, block)


def engine_pairs(report):
    """The pairs of cutoffs ``derham_truncated`` ranked for a report: the
    low table's pair and the top one, one pair when they coincide."""
    lo, hi = report.cutoffs
    return [(lo - 1, lo), (lo, hi)] if 1 < lo < hi else [(lo, hi)]


def engine_tables(spec, pairs, tau):
    """The table of each pair of cutoffs at weight tau, ranked as
    ``derham_truncated`` ranks it at weight 0 off the smooth route: a lone
    pair (K, K) by ``_piece_dims`` on the whole piece, consecutive pairs by
    ``_persistent_dims`` on pieces built and shared as the engine builds
    them."""
    if pairs[-1][0] == pairs[-1][1]:
        return [socle.derham._piece_dims(engine_piece(spec, cut, tau)) for cut, _ in pairs]
    lows, cuts = dict(pairs), {cut for pair in pairs for cut in pair}
    pieces = {cut: engine_piece(spec, cut, tau, pairs[-1][1], cut in lows) for cut in cuts}
    return [socle.derham._persistent_dims(pieces[lo], pieces[hi]) for lo, hi in pairs]


def two_pair_tables(spec, f, pairs, block):
    """The tables of the route off the gate: the whole piece at cutoff 1 for
    the lone pair (1, 1), else ``_pair_tables``."""
    if pairs == [(1, 1)]:
        return [socle.derham._piece_dims(engine_piece(spec, 1, 0))]
    return socle.derham._pair_tables(spec, f, pairs, block)


def two_pair_truncated(spec, cutoff):
    """``derham_truncated`` on the two-pair route whatever the gate says: the
    cutoff-0 route swapped for ``two_pair_tables``, which ranks every pair
    on its own pieces.  The oracle of the cutoff-0 route."""
    with mock.patch.object(socle.derham, "_cutoff_zero_tables", two_pair_tables):
        return derham_truncated(spec, cutoff)


def whole_pieces():
    """Rank every piece whole, as if f's torus were the Euler line: the
    oracle of the torus block (``_torus_block``)."""
    return mock.patch.object(socle.derham, "_torus_block", lambda f: None)


def recording_init(args):
    """``_Piece.__init__`` that also records each piece's constructor
    arguments (cutoff, tau) in ``args``, keyed by the piece: what the spies
    of a route read."""
    init = socle.derham._Piece.__init__

    def recording(self, spec, f, cutoff, tau, *rest, **options):
        args[self] = (cutoff, tau)
        init(self, spec, f, cutoff, tau, *rest, **options)

    return recording


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
        (monomial_localization(2, {0, 1}), 3, 0),
        (InjectiveHull(2), 3, 0),
        (ring(2), 3, 1),
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
        Localization(parse_poly("x^2 + y^2", 2)),
        Localization(parse_poly("x^2 + 2*y^2 - x*y", 2)),
        monomial_localization(3, {0, 2}),
    ):
        lo, hi = (engine_piece(spec, cut, 0, hi_cut) for cut in (lo_cut, hi_cut))
        n = spec.n_vars
        iotas = [inclusion(lo, hi, j, spec.pole_terms()) for j in range(n + 1)]
        for j in range(n):
            d_lo, d_hi = d_map(lo, j), d_map(hi, j)
            for key in lo.keys[j]:
                left = apply(d_hi, iotas[j][key])
                assert left == apply(iotas[j + 1], d_lo[key]), (spec, j, key)
                # i is injective, so the check never compares two empty images
                assert bool(left) == bool(d_lo[key])


def test_nonzero_weights_contribute_nothing():
    # the weights around the limit classes add no dimensions to either table
    spec = monomial_localization(1, {0})
    dims, report = derham_truncated(spec, 5)
    assert list(dims) == [1, 1]
    assert report.stabilized
    pairs = engine_pairs(report)
    assert pairs == [(3, 4), (4, 5)]
    for tau in (-2, -1, 1, 2):
        assert engine_tables(spec, pairs, tau) == [[0, 0], [0, 0]], tau


def torus_weight_blocks(f, weights, k):
    """The exponents g of x^g / f^k at Euler weight 0, filtered out of the
    whole piece by their torus weight (<w, g - k a_0> for each w in
    ``weights``): {weight: [g in descending lex order]}."""
    a0 = next(iter(f))
    blocks = {}
    for g in graded_piece_basis(k * sum(a0), len(a0)):
        chi = tuple(sum(x * (y - k * z) for x, y, z in zip(w, g, a0)) for w in weights)
        blocks.setdefault(chi, []).append(g)
    return blocks


@pytest.mark.parametrize(
    "text, weights",
    [
        # weights of the torus besides the Euler vector (1, ..., 1)
        ("x*y - z*w", [(1, -1, 0, 0), (0, 0, 1, -1)]),
        ("x^2*y", [(1, 0)]),
        ("x*y^2 - z^3", [(2, -1, 0)]),
        # a solved entry that does not depend on the last pivot and is
        # negative leaves the last pivot an empty interval (``_torus_block``)
        ("x*w + y*z + z*w", [(1, -1, 1, -1)]),
    ],
)
def test_nonzero_torus_weights_contribute_nothing(text, weights):
    # the blocks of nonzero torus weight, cut out of the whole weight-0
    # pieces by filtering, have zero persistent image on both pairs, as the
    # Cartan homotopy d i_xi + i_xi d kills them one cutoff up, and past the
    # gate zero cohomology on F_0; the block of weight 0 is the one
    # ``_torus_block`` enumerates
    spec = spec_from_json({"kind": "loc", "f": text})
    f = spec.pole_terms()
    n, zero = spec.n_vars, (0,) * len(weights)
    dims, report = derham_truncated(spec, 4)
    pairs = engine_pairs(report)
    assert pairs == [(2, 3), (3, 4)]
    rule = socle.derham._torus_block(f)
    blocks = {k: torus_weight_blocks(f, weights, k) for k in range(4 + n + 1)}
    for k, by_weight in blocks.items():
        assert by_weight[zero] == rule(k), k
    for chi in {chi for by_weight in blocks.values() for chi in by_weight} - {zero}:
        tables = socle.derham._pair_tables(spec, f, pairs, lambda k: blocks[k].get(chi, []))
        if spec.smoothness_gate():
            tables += socle.derham._cutoff_zero_tables(spec, f, [(0, 0)], lambda k: blocks[k].get(chi, []))
        assert not any(map(any, tables)), chi
    assert list(dims) == socle.derham._pair_tables(spec, f, pairs, rule)[-1]


@pytest.mark.parametrize("cutoff", range(1, 6))
def test_the_weight_zero_piece_is_never_empty(cutoff):
    # the invariant ``derham_truncated`` states: a localization at f of
    # degree D holds the numerators of degree K*D >= 0 in form degree 0,
    # x^(K a_0) among them in the block of f's torus, and E holds
    # x^(-1,...,-1) in form degree n
    specs = [spec for n in range(5) for spec in (ring(n), InjectiveHull(n))]
    specs += [
        monomial_localization(n, inverted)
        for n in range(4)
        for size in range(n + 1)
        for inverted in combinations(range(n), size)
    ]
    specs += [
        spec_from_json({"kind": kind, "f": entry.f_text, "vars": entry.n_vars})
        for entry in HYPERSURFACES.values()
        for kind in ("loc", "loc-quot")
    ]
    for spec in specs:
        degree = spec.n_vars if isinstance(spec, InjectiveHull) else 0
        assert engine_piece(spec, cutoff, 0).keys[degree], spec
        # E is ranked whole: its exponents are negative, and no block has them
        assert isinstance(spec, InjectiveHull) or engine_piece(spec, cutoff, 0, torus=True).keys[0], spec


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
    # the default precision max(12, deg p + 3) adapts to the degree
    assert list(derham_rank_one(parse_poly("x^10", 1))) == [0, 10]
    assert list(derham_rank_one(parse_poly("x^10", 1), 13)) == [0, 10]
    with pytest.raises(DomainError, match="precision too small"):
        derham_rank_one(parse_poly("x^10", 1), 12)


def test_completion_flattening_frozen():
    p = parse_poly("x^2", 1)
    u7 = completion_flattening(p, 7)
    assert u7.poly_part() == parse_poly("1 - 1/3*x^3 + 1/18*x^6", 1)
    u10 = completion_flattening(p, 10)
    assert u10.poly_part() == parse_poly("1 - 1/3*x^3 + 1/18*x^6 - 1/162*x^9", 1)
    # defining property: u' + p u = 0 at the stated precision
    residual = u10.differentiate(0) + u10 * TruncatedSeries.from_poly(p, 10)
    assert residual == TruncatedSeries.zero(1, 9)


def test_completion_flattening_against_independent_exponential():
    p = parse_poly("x^2 + x", 1)
    u = completion_flattening(p, 8)
    minus_integral = TruncatedSeries.from_poly(p, 8).integrate(0) * (-1)
    # integration bumps the precision by one, so compare below degree 8
    assert u == TruncatedSeries.from_poly(minus_integral.exp().poly_part(), 8)


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
    # a nonzero constant has no partials to count: refused, as zero and a
    # non-homogeneous f are, at any variable count
    for f in (MultiPoly.one(2), MultiPoly.one(0), MultiPoly.zero(2), parse_poly("x^2 + y", 2)):
        with pytest.raises(DomainError, match="gate applies"):
            jacobian_ring_is_finite(f)
    # the engine never asks: no gate applies to a constant f
    assert Localization(MultiPoly.one(2)).smoothness_gate() is None


def fraction_gate(f):
    """The Jacobian gate over ``Fraction`` polynomial products: every x^m *
    df/dx_i in degree N*(D-2)+1 as a column on the index of its monomials."""
    n, D = f.n_vars, f.homogeneous_degree()
    if D == 1:
        return True
    e = n * (D - 2) + 1
    index = {exp: i for i, exp in enumerate(graded_piece_basis(e, n))}
    cols = [
        {index[exp]: c for exp, c in (MultiPoly.monomial(n, m) * f.partial_derivative(i)).terms.items()}
        for i in range(n)
        for m in graded_piece_basis(e - (D - 1), n)
    ]
    return rank_of_columns(cols) == len(index)


def test_spec_from_json_builds_each_kind():
    # R is the localization at 1, and every f under loc or loc-quot is the
    # localization at f, in the declared variables when given
    assert spec_from_json({"kind": "R", "vars": 2}) == ring(2)
    assert spec_from_json({"kind": "E", "vars": 3}) == InjectiveHull(3)
    spec = spec_from_json({"kind": "loc", "f": "x0*x2", "vars": 4})
    assert spec == monomial_localization(4, {0, 2})
    assert spec.n_vars == 4
    assert spec_from_json({"kind": "loc", "f": "x*z"}) == monomial_localization(3, {0, 2})
    for data, f_text, n, quotient in [
        ({"kind": "loc", "f": "x^2 + y^2 + z^2"}, "x^2 + y^2 + z^2", 3, False),
        ({"kind": "loc", "f": "2*x*y", "vars": 2}, "2*x*y", 2, False),
        ({"kind": "loc", "f": "x^2*y"}, "x^2*y", 2, False),
        ({"kind": "loc", "f": "3", "vars": 2}, "3", 2, False),
        ({"kind": "loc-quot", "f": "x^3 + y^3 + z^3"}, "x^3 + y^3 + z^3", 3, True),
        ({"kind": "loc-quot", "f": "x*y*z"}, "x*y*z", 3, True),
    ]:
        spec = spec_from_json(data)
        assert spec == Localization(parse_poly(f_text, n), quotient_mod_A=quotient)
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


@pytest.mark.parametrize("data", [[], ["loc", "x"], "R", None, 3])
def test_spec_from_json_refuses_anything_but_an_object(data):
    with pytest.raises(UnsupportedSpecError, match="JSON object"):
        spec_from_json(data)


@st.composite
def scaled_monomials(draw):
    """At most three variables, a set S of them, maybe empty, and a nonzero
    rational c."""
    n = draw(st.integers(1, 3))
    inverted = frozenset(draw(st.sets(st.integers(0, n - 1))))
    c = draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    return n, inverted, c


@settings(deadline=None, derandomize=True, max_examples=40)
@given(scaled_monomials())
@example((3, frozenset({0, 1, 2}), Fraction(1)))
@example((3, frozenset({0, 1, 2}), Fraction(2)))
def test_localization_at_a_scaled_monomial_reads_as_the_monomial(case):
    # c x_S and x_S give one module, so one closed form C(|S|, j) and one
    # report: exact for S empty (R itself), stabilized otherwise, whatever
    # the smoothness gate says
    n, inverted, c = case
    monomial = monomial_localization(n, inverted)
    text = (monomial.f * c).render()
    spec = spec_from_json({"kind": "loc", "f": text, "vars": n})
    assert spec == Localization(monomial.f * c)
    want = DeRhamDims(math.comb(len(inverted), j) for j in range(n + 1))
    assert derham_closed_form(spec) == derham_closed_form(monomial) == want
    for cutoff in (3, 4):
        dims, report = derham_truncated(spec, cutoff)
        assert (dims, report) == derham_truncated(monomial, cutoff)
        assert dims == want
        assert report.certificate == ("stabilized" if inverted else "exact")
    # loc-quot has no closed form: it refuses a constant, and agreement past
    # a failed gate, as on x*y*z, stays heuristic
    quotient = {"kind": "loc-quot", "f": text, "vars": n}
    if not inverted:
        with pytest.raises(DomainError, match="degree >= 1"):
            spec_from_json(quotient)
        return
    with pytest.raises(UnsupportedSpecError, match="no closed form"):
        derham_closed_form(spec_from_json(quotient))
    _, report = derham_truncated(spec_from_json(quotient), 3)
    assert report.certificate == ("stabilized" if report.smooth else "heuristic")
    if len(inverted) == 3:
        assert report.certificate == "heuristic"


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
    assert (len(dims), dims[1], list(dims)) == (2, 1, [0, 1])
    # entries are coerced to int, and a negative one is refused
    assert all(type(d) is int for d in DeRhamDims([Fraction(2), True]))
    with pytest.raises(DomainError):
        DeRhamDims((1, -1))


def test_each_cutoff_complex_is_assembled_once(monkeypatch):
    # on the two-pair route the pairs (K-2, K-1) and (K-1, K) share the
    # cutoff K-1 complex: each per-complex rank r(K, j) is eliminated once,
    # and each kept d column is built exactly once per piece and degree; a
    # low end gets its cycle images from those eliminations, so no piece
    # builds d_n.  The conic passes the gate, so ``derham_truncated`` ranks
    # it on F_0 alone, to the same report
    cases = [
        (spec_from_json({"kind": "loc-quot", "f": "x^2 + y^2 + z^2"}), 6, [0, 1, 0, 0]),
        (monomial_localization(2, {0, 1}), 4, [1, 2, 1]),
    ]
    piece = socle.derham._Piece
    d_columns, eliminate = piece.d_columns, piece._eliminate
    for spec, cutoff, want_dims in cases:
        built, eliminated, stored, args = [], [], {}, {}

        def counting_columns(self, j, kept, *tails):
            built.extend((*args[self], j, idx) for idx in kept)
            return d_columns(self, j, kept, *tails)

        def counting_eliminate(self, j):
            eliminated.append((*args[self], j))
            if j:
                stored[(*args[self], j - 1)] = len(self.kept[j - 1])
            return eliminate(self, j)

        monkeypatch.setattr(piece, "__init__", recording_init(args))
        monkeypatch.setattr(piece, "d_columns", counting_columns)
        monkeypatch.setattr(piece, "_eliminate", counting_eliminate)
        dims, report = two_pair_truncated(spec, cutoff)
        monkeypatch.undo()
        n = len(want_dims) - 1
        cutoffs = range(cutoff - 2, cutoff + 1)
        assert sorted(eliminated) == [(k, 0, j) for k in cutoffs for j in range(n + 1)]
        assert len(set(built)) == len(built)
        assert {where[:3] for where in built} <= set(stored)
        assert sorted(stored) == [(k, 0, j) for k in cutoffs for j in range(n)]
        assert len(built) == sum(stored.values())
        assert list(dims) == want_dims
        assert (dims, report) == derham_truncated(spec, cutoff)
        assert report.certificate == "stabilized"


def test_scaling_f_changes_no_table():
    # rational coefficients run through assembly end to end
    for text in ("x^2 + y^2 + z^2", "x^3 + y^3 + z^3"):
        f = parse_poly(text, 3)
        plain = derham_truncated(Localization(f, quotient_mod_A=True), 5)
        scaled = derham_truncated(Localization(f * Fraction(3, 7), quotient_mod_A=True), 5)
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


DENSE_CUBIC_SURFACE = "x0^3+x1^3+x2^3+x3^3+x0*x1*x2+2*x1*x2*x3-x0^2*x3+3*x1^2*x2"
DENSE_CUBIC_THREEFOLD = "x0^3+x1^3+x2^3+x3^3+x4^3+x0*x1*x2+2*x1*x2*x3-x0^2*x3+3*x1^2*x4"


def test_dense_cubic_surface_matches_prediction():
    # a dense f fills in far more than a Fermat sum of the same size
    spec = spec_from_json({"kind": "loc-quot", "f": DENSE_CUBIC_SURFACE})
    dims, report = derham_truncated(spec, 3)
    want = predict(PROFILES["cubic-surface-p3"].profile).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 6, 6]
    assert report.certificate == "stabilized"


@pytest.mark.slow
def test_quartic_threefold_matches_prediction():
    # ranked on F_0 alone, and checked against the two-pair route at scale
    spec = spec_from_json({"kind": "loc-quot", "f": "x0^4 + x1^4 + x2^4 + x3^4 + x4^4"})
    dims, report = derham_truncated(spec, 3)
    want = predict(BettiProfile(4, 3, (1, 0, 1, 60, 1, 0, 1))).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 0, 60, 60]
    assert report.certificate == "stabilized"
    assert (dims, report) == two_pair_truncated(spec, 3)


@pytest.mark.slow
def test_dense_cubic_threefold_matches_prediction():
    spec = spec_from_json({"kind": "loc-quot", "f": DENSE_CUBIC_THREEFOLD})
    dims, report = derham_truncated(spec, 3)
    want = predict(BettiProfile(4, 3, (1, 0, 1, 10, 1, 0, 1))).critical_dims
    assert list(dims) == list(want) == [0, 1, 0, 0, 10, 10]
    assert report.certificate == "stabilized"
    assert (dims, report) == two_pair_truncated(spec, 3)


THREE_QUADRIC_PRODUCT = "(x1^2-x0*x2)*(x1*x2-x0*x3)*(x2^2-x1*x3)"
TWISTED_CUBIC_CECH_TERM = "(x1^2-x0*x2)*(x2^3-2*x1*x2*x3+x0*x3^2)"


@pytest.mark.parametrize(
    "text, want",
    [(THREE_QUADRIC_PRODUCT, [0, 3, 4, 3, 1]), (TWISTED_CUBIC_CECH_TERM, [0, 2, 1, 0, 0])],
)
def test_twisted_cubic_products_keep_their_tables(text, want):
    # products of the quadrics and the cubic through the twisted cubic are
    # not smooth, so the tables are pinned, not predicted; their torus has
    # rank 2, and only its block is ranked
    spec = spec_from_json({"kind": "loc-quot", "f": text})
    f = spec.pole_terms()
    assert socle.derham._torus_block(f) is not None
    dims, report = derham_truncated(spec, 3)
    assert list(dims) == want
    assert (report.certificate, report.smooth) == ("heuristic", False)


@pytest.mark.slow
def test_three_quadric_product_keeps_its_table():
    # the block of the torus against the whole pieces, at scale
    spec = spec_from_json({"kind": "loc-quot", "f": THREE_QUADRIC_PRODUCT})
    dims, report = derham_truncated(spec, 3)
    assert list(dims) == [0, 3, 4, 3, 1]
    with whole_pieces():
        assert derham_truncated(spec, 3) == (dims, report)


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
    return Localization(f, quotient_mod_A=draw(st.booleans()))


@st.composite
def fermat_plus_terms(draw, max_vars=3, max_degree=3):
    """x_0^D + ... + x_(n-1)^D plus up to three terms of degree D with
    rational coefficients, in loc or loc-quot mode: the gate passes on most
    of them, and fails where the terms make f singular."""
    n, D = draw(st.integers(1, max_vars)), draw(st.integers(1, max_degree))
    terms = {tuple(D * (i == k) for i in range(n)): Fraction(1) for k in range(n)}
    coefficient = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    for e in draw(st.lists(st.sampled_from(graded_piece_basis(D, n)), max_size=3, unique=True)):
        terms[e] = terms.get(e, 0) + draw(coefficient)
    f = MultiPoly(n, {e: c for e, c in terms.items() if c})
    assume(f)
    return Localization(f, quotient_mod_A=draw(st.booleans()))


def whole_piece_size(n, D, cutoff):
    """The size of the whole weight-0 piece at the cutoff (``derham._basis_size``
    for an f whose torus is the Euler line)."""
    return sum(math.comb(n, j) * math.comb((cutoff + j) * D - j + n - 1, n - 1) for j in range(n + 1))


@st.composite
def larger_torus_inputs(draw):
    """A monomial with exponents up to 4, a binomial or trinomial, or a
    product of two monomials or binomials, in n <= 4 variables of degree
    D <= 4 and in loc or loc-quot mode, most with a torus larger than the
    Euler line; and a cutoff of 1 to 4, kept where the whole pieces, the
    oracle, stay small."""
    n = draw(st.integers(1, 4))
    coefficient = st.builds(Fraction, st.integers(-3, 3).filter(bool))

    def polynomial(degree, terms):
        support = draw(st.lists(st.sampled_from(graded_piece_basis(degree, n)), min_size=1, max_size=terms, unique=True))
        return MultiPoly(n, {e: draw(coefficient) for e in support})

    if draw(st.booleans()):
        f = polynomial(draw(st.integers(1, 4)), 3)
    else:
        f = polynomial(draw(st.integers(1, 2)), 2) * polynomial(draw(st.integers(1, 2)), 2)
    D = f.homogeneous_degree()
    cutoffs = [K for K in range(2, 5) if whole_piece_size(n, D, K) <= 2500]
    return Localization(f, quotient_mod_A=draw(st.booleans())), draw(st.sampled_from([1] + cutoffs))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(larger_torus_inputs())
@example((Localization(parse_poly("x*y - z*w", 4), quotient_mod_A=True), 4))
@example((Localization(parse_poly("x^2*y^3", 2)), 4))
@example((Localization(parse_poly("(x^2 - y*z)*(x*y - z^2)", 3)), 3))
# an empty interval for the last pivot (``_torus_block``)
@example((Localization(parse_poly("x*w + y*z + z*w", 4)), 4))
def test_the_torus_block_gives_the_whole_piece_tables(case):
    # only the block of f's torus carries classes: ranked on it, every
    # report is the one of the whole pieces, on the two-pair route and, past
    # the gate, on the cutoff-0 route
    spec, cutoff = case
    routes = [derham_truncated] + [two_pair_truncated] * bool(spec.smoothness_gate())
    blocks = [route(spec, cutoff) for route in routes]
    with whole_pieces():
        assert blocks == [route(spec, cutoff) for route in routes]


def test_a_single_term_gate_is_the_rank_gate():
    # the closed form D = 1, n = 1 or x*y against the rank, on every c x^a
    # with n <= 4 and D <= 4
    for n in range(1, 5):
        for D in range(1, 5):
            for a in graded_piece_basis(D, n):
                f = MultiPoly.monomial(n, a, Fraction(-2, 3))
                assert Localization(f).smoothness_gate() is jacobian_ring_is_finite(f), a


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.one_of(hypersurfaces(), fermat_plus_terms(4, 4)))
@example(Localization(parse_poly("x0*x1*x2*x3", 4)))
# a double line: its partials are dependent only with the exponent factors
@example(Localization(parse_poly("x^2 - 2*x*y + y^2", 2)))
def test_jacobian_gate_matches_the_fraction_oracle(spec):
    # int columns on packed codes from f's primitive integer multiple rank
    # as the Fraction products on monomial indices, smooth f or not
    assert jacobian_ring_is_finite(spec.f) is fraction_gate(spec.f)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(fermat_plus_terms(), st.integers(1, 4))
def test_smooth_f_reports_as_the_two_pair_route(spec, cutoff):
    # past the gate F_0 -> F_K is a quasi-isomorphism, so dim H(F_0) is the
    # table of every pair: dims, low table, certificate, cutoffs and gate
    # are the two-pair route's
    assume(spec.smoothness_gate())
    assert derham_truncated(spec, cutoff) == two_pair_truncated(spec, cutoff)


@pytest.mark.parametrize("name", HYPERSURFACES)
def test_catalog_hypersurfaces_report_as_the_two_pair_route(name):
    # every catalog entry is smooth; cutoffs 1 and 2 report one pair and
    # "provisional", 3 to 6 two pairs and "stabilized"
    entry = HYPERSURFACES[name]
    for kind in ("loc", "loc-quot"):
        spec = spec_from_json({"kind": kind, "f": entry.f_text, "vars": entry.n_vars})
        for cutoff in range(1, 7):
            dims, report = derham_truncated(spec, cutoff)
            assert (dims, report) == two_pair_truncated(spec, cutoff), (kind, cutoff)
            assert report.smooth is True
            assert report.certificate == ("stabilized" if cutoff >= 3 else "provisional")


def test_the_cutoff_zero_route_is_taken_exactly_past_the_gate():
    # a spec that passes the gate and depends on the cutoff is ranked on
    # F_0 alone; R, E and cutoff 1 off the gate on one whole piece, by
    # rank-nullity; every other spec by persistence, on consecutive pairs
    # only
    routes, args = [], {}

    def spy(name):
        ranks = getattr(socle.derham, name)

        def recording(*pieces):
            routes.append(name)
            if name == "_persistent_dims":
                lo, hi = pieces
                assert args[hi][0] == args[lo][0] + 1
            return ranks(*pieces)

        return recording

    names = ("_pair_tables", "_cutoff_zero_tables", "_piece_dims", "_persistent_dims")
    specs = [ring(2), InjectiveHull(2), Localization(parse_poly("3", 2))]
    specs += [
        spec_from_json({"kind": kind, "f": text, "vars": 3})
        for kind in ("loc", "loc-quot")
        for text in ("x", "x^2 + y^2 + z^2", "x*y", "x*y*z", "x^3 - y^2*z")
    ]
    for spec in specs:
        for cutoff in (1, 2, 3):
            routes.clear()
            with mock.patch.multiple(socle.derham, **{name: spy(name) for name in names}), mock.patch.object(
                socle.derham._Piece, "__init__", recording_init(args)
            ):
                derham_truncated(spec, cutoff)
            if spec.smoothness_gate() is True and not spec.cutoff_free:
                want = ["_cutoff_zero_tables", "_piece_dims"]
            elif spec.cutoff_free or cutoff == 1:
                want = ["_piece_dims"]
            else:
                want = ["_pair_tables"] + ["_persistent_dims"] * (cutoff - 1)
            assert routes == want, (spec, cutoff)


def test_a_basis_past_the_bound_at_cutoff_0_is_refused_before_the_gate(monkeypatch):
    # the ten-variable binomial has 52698251520 elements at cutoff 0, and
    # its gate would list C(40, 9), about 2.7e8, monomials of degree 31
    def gate(f):
        raise AssertionError("the smoothness gate ran")

    monkeypatch.setattr(socle.derham, "jacobian_ring_is_finite", gate)
    spec = spec_from_json({"kind": "loc", "f": "x0*x1*x2*x3*x4 - x5*x6*x7*x8*x9", "vars": 10})
    start = time.perf_counter()
    with pytest.raises(DomainError) as refusal:
        derham_truncated(spec, 6)
    assert time.perf_counter() - start < 1
    assert str(refusal.value) == (
        "the complex at pole cutoff 6 has 19848293017344 basis elements, which exceeds 400000"
    )


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
    f = MultiPoly(n, spec.pole_terms())
    e0, c0 = next(iter(spec.pole_terms().items()))
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
    # every piece is a plain pole complex, quotient mode too: nothing is
    # eliminated into r(0)
    assert piece.take(0) == {}


@st.composite
def engine_pieces(draw):
    """A piece of any engine's complex at a cutoff of at most 3, cutoff 0
    included: a random hypersurface (loc or loc-quot), R, or E at a weight
    that gives it negative exponents in several degrees."""
    kind = draw(st.sampled_from(("hypersurface", "R", "E")))
    cutoff = draw(st.integers(0, 3))
    if kind == "hypersurface":
        spec, tau = draw(hypersurfaces()), draw(st.integers(-1, 1))
    else:
        n = draw(st.integers(1, 3))
        spec = ring(n) if kind == "R" else InjectiveHull(n)
        tau = draw(st.integers(-cutoff, 0))
    return spec, cutoff, tau


@settings(deadline=None, derandomize=True, max_examples=60)
@given(engine_pieces())
def test_one_piece_is_counted_by_rank_nullity(case):
    # dim H(F_K) of a piece built with no chain map, |C_j| - r(j) - r(j+1)
    # with cleared ranks, is the plain rank formula at lo = hi, at every
    # weight and in both modes; a quotient-mode piece is the plain pole
    # complex, so it holds the class of 1 that the honest quotient lacks
    spec, cutoff, tau = case
    dims = socle.derham._piece_dims(engine_piece(spec, cutoff, tau))
    assert dims == with_one(spec, tau, plain_persistent_dims(spec, cutoff, cutoff, tau))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(engine_pieces(), st.integers(0, 1))
# the pieces the cutoff-0 route ranks, in both modes, at their own width
@example((Localization(parse_poly("x^3 + y^3 + z^3 - x*y*z", 3)), 0, 0), 0)
@example((Localization(parse_poly("x^3 + y^3 + z^3 - x*y*z", 3), quotient_mod_A=True), 0, 0), 0)
def test_piece_columns_follow_the_closed_form_at_their_keys(case, wider):
    # with keys as wide as the piece's own cutoff or the next one needs
    spec, cutoff, tau = case
    f = spec.pole_terms()
    n = spec.n_vars
    width = socle.derham._key_width(n, f, cutoff + wider, tau)
    piece = socle.derham._Piece(spec, f, cutoff, tau, width)
    for j in range(n + 1):
        labels = piece.labels(j)
        # keys are one-to-one, each is mask(I) + code(e), and each lies
        # below ``bound``, so no key reaches a tail row
        assert len(set(piece.keys[j])) == len(labels)
        for (I, e), key in zip(labels, piece.keys[j]):
            assert key == sum(1 << i for i in I) + piece.code(e)
            assert abs(key) < piece.bound
            if isinstance(spec, InjectiveHull):
                assert all(x <= -1 for x in e)
    for j in range(n):
        k = cutoff + j
        label_at = dict(zip(piece.keys[j + 1], piece.labels(j + 1)))
        labels = piece.labels(j)
        cols = piece.d_columns(j, range(len(labels)))
        tailed = piece.d_columns(j, range(len(labels)), True)
        for key, col, tail in zip(piece.keys[j], cols, tailed):
            # the tail of u is 1 at key(u) + 2 bound, at or above ``bound``
            assert tail == {**col, key + 2 * piece.bound: 1}
        for (I, e), col in zip(labels, cols):
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


def per_set_parts(spec, f, cutoff, tau, width, block):
    """Per form degree j, (sets, exps, owner, keys, steps) of a piece as the
    per-set construction builds them: the exponents of each index set I from
    the spec's basis, or from the block's exponents g as g - 1_I for the
    j-subsets I of g's support, and per set its own step table, the rows
    (key step, i, k a_i, wedge sign * c_a) for the terms c_a x^a of f and
    the i not in I, sorted on their own.  The oracle of ``_Piece``'s one
    sorted list per piece."""
    n = spec.n_vars
    units = [1 << (width * (i + 1)) for i in range(n)]

    def code(e):
        return sum(x * u for x, u in zip(e, units))

    degree = sum(next(iter(f)))
    out = []
    for j in range(n + 1):
        k = cutoff + j
        if block is None:
            exps, _ = spec.basis(tau - j + k * degree, tau, cutoff, width)
            parts = {I: list(exps) for I in combinations(range(n), j)} if exps else {}
        else:
            parts = {}
            for g in block(k):
                for I in combinations([i for i, x in enumerate(g) if x], j):
                    parts.setdefault(I, []).append(tuple(x - (i in I) for i, x in enumerate(g)))
        sets = sorted(parts)
        steps = []
        for I in sets:
            table, sign = [], 1
            for i, unit in enumerate(units):
                if i in I:
                    sign = -sign
                else:
                    table.extend((code(a) + (1 << i) - unit, i, k * a[i], sign * c) for a, c in f.items())
            steps.append(sorted(table))
        out.append(
            (
                sets,
                [e for I in sets for e in parts[I]],
                [s for s, I in enumerate(sets) for _ in parts[I]],
                [sum(1 << i for i in I) + code(e) for I in sets for e in parts[I]],
                steps,
            )
        )
    return out


@st.composite
def step_table_pieces(draw):
    """A piece at a cutoff of 0 to 4: R, or E at a weight that gives it
    negative exponents, a sparse hypersurface, a dense f
    (``fermat_plus_terms``), each localization on its torus block half the
    time, or an f with a larger torus on its block (``larger_torus_inputs``,
    whose cutoff bounds the piece)."""
    kind = draw(st.sampled_from(("R", "E", "sparse", "dense", "torus")))
    if kind in ("R", "E"):
        cutoff, n = draw(st.integers(0, 4)), draw(st.integers(1, 3))
        spec = ring(n) if kind == "R" else InjectiveHull(n)
        return spec, cutoff, draw(st.integers(-cutoff, 0)), False
    if kind == "torus":
        spec, top = draw(larger_torus_inputs())
        return spec, draw(st.integers(0, top)), draw(st.integers(-1, 1)), True
    spec = draw(hypersurfaces() if kind == "sparse" else fermat_plus_terms())
    return spec, draw(st.integers(0, 4)), draw(st.integers(-1, 1)), draw(st.booleans())


@settings(deadline=None, derandomize=True, max_examples=100)
@given(step_table_pieces(), st.integers(0, 1), st.booleans())
@example((InjectiveHull(3), 4, -4, False), 1, False)
@example((Localization(parse_poly("x^3 + y^3 + z^3 - x*y*z", 3)), 4, 0, False), 0, True)
@example((Localization(parse_poly("(x^2 - y*z)*(x*y - z^2)", 3)), 3, 0, True), 1, True)
def test_piece_parts_match_the_per_set_sorted_tables(case, wider, low_end):
    # the step tables cut from one sorted list per piece, and the exponents,
    # owners and keys built in one pass per degree, are the per-set ones,
    # value for value and in order; so is the chain map of a low end
    spec, cutoff, tau, torus = case
    f = spec.pole_terms()
    width = socle.derham._key_width(spec.n_vars, f, cutoff + wider, tau)
    block = socle.derham._torus_block(f) if torus else None
    piece = socle.derham._Piece(spec, f, cutoff, tau, width, low_end, block)
    sets, exps, owner, keys, steps = map(list, zip(*per_set_parts(spec, f, cutoff, tau, width, block)))
    assert piece.sets == sets
    assert piece.exps == exps
    assert piece.owner == owner
    assert piece.keys == keys
    assert piece.steps == steps
    image = [(piece.code(a), c) for a, c in f.items()] if low_end else None
    assert (None if piece.image is None else list(piece.image.items())) == image


def pushed_by_products(spec, piece, j, coefficients):
    """i v for the vector v = {basis index: coefficient} of form degree j:
    per index set I, the polynomial of v's coefficients on it times f, at
    the keys of x^e dx_I, zeros dropped."""
    n, labels = spec.n_vars, piece.labels(j)
    f = MultiPoly(n, spec.pole_terms())
    by_set = {}
    for idx, c in coefficients.items():
        I, e = labels[idx]
        by_set.setdefault(I, {})[e] = c
    want = {}
    for I, terms in by_set.items():
        for e, c in (MultiPoly(n, terms) * f).terms.items():
            want[sum(1 << i for i in I) + piece.code(e)] = int(c)
    return want


@settings(deadline=None, derandomize=True, max_examples=60)
@given(hypersurfaces() | fermat_plus_terms(), st.integers(0, 3), st.data())
def test_push_is_the_product_by_the_packed_terms_of_f(spec, cutoff, data):
    piece = engine_piece(spec, cutoff, 0, cutoff + 1, low_end=True)
    for j, keys in enumerate(piece.keys):
        if not keys:
            continue
        index, coefficient = st.integers(0, len(keys) - 1), st.integers(-3, 3).filter(bool)
        v = data.draw(st.dictionaries(index, coefficient, max_size=6))
        got = piece.push({keys[idx]: c for idx, c in v.items()})
        assert got == pushed_by_products(spec, piece, j, v), j
        assert all(type(c) is int and c for c in got.values())


def test_push_drops_the_terms_that_cancel():
    # (x + y)(x - y) = x^2 - y^2: the two products at x*y cancel
    spec = Localization(parse_poly("x - y", 2))
    piece = engine_piece(spec, 1, 0, 2, low_end=True)
    v = {idx: 1 for idx, (I, e) in enumerate(piece.labels(0)) if e in ((1, 0), (0, 1))}
    got = piece.push({piece.keys[0][idx]: c for idx, c in v.items()})
    assert got == pushed_by_products(spec, piece, 0, v)
    assert sorted(got.values()) == [-1, 1] and len(v) == 2


@settings(deadline=None, derandomize=True, max_examples=60)
@given(engine_pieces(), st.booleans())
# a column of content 3 becomes a primitive pivot
@example((Localization(parse_poly("x^2", 2)), 1, 0), False)
def test_cleared_pivots_are_the_echelon_form_of_every_column(case, low_end):
    # r(j), eliminated from the kept columns only, has the pivot rows of the
    # echelon form of every d column of degree j-1, as clearing drops no
    # span; each pivot is a primitive int vector on its lowest row, with its
    # tails above ``bound`` on a low end only; the kept list is the keys off
    # the pivot rows, and a low end splits off dim(Z ∩ span kept) cycles
    spec, cutoff, tau = case
    piece = engine_piece(spec, cutoff, tau, cutoff + 1, low_end)
    bound = piece.bound
    for j in range(1, spec.n_vars + 1):
        pivots = piece.take(j)
        every = {}
        _reduce_into(every, piece.d_columns(j - 1, range(len(piece.keys[j - 1]))))
        assert sorted(pivots) == sorted(every) and piece.ranks[j] == len(every)
        for row, v in pivots.items():
            assert all(type(x) is int and x for x in v.values())
            assert math.gcd(*v.values()) == 1 and min(v) == row, (j, row)
            assert any(r >= bound for r in v) == low_end
        assert piece.kept[j] == [i for i, key in enumerate(piece.keys[j]) if key not in pivots]
        if low_end:
            assert len(piece.cycles[j - 1]) == len(piece.kept[j - 1]) - piece.ranks[j]


def polynomial_forms(spec, piece, cutoff, tau, j):
    """The polynomial j-forms x^a dx_I = x^a f^k dx_I / f^k (k = cutoff + j) of
    the weight tau of a piece at that cutoff, at every weight, as int columns
    built from labels and the engine's f (``pole_terms``); none unless the
    spec is taken modulo them."""
    n = spec.n_vars
    if not spec.quotient_mod_A or j > n:
        return []
    f_k = MultiPoly(n, spec.pole_terms()) ** (cutoff + j)
    key_at = dict(zip(piece.labels(j), piece.keys[j]))
    return [
        {key_at[(I, tuple(x + y for x, y in zip(a, b)))]: int(c) for b, c in f_k.terms.items()}
        for I in combinations(range(n), j)
        for a in graded_piece_basis(tau - j, n)
    ]


def with_one(spec, tau, table):
    """An honest quotient table as the engine's pieces count it: the class of
    1, which only ``derham_truncated`` takes out, added back in degree 0 at
    weight 0 in quotient mode."""
    if spec.quotient_mod_A and tau == 0:
        return [table[0] + 1, *table[1:]]
    return table


def plain_persistent_dims(spec, lo, hi, tau):
    """The persistence formula as plain ranks of the pieces' columns.

    rank H^j = rank M - rank[i(d C_lo,j) | A_hi,j+1] - rank[d C_hi,j-1 | A_hi,j],
    where M sends (u, w, a, b) to (i u + d w + a, i(d u) + b) and i is the
    chain map F_lo -> F_hi that multiplies numerators by f, built from
    labels.  f is the primitive integer multiple of the spec's f, so every
    column is an int dict; a unit scale changes no rank.  A is every
    polynomial form of the weight in quotient mode (``polynomial_forms``), so
    this ranks the honest quotient, and its agreement with the engine, whose
    pieces take out nothing and whose tables lose only 1 at weight 0
    (``with_one``), checks that A is acyclic at every nonzero weight.  Rows
    are the packed keys, shifted by 2 bound in the second block (every
    |key| < bound), so the blocks never meet.  At lo = hi, where i is
    the identity, rank M is dim C_j + rank A_(j+1): the columns (u, d u)
    hold every (d w, 0), as d d = 0, and every (a, d a), as d A lies in A.
    Every rank is a fresh ``rank_of_columns`` call over whole bases: no
    clearing and no shared pivot state.
    """
    f = spec.pole_terms()
    n = spec.n_vars
    width = socle.derham._key_width(n, f, hi, tau)
    p_lo = socle.derham._Piece(spec, f, lo, tau, width)
    p_hi = socle.derham._Piece(spec, f, hi, tau, width) if lo < hi else p_lo
    d_lo = [list(d_map(p_lo, j).values()) for j in range(n + 1)]
    d_hi = [list(d_map(p_hi, j).values()) for j in range(n)] if lo < hi else d_lo
    # i multiplies numerators by f (1 for R and E); at lo = hi it is the
    # identity, and i(d u) is d u
    iotas = [inclusion(p_lo, p_hi, j, f) for j in range(n + 1)] + [{}] if lo < hi else None

    def tagged(block, col):
        return {r + 2 * block * p_hi.bound: c for r, c in col.items()}

    dims = []
    for j in range(n + 1):
        pushed = [apply(iotas[j + 1], col) for col in d_lo[j]] if iotas else d_lo[j]
        bottom = list(d_hi[j - 1]) if j else []
        bottom += polynomial_forms(spec, p_hi, hi, tau, j)
        a_next = polynomial_forms(spec, p_hi, hi, tau, j + 1)
        if iotas:
            m = [{**tagged(0, iotas[j][key]), **tagged(1, d_u)} for key, d_u in zip(p_lo.keys[j], pushed)]
            m += [tagged(0, col) for col in bottom] + [tagged(1, col) for col in a_next]
            whole = rank_of_columns(m)
        else:
            whole = len(p_lo.keys[j]) + rank_of_columns(a_next)
        dims.append(whole - rank_of_columns(pushed + a_next) - rank_of_columns(bottom))
    return dims


@st.composite
def truncation_inputs(draw):
    """A spec of any kind the engine assembles, a cutoff of at most 5 and a
    weight window around 0 that often holds nonzero weights, which the tests
    rank on the engine's pieces."""
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("hypersurface", "R", "E", "monomial")))
    if kind == "hypersurface":
        spec = draw(hypersurfaces())
    elif kind == "R":
        spec = ring(n)
    elif kind == "E":
        spec = InjectiveHull(n)
    else:
        spec = monomial_localization(n, {i for i in range(n) if draw(st.booleans())})
    window = (draw(st.integers(-2, 0)), draw(st.integers(0, 2)))
    return spec, draw(st.integers(1, 5)), window


@settings(deadline=None, derandomize=True, max_examples=60)
@given(truncation_inputs())
def test_truncated_tables_match_the_plain_rank_formula(case):
    # cleared integer ranks, shared per complex, against plain ranks of
    # the pieces' columns with the pushed block i(d u): at weight 0 through
    # the engine, at the window's other weights on its pieces, where every
    # table vanishes once i_E w lies in the high end
    spec, cutoff, window = case
    dims, report = derham_truncated(spec, cutoff)
    pairs = engine_pairs(report)
    assert list(dims) == plain_persistent_dims(spec, *pairs[-1], 0)
    assert list(report.dims_low) == plain_persistent_dims(spec, *pairs[0], 0)
    for tau in set(range(window[0], window[1] + 1)) - {0}:
        tables = engine_tables(spec, pairs, tau)
        for (lo, hi), table in zip(pairs, tables):
            assert table == plain_persistent_dims(spec, lo, hi, tau), (lo, hi, tau)
            if lo < hi or spec.cutoff_free:
                assert not any(table), (lo, hi, tau)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(truncation_inputs())
def test_cycle_images_count_the_low_cohomology(case):
    # Z ∩ span kept meets B only in 0, so a low end hands over exactly
    # dim H^j(F_lo) cycle images; and each pair's table is the oracle's.  On
    # the two-pair route, whose pairs the report names at every weight, with
    # whole pieces: a block's H(F_lo) holds only its own torus weight
    spec, cutoff, window = case
    piece = socle.derham._Piece
    cycle_images, persistent_dims = piece.cycle_images, socle.derham._persistent_dims
    counts, tables, args = {}, {}, {}

    def counting_images(self, j):
        images = cycle_images(self, j)
        counts[(*args[self], j)] = len(images)
        return images

    def recording_dims(lo, hi):
        dims = persistent_dims(lo, hi)
        (lo_cut, tau), (hi_cut, _) = args[lo], args[hi]
        tables[(lo_cut, hi_cut, tau)] = dims
        return dims

    taus = range(window[0], window[1] + 1)
    with whole_pieces(), mock.patch.object(piece, "cycle_images", counting_images), mock.patch.object(
        socle.derham, "_persistent_dims", recording_dims
    ), mock.patch.object(piece, "__init__", recording_init(args)):
        _, report = two_pair_truncated(spec, cutoff)
        for tau in set(taus) - {0}:
            engine_tables(spec, engine_pairs(report), tau)
    lows = {lo for lo, _, _ in tables}
    assert sorted(counts) == sorted(
        (lo, tau, j) for lo in lows for tau in taus for j in range(spec.n_vars + 1)
    )
    own = {
        (lo, tau): with_one(spec, tau, plain_persistent_dims(spec, lo, lo, tau)) for lo in lows for tau in taus
    }
    for (lo, tau, j), count in counts.items():
        assert count == own[(lo, tau)][j], (lo, tau, j)
    for (lo, hi, tau), dims in tables.items():
        assert dims == with_one(spec, tau, plain_persistent_dims(spec, lo, hi, tau)), (lo, hi, tau)


@st.composite
def quotient_inputs(draw):
    """A random f, a cutoff of at most 4 and a nonzero weight near 0."""
    tau = draw(st.integers(-2, 2).filter(bool))
    return draw(hypersurfaces()).f, draw(st.integers(1, 4)), tau


@settings(deadline=None, derandomize=True, max_examples=60)
@given(quotient_inputs())
def test_quotient_table_is_the_localization_table_less_the_class_of_one(case):
    # 0 -> A -> A_f -> A_f/A -> 0 with H(A) = k in degree 0 at weight 0 and
    # A acyclic at every other weight, at every cutoff
    f, cutoff, tau = case
    dims, report = derham_truncated(Localization(f), cutoff)
    quotient = Localization(f, quotient_mod_A=True)
    q_dims, q_report = derham_truncated(quotient, cutoff)

    def less_one(table):
        return (table[0] - 1, *table[1:])

    assert q_dims == less_one(dims)
    # the JSON record: cutoffs, window, low table, certificate and gate
    assert q_report.to_json() == {**report.to_json(), "dims_at_low_cutoff": list(less_one(report.dims_low))}
    # at a nonzero weight the engine takes out nothing, as A is acyclic
    # there (the plain rank formula ranks the honest quotient to check it)
    pairs = engine_pairs(report)
    assert engine_tables(quotient, pairs, tau) == engine_tables(Localization(f), pairs, tau)


def test_a_lost_tail_is_an_internal_error(monkeypatch):
    # with the tails dropped from every built column, a cycle of the low
    # complex reduces to 0 in r(lo, j+1), which the independence check
    # refuses; x^2 + y^2 + z^2 has such cycles.  It passes the gate, so the
    # two-pair route, the one with tails, is forced
    d_columns = socle.derham._Piece.d_columns
    monkeypatch.setattr(
        socle.derham._Piece, "d_columns", lambda self, j, kept, tails=False: d_columns(self, j, kept)
    )
    with pytest.raises(InternalCheckError, match="lost its tail"):
        two_pair_truncated(spec_from_json({"kind": "loc-quot", "f": "x^2 + y^2 + z^2"}), 4)


def test_a_piece_below_cutoff_zero_ranks():
    # form degree 0 is empty at cutoff -1, as K*D < 0, and d(dx_I / f) =
    # -df ^ dx_I / f^2 is +-2 x_i dx_0 dx_1 dx_2 / f^2, i the index off I; a
    # quotient-mode piece is the same plain pole complex, with no 1 in it
    text = "x^2 + y^2 + z^2"
    for kind in ("loc", "loc-quot"):
        piece = engine_piece(spec_from_json({"kind": kind, "f": text}), -1, 0)
        assert piece.take(0) == {} and not piece.keys[0]
        assert piece.rank(3) == 3
