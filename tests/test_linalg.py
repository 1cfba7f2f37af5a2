"""Sparse elimination checked against a dense textbook implementation."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from socle.linalg import GradedMatrix, _reduce_into, eliminate_columns, rank_of_columns
from socle.poly import _scaled


def dense_rank(rows):
    """Plain Gaussian elimination over the rationals; the oracle."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def random_dense(rng, n_rows, n_cols):
    return [
        [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)] for _ in range(n_rows)
    ]


def to_columns(dense):
    if not dense:
        return []
    n_rows, n_cols = len(dense), len(dense[0])
    return [
        {i: dense[i][j] for i in range(n_rows) if dense[i][j]} for j in range(n_cols)
    ]


def test_rank_matches_dense_oracle():
    rng = random.Random(101)
    for _ in range(120):
        n_rows = rng.randint(0, 8)
        n_cols = rng.randint(0, 8)
        dense = random_dense(rng, n_rows, n_cols)
        assert rank_of_columns(to_columns(dense)) == dense_rank(dense)


def low_set(n_rows, columns):
    """The lowest rows of the nonzero vectors in the span of the columns, by
    dense elimination: r is one exactly when the rows up to r have a larger
    rank than the rows below r, that is when row r is not a combination of
    the rows below it.  Each kept row is 1 at its leading entry and 0 at the
    leading entries of the rows kept before it."""
    low, echelon = set(), []
    for r, row in enumerate(to_dense(n_rows, columns)):
        for lead, kept in echelon:
            if row[lead]:
                row = [x - row[lead] * y for x, y in zip(row, kept)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            echelon.append((lead, [x / row[lead] for x in row]))
            low.add(r)
    return low


def assert_pivot_rows_are_the_low_set(n_rows, columns, pivot_rows, seed):
    """The pivot rows are the span's low set, in any column order."""
    want = low_set(n_rows, columns)
    assert set(pivot_rows) == want
    assert set(eliminate_columns(columns[::-1])) == want
    shuffled = list(columns)
    random.Random(seed).shuffle(shuffled)
    assert set(eliminate_columns(shuffled)) == want


def test_eliminate_columns_invariants():
    rng = random.Random(55)
    for _ in range(50):
        dense = random_dense(rng, rng.randint(1, 7), rng.randint(1, 7))
        columns = to_columns(dense)
        pivots = eliminate_columns(columns)
        # each pivot row is its vector's lowest row, and the pivot rows are
        # the span's low set
        for row, col in pivots.items():
            assert col.get(row) == 1
            assert min(col) == row
        assert_pivot_rows_are_the_low_set(len(dense), columns, pivots, rng.random())
        assert len(pivots) == dense_rank(dense)


def columns_of(m):
    """The sparse columns of a GradedMatrix, read from its entries."""
    cols = [{} for _ in m.cols]
    for (i, j), c in m.entries.items():
        cols[j][i] = c
    return cols


def test_graded_matrix_rank_and_cokernel():
    rng = random.Random(7)
    for _ in range(60):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        dense = random_dense(rng, n_rows, n_cols)
        m = GradedMatrix(
            rows=[f"r{i}" for i in range(n_rows)],
            cols=[f"c{j}" for j in range(n_cols)],
            entries={(i, j): int(c) for i, row in enumerate(dense) for j, c in enumerate(row) if c},
        )
        columns = columns_of(m)
        assert columns == to_columns(dense)
        r = dense_rank(dense)
        assert rank_of_columns(columns) == r
        # the non-pivot rows label a cokernel basis
        pivots = eliminate_columns(columns)
        assert len(pivots) == r
        assert set(pivots) <= set(range(n_rows))


def test_zero_matrix():
    m = GradedMatrix(rows=[0, 1], cols=[0], entries={})
    assert columns_of(m) == [{}]
    assert rank_of_columns(columns_of(m)) == 0
    assert eliminate_columns(columns_of(m)) == {}


# ------------------------------------------------- property tests (hypothesis)

BIG = 2**80


@st.composite
def sparse_rational_columns(draw):
    """Sparse rational columns with huge numerators and denominators.

    Besides random columns the list holds zero columns, exact duplicates and
    rational combinations of earlier columns, so rank deficiency is common.
    """
    n_rows = draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    small = st.integers(-3, 3).map(Fraction)
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("random", "zero", "duplicate", "combination")))
        if kind == "zero" or (kind != "random" and not columns):
            columns.append({})
        elif kind == "duplicate":
            columns.append(dict(draw(st.sampled_from(columns))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            ca, cb = draw(entry), draw(entry)
            col = {r: ca * a.get(r, 0) + cb * b.get(r, 0) for r in set(a) | set(b)}
            columns.append({r: c for r, c in col.items() if c})
        else:
            rows = draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows))
            col = {r: draw(st.one_of(entry, small)) for r in rows}
            columns.append({r: c for r, c in col.items() if c})
    return n_rows, columns


def to_dense(n_rows, columns):
    return [[col.get(i, Fraction(0)) for col in columns] for i in range(n_rows)]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(sparse_rational_columns())
def test_rank_and_cokernel_agree_with_dense_oracle(case):
    n_rows, columns = case
    want = dense_rank(to_dense(n_rows, columns))
    assert rank_of_columns(columns) == want
    pivots = eliminate_columns(columns)
    assert len(pivots) == want
    assert set(pivots) <= set(range(n_rows))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(sparse_rational_columns())
def test_eliminate_columns_is_a_reduced_basis_of_the_span(case):
    """Each basis vector is reduced: 1 at its pivot, which is its lowest row
    (echelon, not fully reduced, form), and the pivot rows are the span's
    low set."""
    n_rows, columns = case
    pivots = eliminate_columns(columns)
    for row, vec in pivots.items():
        assert vec[row] == 1
        assert all(isinstance(c, Fraction) and c for c in vec.values())
        assert min(vec) == row
    assert_pivot_rows_are_the_low_set(n_rows, columns, pivots, len(columns))
    basis = list(pivots.values())
    rank_in = dense_rank(to_dense(n_rows, columns))
    assert len(basis) == rank_in
    # the basis lies in the span of the input and has full rank there
    assert dense_rank(to_dense(n_rows, columns + basis)) == rank_in


@st.composite
def columns_sharing_few_rows(draw):
    """Many sparse columns (up to 24) over a small shared row set (8-16 rows).

    Entries are small integers and fractions, and the list holds duplicates
    and small combinations of earlier columns, so most columns reduce to
    zero or to a new pivot whose row older pivot vectors touch.
    """
    n_rows = draw(st.integers(8, 16))
    # small integers half the time, small fractions otherwise
    denominator = st.sampled_from((1, 1, 1, 2, 3, 4))
    entry = st.builds(Fraction, st.integers(-4, 4).filter(bool), denominator)
    columns = []
    for _ in range(draw(st.integers(6, 24))):
        kind = draw(st.sampled_from(("random", "random", "duplicate", "combination")))
        if kind == "random" or not columns:
            rows = st.integers(0, n_rows - 1)
            columns.append(draw(st.dictionaries(rows, entry, min_size=1, max_size=6)))
        elif kind == "duplicate":
            columns.append(dict(draw(st.sampled_from(columns))))
        else:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            ca, cb = draw(entry), draw(entry)
            col = {r: ca * a.get(r, 0) + cb * b.get(r, 0) for r in set(a) | set(b)}
            columns.append({r: c for r, c in col.items() if c})
    return n_rows, columns


@settings(deadline=None, derandomize=True, max_examples=150)
@given(columns_sharing_few_rows(), st.integers(0, 24))
def test_reduce_into_is_echelon_resumable_and_leaves_its_input(case, split):
    n_rows, columns = case
    ints = [_scaled(col)[0] for col in columns]
    before = [dict(col) for col in ints]
    pivots = {}
    _reduce_into(pivots, ints)
    assert ints == before
    want = dense_rank(to_dense(n_rows, columns))
    assert len(pivots) == want
    assert rank_of_columns(columns[::-1]) == want
    for row, vec in pivots.items():
        assert all(type(x) is int and x for x in vec.values())
        assert gcd(*vec.values()) == 1
        # the lowest row is the pivot
        assert min(vec) == row
    assert_pivot_rows_are_the_low_set(n_rows, columns, pivots, split)
    # the echelon vectors span the input
    basis = [{r: Fraction(x) for r, x in vec.items()} for vec in pivots.values()]
    assert dense_rank(to_dense(n_rows, columns + basis)) == want
    # resuming from a saved state gives the same state as one call
    resumed = {}
    _reduce_into(resumed, ints[:split])
    _reduce_into(resumed, ints[split:])
    assert list(resumed.items()) == list(pivots.items())
    assert ints == before
