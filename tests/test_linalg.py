"""Sparse elimination checked against a dense textbook implementation."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from socle.linalg import (
    GradedMatrix,
    eliminate_columns,
    rank,
    rank_of_columns,
    solve_cokernel,
    stack_columns,
)


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


def test_eliminate_columns_invariants():
    rng = random.Random(55)
    for _ in range(50):
        dense = random_dense(rng, rng.randint(1, 7), rng.randint(1, 7))
        pivots = eliminate_columns(to_columns(dense))
        # pivot rows are distinct, and no pivot vector touches another pivot row
        for row, col in pivots.items():
            assert col.get(row)
            for other in pivots:
                if other != row:
                    assert other not in col
        assert len(pivots) == dense_rank(dense)


def test_graded_matrix_rank_and_cokernel():
    rng = random.Random(7)
    for _ in range(60):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        dense = random_dense(rng, n_rows, n_cols)
        m = GradedMatrix(
            rows=[f"r{i}" for i in range(n_rows)],
            cols=[f"c{j}" for j in range(n_cols)],
            entries={
                (i, j): dense[i][j]
                for i in range(n_rows)
                for j in range(n_cols)
                if dense[i][j]
            },
        )
        r = dense_rank(dense)
        assert rank(m) == r
        got_rank, coker = solve_cokernel(m)
        assert got_rank == r
        assert len(coker) == n_rows - r
        assert all(label in m.rows for label in coker)


def test_compose_matches_dense_product():
    rng = random.Random(19)
    for _ in range(40):
        a_rows, inner, b_cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_dense(rng, a_rows, inner)
        b = random_dense(rng, inner, b_cols)
        ma = GradedMatrix(
            rows=list(range(a_rows)),
            cols=list(range(inner)),
            entries={(i, j): a[i][j] for i in range(a_rows) for j in range(inner) if a[i][j]},
        )
        mb = GradedMatrix(
            rows=list(range(inner)),
            cols=list(range(b_cols)),
            entries={(i, j): b[i][j] for i in range(inner) for j in range(b_cols) if b[i][j]},
        )
        prod = ma.compose(mb)
        dense_prod = [
            [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(b_cols)]
            for i in range(a_rows)
        ]
        assert rank(prod) == dense_rank(dense_prod)
        for j, col in enumerate(prod.columns()):
            for i in range(a_rows):
                assert col.get(i, Fraction(0)) == dense_prod[i][j]


def test_stack_columns_unions_the_column_sets():
    m1 = GradedMatrix(rows=[0, 1], cols=["a"], entries={(0, 0): Fraction(1)})
    m2 = GradedMatrix(rows=[0, 1], cols=["b"], entries={(1, 0): Fraction(2)})
    stacked = stack_columns(m1, m2)
    assert rank_of_columns(stacked) == 2


def test_zero_matrix():
    m = GradedMatrix(rows=[0, 1], cols=[0], entries={})
    assert m.is_zero()
    assert rank(m) == 0
    got_rank, coker = solve_cokernel(m)
    assert got_rank == 0 and len(coker) == 2


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
    m = GradedMatrix.from_columns(list(range(n_rows)), list(range(len(columns))), columns)
    got_rank, coker = solve_cokernel(m)
    assert got_rank == want
    assert len(coker) == n_rows - want


@settings(deadline=None, derandomize=True, max_examples=150)
@given(sparse_rational_columns())
def test_eliminate_columns_is_a_reduced_basis_of_the_span(case):
    n_rows, columns = case
    pivots = eliminate_columns(columns)
    for row, vec in pivots.items():
        assert vec[row] == 1
        assert all(isinstance(c, Fraction) and c for c in vec.values())
        assert not any(other in vec for other in pivots if other != row)
    basis = list(pivots.values())
    rank_in = dense_rank(to_dense(n_rows, columns))
    assert len(basis) == rank_in
    # the basis lies in the span of the input and has full rank there
    assert dense_rank(to_dense(n_rows, columns + basis)) == rank_in
