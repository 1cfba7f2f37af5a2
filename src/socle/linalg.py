"""Exact sparse linear algebra over the rationals.

The central routine is a fraction-free column-space elimination over the
integers: every column is scaled to a primitive integer vector (which keeps
its span) and reduced by cross-multiplication, with pivot vectors kept fully
reduced against one another.  Being exact by construction, it needs no
certificate.  It returns the rank together with the set of pivot rows, which
is all the cohomology computations need: cokernel representatives are the
non-pivot rows, kernels come from rank-nullity.  ``eliminate_columns``
normalizes the integer basis to rational vectors with 1 at each pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .errors import DimensionMismatch, DomainError

SparseColumn = Dict[int, Fraction]


class GradedMatrix:
    """A sparse rational matrix with labelled rows (target) and columns (source).

    The map sends the basis vector of column ``j`` to
    ``sum_i entries[i, j] * row_i``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(
        self,
        rows: Sequence[Hashable],
        cols: Sequence[Hashable],
        entries: Dict[Tuple[int, int], Fraction] | None = None,
    ):
        self.rows = list(rows)
        self.cols = list(cols)
        self.entries: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), c in (entries or {}).items():
            if not (0 <= i < len(self.rows) and 0 <= j < len(self.cols)):
                raise DimensionMismatch(f"entry ({i},{j}) outside {len(self.rows)}x{len(self.cols)}")
            c = Fraction(c)
            if c:
                self.entries[(i, j)] = c

    @classmethod
    def from_columns(
        cls,
        rows: Sequence[Hashable],
        cols: Sequence[Hashable],
        columns: Sequence[SparseColumn],
    ) -> "GradedMatrix":
        entries = {
            (i, j): c
            for j, col in enumerate(columns)
            for i, c in col.items()
            if c
        }
        return cls(rows, cols, entries)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def columns(self) -> List[SparseColumn]:
        cols: List[SparseColumn] = [{} for _ in self.cols]
        for (i, j), c in self.entries.items():
            cols[j][i] = c
        return cols

    def compose(self, inner: "GradedMatrix") -> "GradedMatrix":
        """Matrix of self applied after inner (self @ inner)."""
        if len(self.cols) != len(inner.rows):
            raise DimensionMismatch("inner target size differs from outer source size")
        out_cols = []
        self_cols = self.columns()
        for col in inner.columns():
            acc: SparseColumn = {}
            for k, c in col.items():
                for i, v in self_cols[k].items():
                    s = acc.get(i, Fraction(0)) + c * v
                    if s:
                        acc[i] = s
                    else:
                        acc.pop(i, None)
            out_cols.append(acc)
        return GradedMatrix.from_columns(self.rows, inner.cols, out_cols)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"GradedMatrix({len(self.rows)}x{len(self.cols)}, nnz={len(self.entries)})"


def _content_free(v: Dict[int, int]) -> Dict[int, int]:
    g = gcd(*v.values())
    return v if g == 1 else {r: x // g for r, x in v.items()}


def _integer_pivots(columns: Iterable[SparseColumn]) -> Dict[int, Dict[int, int]]:
    """Fraction-free column-space elimination over the integers.

    Returns {pivot_row: primitive integer vector}; each vector is nonzero at
    its pivot row and has no entry at any other pivot row, so it is a
    multiple of the reduced rational vector ``eliminate_columns`` returns.
    Each column is first scaled to integers, which keeps its span.  Reducing
    v by a pivot vector w with pivot entry p cross-multiplies,
    v <- (p/g) v - (c/g) w with c = v[pivot] and g = gcd(p, c), and the
    content is stripped after every column and every back-substitution.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    # occurrence index: row -> pivot rows whose vectors touch it
    occur: Dict[int, set] = {}
    for col in columns:
        den = lcm(*(c.denominator for c in col.values()))
        v = {r: c.numerator * (den // c.denominator) for r, c in col.items() if c}
        for pr in [r for r in v if r in pivots]:
            c = v.pop(pr)
            w = pivots[pr]
            g = gcd(w[pr], c)
            a, b = w[pr] // g, c // g
            if a != 1:
                v = {r: a * x for r, x in v.items()}
            for r, x in w.items():
                if r == pr:
                    continue
                s = v.get(r, 0) - b * x
                if s:
                    v[r] = s
                else:
                    v.pop(r, None)
        if not v:
            continue
        v = _content_free(v)
        pr = min(v, key=lambda r: (abs(v[r]).bit_length(), r))
        p = v[pr]
        # keep older pivot vectors free of the new pivot row
        for other in list(occur.get(pr, ())):
            w = pivots[other]
            c = w.pop(pr)
            occur[pr].discard(other)
            g = gcd(p, c)
            a, b = p // g, c // g
            if a != 1:
                for r in w:
                    w[r] *= a
            for r, x in v.items():
                if r == pr:
                    continue
                s = w.get(r, 0) - b * x
                if s:
                    if r not in w:
                        occur.setdefault(r, set()).add(other)
                    w[r] = s
                elif r in w:
                    del w[r]
                    occur[r].discard(other)
            pivots[other] = _content_free(w)
        pivots[pr] = v
        for r in v:
            if r != pr:
                occur.setdefault(r, set()).add(pr)
    return pivots


def eliminate_columns(columns: Iterable[SparseColumn]) -> Dict[int, SparseColumn]:
    """Column-space elimination.

    Returns {pivot_row: vector} where each vector is normalized to 1 at its
    pivot row and carries no entry at any other pivot row, so the vectors
    form a reduced basis of the column space.
    """
    return {
        pr: {r: Fraction(x, v[pr]) for r, x in v.items()}
        for pr, v in _integer_pivots(columns).items()
    }


def rank_of_columns(columns: Iterable[SparseColumn]) -> int:
    return len(_integer_pivots(columns))


def rank(m: GradedMatrix) -> int:
    return rank_of_columns(m.columns())


def solve_cokernel(m: GradedMatrix) -> Tuple[int, List[Hashable]]:
    """Rank and cokernel representatives of a graded matrix.

    The returned labels are the target (row) labels not hit by a pivot, so
    ``rank + len(labels) == number of rows``.
    """
    pivots = _integer_pivots(m.columns())
    labels = [lab for i, lab in enumerate(m.rows) if i not in pivots]
    return len(pivots), labels


def stack_columns(*matrices: GradedMatrix) -> List[SparseColumn]:
    """Columns of several matrices over a shared target, for joint rank computations."""
    if not matrices:
        raise DomainError("need at least one matrix")
    nrows = len(matrices[0].rows)
    cols: List[SparseColumn] = []
    for m in matrices:
        if len(m.rows) != nrows:
            raise DimensionMismatch("stacked matrices must share the target space")
        cols.extend(m.columns())
    return cols
