"""Exact sparse linear algebra over the rationals.

The central routine is a fraction-free column-space elimination over the
integers: every column is scaled to a primitive integer vector (which keeps
its span) and reduced by cross-multiplication into column-echelon form.
Being exact by construction, it needs no certificate.  It returns the rank
together with the set of pivot rows, which is all the cohomology
computations need: kernels come from rank-nullity.

A column is reduced only while its lowest row is a pivot row (the standard
persistence reduction), and a new pivot is placed on that lowest row, so a
pivot vector has entries only above its pivot row.  The pivot rows are then
the lowest rows of the nonzero vectors of the span: a set of exactly rank
elements that depends on the span alone, not on the column order or on the
entries above each pivot.  A rank, the clearing argument of ``derham`` (by
induction in decreasing pivot row) and its cycle split at a row bound (the
pivot vectors at or above the bound span the part of the span there) need
only this echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, Iterable, List, NamedTuple, Tuple

from .poly import _scaled

#: {row: entry}, zero entries never stored
SparseColumn = Dict[int, Fraction]


class GradedMatrix(NamedTuple):
    """A sparse matrix with labelled rows (target) and columns (source), the
    record ``derham.assemble_complex`` returns.

    The map sends the basis vector of column ``j`` to
    ``sum_i entries[i, j] * row_i``; the entries are nonzero ints.
    """

    rows: List[Hashable]
    cols: List[Hashable]
    entries: Dict[Tuple[int, int], int]


def _content_free(v: Dict[int, int]) -> Dict[int, int]:
    g = gcd(*v.values())
    return v if g == 1 else {r: x // g for r, x in v.items()}


def _reduce_into(pivots: Dict[int, Dict[int, int]], columns: Iterable[Dict[int, int]]) -> None:
    """Add integer columns to an echelon pivot state, in place.

    ``pivots`` is {pivot_row: primitive integer vector}; it starts empty,
    and a later call resumes where an earlier one stopped.  Each pivot
    vector is nonzero at its pivot row, which is its lowest row, and has
    every other entry on a higher row; pivot vectors are never changed once
    stored.  A column is reduced only while its lowest row is a pivot row
    (the standard persistence reduction): with pr that row, c = v[pr], w its
    pivot vector, p = w[pr] and g = gcd(p, c), a step cross-multiplies v <-
    (p/g) v - (c/g) w, which clears pr and adds entries only above it.  The
    content is stripped after every step that scales v (p/g != 1) and at the
    end.  A column that reduces to a nonzero vector becomes a pivot on its
    lowest row, which is no pivot row.

    The columns are never changed: a column is copied on its first write,
    and one that needs neither reduction nor stripping is stored as it is.
    The pivot rows are the lowest rows of the nonzero vectors of the span,
    which depend on the span alone, so the rank and the pivot rows do not
    depend on the column order or on how far a column is reduced.  Entries
    above the lowest row are left as they are: a rank and the clearing of
    ``derham`` need only this echelon form, and reducing them too was where
    the fill and the coefficient growth came from on dense input.
    """
    for v in columns:
        owned = False
        while v:
            pr = min(v)
            w = pivots.get(pr)
            if w is None:
                break
            c, p = v[pr], w[pr]
            g = gcd(p, c)
            a, b = p // g, c // g
            if a != 1:
                v = {r: a * x for r, x in v.items() if r != pr}
            else:
                if not owned:
                    v = dict(v)
                del v[pr]
            owned = True
            for r, x in w.items():
                if r == pr:
                    continue
                s = v.get(r)
                if s is None:
                    v[r] = -b * x
                else:
                    s -= b * x
                    if s:
                        v[r] = s
                    else:
                        del v[r]
            if a != 1 and v:
                g = gcd(*v.values())
                if g != 1:
                    v = {r: x // g for r, x in v.items()}
        if v:
            g = gcd(*v.values())
            if g != 1:
                v = {r: x // g for r, x in v.items()}
            pivots[pr] = v


def _echelon(columns: Iterable[SparseColumn]) -> Dict[int, Dict[int, int]]:
    """The echelon pivot state of ``_reduce_into`` on rational columns."""
    pivots: Dict[int, Dict[int, int]] = {}
    _reduce_into(pivots, (_scaled(col)[0] for col in columns))
    return pivots


def eliminate_columns(columns: Iterable[SparseColumn]) -> Dict[int, SparseColumn]:
    """Column-space elimination.

    Returns {pivot_row: vector}, the echelon basis of ``_reduce_into`` with
    each vector scaled to 1 at its pivot row, which is the vector's lowest
    row.  The pivot rows are the lowest rows of the span's nonzero vectors;
    the entries above them depend on the column order.
    """
    return {
        pr: {r: Fraction(x, v[pr]) for r, x in v.items()}
        for pr, v in _echelon(columns).items()
    }


def rank_of_columns(columns: Iterable[SparseColumn]) -> int:
    return len(_echelon(columns))
