"""Exact sparse linear algebra over the rationals.

The central routine is a fraction-free column-space elimination over the
integers: every column is scaled to a primitive integer vector (which keeps
its span) and reduced by cross-multiplication into column-echelon form.
Being exact by construction, it needs no certificate.  It returns the rank
together with the set of pivot rows, which is all the cohomology
computations need: kernels come from rank-nullity.

Each new pivot is placed on the lowest row of the reduced column, so a
pivot vector has entries only above its pivot row and none at an older
pivot row.  A rank, and the clearing argument of ``derham`` (by induction
in decreasing pivot row), need only this echelon form.  The span, the rank
and so every dimension do not depend on the pivot rule; the pivot rows do.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
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
    vector is nonzero at its pivot row, has every other entry on a higher
    row, and no entry at a pivot row older than itself; pivot vectors are
    never changed once stored.  A column is reduced by the pivot rows it
    meets in increasing row order (a heap): reducing by the vector of row
    pr adds entries only above pr, so each pivot acts at most once.  A
    reduction cross-multiplies, v <- (p/g) v - (c/g) w with c = v[pr],
    p = w[pr] and g = gcd(p, c), and the content is stripped after every
    step that scales v (p/g != 1) and at the end.  A column that reduces to
    a nonzero vector becomes a pivot on its lowest row.

    The columns are never changed: a column is copied on its first write,
    and one that needs neither reduction nor stripping is stored as it is.
    The rank and the pivot rows do not depend on the reduction order, since
    the reduced column is determined up to a scalar.  Older pivots are
    never reduced by newer ones: a rank needs only echelon form, and
    reducing them was where fill and coefficient growth came from on dense
    input.
    """
    untouched = pivots.keys().isdisjoint
    for v in columns:
        if not untouched(v):
            v = _reduce_column(pivots, v)
        if v:
            g = gcd(*v.values())
            if g != 1:
                v = {r: x // g for r, x in v.items()}
            pivots[min(v)] = v


def _reduce_column(pivots: Dict[int, Dict[int, int]], v: Dict[int, int]) -> Dict[int, int]:
    """v reduced by every pivot row it meets (see ``_reduce_into``); v itself
    is never changed."""
    hits = [r for r in v if r in pivots]
    heapify(hits)
    owned = False
    while hits:
        pr = heappop(hits)
        c = v.get(pr)
        if not c:
            continue  # cancelled, or pushed twice
        w = pivots[pr]
        p = w[pr]
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
                if r in pivots:
                    heappush(hits, r)
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
    return v


def _echelon(columns: Iterable[SparseColumn]) -> Dict[int, Dict[int, int]]:
    """The echelon pivot state of ``_reduce_into`` on rational columns."""
    pivots: Dict[int, Dict[int, int]] = {}
    _reduce_into(pivots, (_scaled(col)[0] for col in columns))
    return pivots


def eliminate_columns(columns: Iterable[SparseColumn]) -> Dict[int, SparseColumn]:
    """Column-space elimination.

    Returns {pivot_row: vector}, the echelon basis of ``_reduce_into`` with
    each vector scaled to 1 at its pivot row: the pivot row is the vector's
    lowest row, and the vector has no entry at an older pivot row.
    """
    return {
        pr: {r: Fraction(x, v[pr]) for r, x in v.items()}
        for pr, v in _echelon(columns).items()
    }


def rank_of_columns(columns: Iterable[SparseColumn]) -> int:
    return len(_echelon(columns))
