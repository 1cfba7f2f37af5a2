"""De Rham cohomology engines for explicit modules over polynomial rings.

Two independent routes are provided and cross-checked in the test suite:

* closed forms, where a formula is known (polynomial ring, injective hull of
  the origin, localization at a squarefree monomial, direct sums);
* a truncated complex engine that assembles the actual graded pieces of the
  de Rham complex and computes ranks with exact fraction-free elimination
  over the integers.

The truncation engine filters by pole order: the subcomplex F_K allows pole
order at most K + j in form degree j, which is stable under d, and raising K
gives forward maps whose stabilization is the certification signal.  For a
homogeneous input everything splits by internal weight (degree of the
coefficient minus pole-order times degree of f, plus form degree); the
contraction against the Euler vector field gives d(i_E w) + i_E(d w) = tau*w
on the weight-tau piece, so every class of nonzero weight dies in the limit
and the default window computes only weight 0.  Wider windows remain
available for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyComplexError,
    InconsistentSequenceError,
    InternalCheckError,
    UnsupportedSpecError,
)
from .grammar import parse_poly
from .linalg import GradedMatrix, rank_of_columns
from .poly import MultiPoly, graded_piece_basis
from .series import TruncatedSeries


# ------------------------------------------------------------- result types


@dataclass(frozen=True)
class DeRhamDims:
    """Cohomology dimensions indexed by form degree 0..n."""

    dims: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 0 for d in self.dims):
            raise DomainError("cohomology dimensions cannot be negative")

    @property
    def euler(self) -> int:
        return sum((-1) ** j * d for j, d in enumerate(self.dims))

    def __getitem__(self, j):
        return self.dims[j]

    def __len__(self):
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __eq__(self, other):
        if isinstance(other, DeRhamDims):
            return self.dims == other.dims
        if isinstance(other, (list, tuple)):
            return list(self.dims) == list(other)
        return NotImplemented

    def __hash__(self):
        # equal to tuples, so it must hash like one
        return hash(self.dims)


@dataclass(frozen=True)
class TruncationReport:
    """Provenance of a truncated computation.

    ``certificate`` is "exact" when the graded pieces do not depend on the
    cutoff at all, otherwise "stabilized" or "provisional" according to
    whether two successive cutoffs agreed.  ``smooth`` records the Jacobian
    finiteness gate for hypersurface inputs (None when not applicable);
    non-smooth inputs still run but their stabilization is only heuristic.
    """

    cutoffs: Tuple[int, int]
    window: Tuple[int, int]
    dims_low: Tuple[int, ...]
    dims_high: Tuple[int, ...]
    stabilized: bool
    certificate: str
    smooth: Optional[bool] = None

    def to_json(self) -> dict:
        out = {
            "cutoffs": list(self.cutoffs),
            "window": list(self.window),
            "dims_at_low_cutoff": list(self.dims_low),
            "stabilized": self.stabilized,
            "certificate": self.certificate,
        }
        if self.smooth is not None:
            out["smooth"] = self.smooth
        return out


# ------------------------------------------------------------- module specs


@dataclass(frozen=True)
class PolynomialRing:
    n_vars: int


@dataclass(frozen=True)
class InjectiveHull:
    """Injective hull of the residue field at the origin (inverse monomials)."""

    n_vars: int


@dataclass(frozen=True)
class MonomialLocalization:
    """Localization of the polynomial ring at a product of distinct variables."""

    n_vars: int
    inverted: frozenset

    def __post_init__(self):
        object.__setattr__(self, "inverted", frozenset(self.inverted))
        if any(not 0 <= i < self.n_vars for i in self.inverted):
            raise DimensionMismatch("inverted variable index out of range")


@dataclass(eq=False, frozen=True)
class HypersurfaceLocalization:
    """Localization at a homogeneous f, optionally modulo the ring itself."""

    f: MultiPoly
    quotient_mod_A: bool = False

    def __post_init__(self):
        if not self.f or not self.f.is_homogeneous() or self.f.homogeneous_degree() < 1:
            raise DomainError("localization needs a nonzero homogeneous f of degree >= 1")


@dataclass(eq=False, frozen=True)
class RankOneConnection:
    """k[x] with the twisted derivation a -> a' + a*p."""

    p: MultiPoly

    def __post_init__(self):
        if self.p.n_vars != 1:
            raise DomainError("rank-one connections are one-variable objects")


@dataclass(eq=False, frozen=True)
class DirectSum:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise DomainError("direct sum needs at least one part")


ModuleSpec = Union[
    PolynomialRing,
    InjectiveHull,
    MonomialLocalization,
    HypersurfaceLocalization,
    RankOneConnection,
    DirectSum,
]


def spec_to_json(spec: ModuleSpec) -> dict:
    if isinstance(spec, PolynomialRing):
        return {"kind": "R", "vars": spec.n_vars}
    if isinstance(spec, InjectiveHull):
        return {"kind": "E", "vars": spec.n_vars}
    if isinstance(spec, MonomialLocalization):
        f = MultiPoly.one(spec.n_vars)
        for i in sorted(spec.inverted):
            f = f * MultiPoly.variable(spec.n_vars, i)
        return {"kind": "loc", "f": f.render(), "vars": spec.n_vars}
    if isinstance(spec, HypersurfaceLocalization):
        kind = "loc-quot" if spec.quotient_mod_A else "loc"
        return {"kind": kind, "f": spec.f.render(), "vars": spec.f.n_vars}
    if isinstance(spec, RankOneConnection):
        return {"kind": "rank-one", "f": spec.p.render(), "vars": 1}
    if isinstance(spec, DirectSum):
        return {"kind": "sum", "parts": [spec_to_json(p) for p in spec.parts]}
    raise UnsupportedSpecError(f"unknown spec {spec!r}")


def _squarefree_variable_set(f: MultiPoly) -> Optional[frozenset]:
    """The variable set when f is a coefficient-1 product of distinct variables."""
    if len(f.terms) != 1:
        return None
    (exp, c), = f.terms.items()
    if c != 1 or any(e > 1 for e in exp):
        return None
    return frozenset(i for i, e in enumerate(exp) if e == 1)


def spec_from_json(data: dict) -> ModuleSpec:
    kind = data.get("kind")
    if kind == "R":
        return PolynomialRing(int(data["vars"]))
    if kind == "E":
        return InjectiveHull(int(data["vars"]))
    if kind in ("loc", "loc-quot"):
        n = int(data["vars"]) if "vars" in data else None
        f = parse_poly(data["f"], n)
        if kind == "loc":
            s = _squarefree_variable_set(f)
            if s is not None:
                return MonomialLocalization(f.n_vars, s)
        return HypersurfaceLocalization(f, quotient_mod_A=(kind == "loc-quot"))
    if kind == "rank-one":
        return RankOneConnection(parse_poly(data["f"], 1))
    if kind == "sum":
        return DirectSum(tuple(spec_from_json(p) for p in data["parts"]))
    raise UnsupportedSpecError(f"unknown module kind {kind!r}")


def ambient_vars(spec: ModuleSpec) -> int:
    if isinstance(spec, (PolynomialRing, InjectiveHull, MonomialLocalization)):
        return spec.n_vars
    if isinstance(spec, HypersurfaceLocalization):
        return spec.f.n_vars
    if isinstance(spec, RankOneConnection):
        return 1
    if isinstance(spec, DirectSum):
        sizes = {ambient_vars(p) for p in spec.parts}
        if len(sizes) != 1:
            raise DimensionMismatch("direct sum parts live over different variable counts")
        return sizes.pop()
    raise UnsupportedSpecError(f"unknown spec {spec!r}")


# -------------------------------------------------------------- closed forms


def derham_closed_form(spec: ModuleSpec) -> DeRhamDims:
    """Known-answer route: R, E, monomial localizations, and direct sums."""
    if isinstance(spec, PolynomialRing):
        return DeRhamDims((1,) + (0,) * spec.n_vars)
    if isinstance(spec, InjectiveHull):
        return DeRhamDims((0,) * spec.n_vars + (1,))
    if isinstance(spec, MonomialLocalization):
        m = len(spec.inverted)
        return DeRhamDims(tuple(comb(m, j) for j in range(spec.n_vars + 1)))
    if isinstance(spec, DirectSum):
        parts = [derham_closed_form(p) for p in spec.parts]
        n = ambient_vars(spec)
        return DeRhamDims(tuple(sum(p[j] for p in parts) for j in range(n + 1)))
    raise UnsupportedSpecError(
        f"no closed form for {type(spec).__name__}; use the truncation engine"
    )


# ------------------------------------------------- graded complex assembly


def _wedge_sign(i: int, index_set: Tuple[int, ...]) -> int:
    return -1 if sum(1 for k in index_set if k < i) % 2 else 1


def _insert_sorted(i: int, index_set: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(index_set + (i,)))


def assemble_complex(spec: ModuleSpec, cutoff: int, tau: int):
    """Graded piece of the de Rham complex at internal weight tau.

    Returns (bases, diffs, incls):
      bases[j]  -- list of column labels in form degree j,
      diffs[j]  -- GradedMatrix C^j -> C^(j+1),
      incls[j]  -- inclusion of the polynomial subcomplex (hypersurface
                   quotient mode only, else None).
    """
    if isinstance(spec, MonomialLocalization):
        if not spec.inverted:
            return assemble_complex(PolynomialRing(spec.n_vars), cutoff, tau)
        f = MultiPoly.one(spec.n_vars)
        for i in sorted(spec.inverted):
            f = f * MultiPoly.variable(spec.n_vars, i)
        return assemble_complex(HypersurfaceLocalization(f), cutoff, tau)

    if isinstance(spec, PolynomialRing):
        n = spec.n_vars
        bases = [
            [(I, e) for I in combinations(range(n), j) for e in graded_piece_basis(tau - j, n)]
            for j in range(n + 1)
        ]
        diffs = []
        for j in range(n):
            index = {lab: i for i, lab in enumerate(bases[j + 1])}
            cols = []
            for I, e in bases[j]:
                col: Dict[int, Fraction] = {}
                for i in range(n):
                    if i in I or not e[i]:
                        continue
                    shifted = list(e)
                    shifted[i] -= 1
                    row = index[(_insert_sorted(i, I), tuple(shifted))]
                    col[row] = Fraction(e[i] * _wedge_sign(i, I))
                cols.append(col)
            diffs.append(GradedMatrix.from_columns(bases[j + 1], bases[j], cols))
        return bases, diffs, None

    if isinstance(spec, InjectiveHull):
        n = spec.n_vars
        bases = []
        for j in range(n + 1):
            weight = j - tau  # total inverse-monomial degree
            if weight < n or weight > cutoff + j:
                bases.append([])
                continue
            vecs = [
                tuple(e + 1 for e in inner)
                for inner in graded_piece_basis(weight - n, n)
            ]
            bases.append([(I, a) for I in combinations(range(n), j) for a in vecs])
        diffs = []
        for j in range(n):
            index = {lab: i for i, lab in enumerate(bases[j + 1])}
            cols = []
            for I, a in bases[j]:
                col: Dict[int, Fraction] = {}
                for i in range(n):
                    if i in I:
                        continue
                    bumped = list(a)
                    bumped[i] += 1
                    key = (_insert_sorted(i, I), tuple(bumped))
                    row = index.get(key)
                    if row is not None:
                        col[row] = Fraction(-a[i] * _wedge_sign(i, I))
                cols.append(col)
            diffs.append(GradedMatrix.from_columns(bases[j + 1], bases[j], cols))
        return bases, diffs, None

    if isinstance(spec, HypersurfaceLocalization):
        f = spec.f
        n = f.n_vars
        D = f.homogeneous_degree()
        partials = [f.partial_derivative(i) for i in range(n)]
        bases = []
        for j in range(n + 1):
            deg = tau - j + (cutoff + j) * D
            bases.append(
                [(I, e) for I in combinations(range(n), j) for e in graded_piece_basis(deg, n)]
            )
        diffs = []
        for j in range(n):
            k = cutoff + j
            index = {lab: i for i, lab in enumerate(bases[j + 1])}
            cols = []
            for I, e in bases[j]:
                g = MultiPoly.monomial(n, e)
                col: Dict[int, Fraction] = {}
                for i in range(n):
                    if i in I:
                        continue
                    sign = _wedge_sign(i, I)
                    numer = f * g.partial_derivative(i) - k * g * partials[i]
                    J = _insert_sorted(i, I)
                    for exp, c in numer.terms.items():
                        row = index[(J, exp)]
                        s = col.get(row, Fraction(0)) + sign * c
                        if s:
                            col[row] = s
                        else:
                            col.pop(row, None)
                cols.append(col)
            diffs.append(GradedMatrix.from_columns(bases[j + 1], bases[j], cols))
        incls = None
        if spec.quotient_mod_A:
            incls = []
            fpow: Dict[int, MultiPoly] = {}

            def f_power(k: int) -> MultiPoly:
                if k not in fpow:
                    fpow[k] = f ** k
                return fpow[k]

            for j in range(n + 1):
                k = cutoff + j
                index = {lab: i for i, lab in enumerate(bases[j])}
                sub = [
                    (I, a)
                    for I in combinations(range(n), j)
                    for a in graded_piece_basis(tau - j, n)
                ]
                cols = []
                for I, a in sub:
                    numer = MultiPoly.monomial(n, a) * f_power(k)
                    cols.append({index[(I, exp)]: c for exp, c in numer.terms.items()})
                incls.append(GradedMatrix.from_columns(bases[j], sub, cols))
        return bases, diffs, incls

    raise UnsupportedSpecError(
        f"the truncation engine does not assemble {type(spec).__name__}"
    )


def plain_complex_dims(bases, diffs, incls=None) -> List[int]:
    """Cohomology of one assembled complex at a fixed cutoff (no persistence).

    Useful for diagnostics and for exact cases; a fixed cutoff can carry
    transient classes that die one cutoff later, so certified numbers come
    from the persistent route below.
    """
    n_pos = len(bases)
    if incls is None:
        ranks = [rank_of_columns(diffs[j].columns()) for j in range(n_pos - 1)]
        ranks.append(0)
        sub_dims = [0] * n_pos
        induced = ranks
    else:
        sub_dims = [len(m.cols) for m in incls]
        induced = []
        for j in range(n_pos - 1):
            stacked = diffs[j].columns() + incls[j + 1].columns()
            induced.append(rank_of_columns(stacked) - sub_dims[j + 1])
        induced.append(0)
    out = []
    for j in range(n_pos):
        below = induced[j - 1] if j else 0
        h = len(bases[j]) - sub_dims[j] - induced[j] - below
        if h < 0:
            raise InternalCheckError("negative cohomology dimension in truncated complex")
        out.append(h)
    return out


def _embed_columns(spec: ModuleSpec, base_from, index_to):
    """Columns of the cutoff-raising chain map on one position's basis.

    For pole complexes the map multiplies the numerator by f; for the
    polynomial ring and the injective hull the bases are literally nested.
    """
    if isinstance(spec, HypersurfaceLocalization):
        f = spec.f
        cols = []
        for I, e in base_from:
            col: Dict[int, Fraction] = {}
            for fe, fc in f.terms.items():
                key = (I, tuple(a + b for a, b in zip(e, fe)))
                col[index_to[key]] = fc
            cols.append(col)
        return cols
    return [{index_to[lab]: Fraction(1)} for lab in base_from]


def _persistent_tau_dims(
    spec: ModuleSpec, lo_cut: int, hi_cut: int, tau: int, assembled: Dict[Tuple[int, int], tuple]
) -> Tuple[List[int], int]:
    """Ranks of H^j(F_lo) -> H^j(F_hi) for the weight-tau piece.

    ``assembled`` maps (cutoff, tau) to the complex already assembled for
    this spec, so successive cutoff pairs share their common complex.

    Uses only matrix ranks: writing Z for cycles of the low complex, B' for
    boundaries of the high one, and A for the polynomial subcomplex in
    quotient mode,

        rank H^j = rank M - rank[i(d C_j) | A'_{j+1}] - rank[d' C'_{j-1} | A'_j]

    where M sends (u, w, a, b) to (i u + d' w + a, i(d u) + b); the fiber of
    M over second coordinate zero is exactly the image of the low cycles in
    the high complex modulo nothing, which makes the formula an inclusion-
    exclusion of plain ranks.
    """
    if isinstance(spec, MonomialLocalization):
        if not spec.inverted:
            return _persistent_tau_dims(PolynomialRing(spec.n_vars), lo_cut, hi_cut, tau, assembled)
        f = MultiPoly.one(spec.n_vars)
        for i in sorted(spec.inverted):
            f = f * MultiPoly.variable(spec.n_vars, i)
        return _persistent_tau_dims(HypersurfaceLocalization(f), lo_cut, hi_cut, tau, assembled)

    for cut in (lo_cut, hi_cut):
        if (cut, tau) not in assembled:
            assembled[(cut, tau)] = assemble_complex(spec, cut, tau)
    bases_lo, diffs_lo, incls_lo = assembled[(lo_cut, tau)]
    bases_hi, diffs_hi, incls_hi = assembled[(hi_cut, tau)]
    n_pos = len(bases_lo)
    count = sum(len(b) for b in bases_lo) + sum(len(b) for b in bases_hi)
    index_hi = [{lab: i for i, lab in enumerate(b)} for b in bases_hi]
    embed = [_embed_columns(spec, bases_lo[j], index_hi[j]) for j in range(n_pos)]
    diff_lo_cols = [m.columns() for m in diffs_lo]
    diff_hi_cols = [m.columns() for m in diffs_hi]
    a_hi_cols = [m.columns() for m in incls_hi] if incls_hi is not None else None

    # i(d u) for every low column, position by position
    pushed: List[List[Dict[int, Fraction]]] = []
    for j in range(n_pos):
        cols = []
        if j < n_pos - 1:
            emb_next = embed[j + 1]
            for du in diff_lo_cols[j]:
                acc: Dict[int, Fraction] = {}
                for r, c in du.items():
                    for rr, cc in emb_next[r].items():
                        s = acc.get(rr, Fraction(0)) + c * cc
                        if s:
                            acc[rr] = s
                        else:
                            acc.pop(rr, None)
                cols.append(acc)
        else:
            cols = [{} for _ in bases_lo[j]]
        pushed.append(cols)

    dims = []
    rank_bot_cache: Dict[int, int] = {}

    def bot_columns(j: int):
        cols = list(diff_hi_cols[j - 1]) if j > 0 else []
        if a_hi_cols is not None:
            cols = cols + a_hi_cols[j]
        return cols

    for j in range(n_pos):
        top_cols = list(pushed[j])
        if a_hi_cols is not None and j + 1 < n_pos:
            top_cols += a_hi_cols[j + 1]
        rank_top = rank_of_columns(c for c in top_cols if c)
        if j not in rank_bot_cache:
            rank_bot_cache[j] = rank_of_columns(c for c in bot_columns(j) if c)
        rank_bot = rank_bot_cache[j]

        offset = len(bases_hi[j])
        m_cols: List[Dict[int, Fraction]] = []
        for idx in range(len(bases_lo[j])):
            col = dict(embed[j][idx])
            for r, c in pushed[j][idx].items():
                col[offset + r] = c
            m_cols.append(col)
        if j > 0:
            m_cols += diff_hi_cols[j - 1]
        if a_hi_cols is not None:
            m_cols += a_hi_cols[j]
            if j + 1 < n_pos:
                m_cols += [{offset + r: c for r, c in col.items()} for col in a_hi_cols[j + 1]]
        rank_m = rank_of_columns(c for c in m_cols if c)

        h = rank_m - rank_top - rank_bot
        if h < 0:
            raise InternalCheckError("negative persistent rank in truncated complex")
        dims.append(h)
    return dims, count


def _dims_for_pair(
    spec: ModuleSpec,
    lo_cut: int,
    hi_cut: int,
    window: Tuple[int, int],
    assembled: Dict[Tuple[int, int], tuple],
) -> Tuple[Tuple[int, ...], int]:
    n = ambient_vars(spec)
    total = [0] * (n + 1)
    basis_count = 0
    for tau in range(window[0], window[1] + 1):
        piece, count = _persistent_tau_dims(spec, lo_cut, hi_cut, tau, assembled)
        basis_count += count
        for j in range(n + 1):
            total[j] += piece[j]
    return tuple(total), basis_count


def jacobian_ring_is_finite(f: MultiPoly) -> bool:
    """Smoothness gate: is k[x]/(partials of f) finite-dimensional?

    Checked at the single degree N*(D-2)+1, one past the top socle degree a
    regular sequence of N forms of degree D-1 can have; linear forms are
    trivially smooth.
    """
    if not f or not f.is_homogeneous():
        raise DomainError("the gate applies to nonzero homogeneous polynomials")
    n = f.n_vars
    D = f.homogeneous_degree()
    if D == 1:
        return True
    e = n * (D - 2) + 1
    target = graded_piece_basis(e, n)
    index = {exp: i for i, exp in enumerate(target)}
    cols = []
    for i in range(n):
        dfi = f.partial_derivative(i)
        if not dfi:
            continue
        for m in graded_piece_basis(e - (D - 1), n):
            prod = MultiPoly.monomial(n, m) * dfi
            cols.append({index[exp]: c for exp, c in prod.terms.items()})
    return rank_of_columns(cols) == len(target)


def derham_truncated(
    spec: ModuleSpec,
    pole_cutoff: int,
    degree_window: Optional[Tuple[int, int]] = None,
) -> Tuple[DeRhamDims, TruncationReport]:
    """Dimensions of each de Rham cohomology group from truncated complexes.

    Computes the graded complex at two successive pole cutoffs and reports
    dims at the higher one; ``stabilized`` means the two agreed.  The default
    window is the zero-weight piece, which carries every stable class (see
    the module docstring); pass an explicit ``degree_window`` to inspect
    transient weights.
    """
    if pole_cutoff < 1:
        raise DomainError("pole cutoff must be at least 1")
    if isinstance(spec, DirectSum):
        raise UnsupportedSpecError("run the truncation engine on the summands instead")
    if isinstance(spec, RankOneConnection):
        precision = max(pole_cutoff, int(max(spec.p.degree(), 0)) + 3)
        dims = derham_rank_one(spec.p, precision)
        report = TruncationReport(
            cutoffs=(precision, precision),
            window=(0, 0),
            dims_low=dims.dims,
            dims_high=dims.dims,
            stabilized=True,
            certificate="exact",
        )
        return dims, report

    window = tuple(degree_window) if degree_window is not None else (0, 0)
    if window[0] > window[1]:
        raise DomainError("degree window must be nondecreasing")

    # the polynomial-ring complex ignores the cutoff entirely; the injective
    # hull does too once the cutoff clears the window (its basis constraint
    # is a condition on the weight alone)
    if isinstance(spec, PolynomialRing):
        single_pass = True
    elif isinstance(spec, InjectiveHull):
        single_pass = window == (0, 0) or -window[0] <= pole_cutoff - 1
    else:
        single_pass = False

    if single_pass:
        n = ambient_vars(spec)
        total = [0] * (n + 1)
        basis_count = 0
        for tau in range(window[0], window[1] + 1):
            bases, diffs, incls = assemble_complex(spec, pole_cutoff, tau)
            basis_count += sum(len(b) for b in bases)
            piece = plain_complex_dims(bases, diffs, incls)
            for j in range(n + 1):
                total[j] += piece[j]
        if basis_count == 0:
            raise EmptyComplexError(f"no basis elements in window {window} at cutoff {pole_cutoff}")
        dims = tuple(total)
        report = TruncationReport(
            cutoffs=(pole_cutoff, pole_cutoff),
            window=window,
            dims_low=dims,
            dims_high=dims,
            stabilized=True,
            certificate="exact",
            smooth=None,
        )
        return DeRhamDims(dims), report

    # certified route: ranks of the maps H(F_{K-2}) -> H(F_{K-1}) -> H(F_K);
    # agreement of the two persistent tables is the stabilization signal
    assembled: Dict[Tuple[int, int], tuple] = {}
    high_pair = (max(1, pole_cutoff - 1), pole_cutoff)
    dims_high, count_high = _dims_for_pair(spec, *high_pair, window, assembled)
    if pole_cutoff >= 3:
        low_pair = (pole_cutoff - 2, pole_cutoff - 1)
        dims_low, count_low = _dims_for_pair(spec, *low_pair, window, assembled)
        stabilized = dims_low == dims_high
    else:
        low_pair = high_pair
        dims_low, count_low = dims_high, count_high
        stabilized = False  # a single pair is never self-certifying
    if count_low == 0 and count_high == 0:
        raise EmptyComplexError(
            f"no basis elements in window {window} at cutoffs {(low_pair[0], pole_cutoff)}"
        )

    smooth = None
    if isinstance(spec, MonomialLocalization) and spec.inverted:
        product = MultiPoly.one(spec.n_vars)
        for i in sorted(spec.inverted):
            product = product * MultiPoly.variable(spec.n_vars, i)
        smooth = jacobian_ring_is_finite(product)
    elif isinstance(spec, HypersurfaceLocalization):
        smooth = jacobian_ring_is_finite(spec.f)
    certificate = "stabilized" if stabilized else "provisional"

    report = TruncationReport(
        cutoffs=(high_pair[0], pole_cutoff),
        window=window,
        dims_low=dims_low,
        dims_high=dims_high,
        stabilized=stabilized,
        certificate=certificate,
        smooth=smooth,
    )
    return DeRhamDims(dims_high), report


# ---------------------------------------------------------------- rank one


def derham_rank_one(p: MultiPoly, precision: int = 12) -> DeRhamDims:
    """Kernel and cokernel dimensions of a -> a' + a*p on one-variable polynomials.

    The matrix route: domain polynomials of degree < K, codomain degree
    < K + deg p (K - 1 for p = 0, K for constant p, so that the map is exact
    on the top slice).  For K > deg p + 2 the answer is independent of K:
    [1, 0] for p = 0, [0, 0] for nonzero constants, [0, deg p] otherwise.
    """
    if p.n_vars != 1:
        raise DomainError("rank-one connections are one-variable objects")
    deg = p.degree()
    shift = -1 if not p else (0 if deg == 0 else int(deg))
    if precision <= max(int(deg) if p else 0, 0) + 2:
        raise DomainError("precision too small; need at least deg p + 3")
    k = precision
    rows = list(range(k + shift))
    cols = []
    for m in range(k):
        col: Dict[int, Fraction] = {}
        if m:
            col[m - 1] = Fraction(m)
        for (e,), c in p.terms.items():
            s = col.get(m + e, Fraction(0)) + c
            if s:
                col[m + e] = s
            else:
                col.pop(m + e, None)
        cols.append(col)
    r = rank_of_columns(cols)
    return DeRhamDims((k - r, (k + shift) - r))


def completion_flattening(p: MultiPoly, precision: int) -> TruncatedSeries:
    """The unit u = exp(-integral of p) that flattens the rank-one connection.

    After completion, (d/dx + p) u = 0, so conjugating by u turns the twisted
    derivation into the plain one.  The returned series is verified to kill
    the connection through degree precision - 2.
    """
    if p.n_vars != 1:
        raise DomainError("rank-one connections are one-variable objects")
    if precision < 2:
        raise DomainError("precision must be at least 2")
    integral = {(e + 1,): c / (e + 1) for (e,), c in p.terms.items()}
    u = TruncatedSeries(1, precision, {e: -c for e, c in integral.items()}).exp()
    residual = u.differentiate(0) + TruncatedSeries.from_poly(p, precision - 1) * u
    if residual:
        raise InternalCheckError("flattening unit failed its defining equation")
    return u


# ------------------------------------------------------------------ splicing


def les_splice(
    sub: Sequence[int],
    total: Sequence[int],
    connecting_ranks: Sequence[int],
) -> DeRhamDims:
    """Quotient dimensions from a long exact sequence.

    Input: dimension tables for the sub and total objects (same length) and
    the ranks of the connecting maps quotient^j -> sub^(j+1).  Exactness of

        ... -> sub^j -> total^j -> quotient^j -> sub^(j+1) -> ...

    determines every quotient dimension; contradictory data raises
    InconsistentSequenceError.
    """
    if len(sub) != len(total) or len(connecting_ranks) != len(sub):
        raise InconsistentSequenceError("tables must share one length")
    if any(v < 0 for v in (*sub, *total, *connecting_ranks)):
        raise InconsistentSequenceError("dimensions and ranks must be nonnegative")
    length = len(sub)
    quotient = []
    alpha = sub[0]  # rank of sub^0 -> total^0, injective since nothing precedes it
    for j in range(length):
        if alpha > total[j]:
            raise InconsistentSequenceError(
                f"sub^{j} cannot inject modulo the previous connecting image"
            )
        beta = total[j] - alpha
        delta = connecting_ranks[j]
        quotient.append(beta + delta)
        nxt = sub[j + 1] if j + 1 < length else 0
        if delta > nxt:
            raise InconsistentSequenceError(
                f"connecting map out of quotient^{j} overshoots sub^{j + 1}"
            )
        alpha = nxt - delta
    return DeRhamDims(tuple(quotient))
