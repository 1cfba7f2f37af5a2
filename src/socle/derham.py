"""De Rham cohomology engines for explicit modules over polynomial rings.

Two independent routes are provided and cross-checked in the test suite:

* closed forms, where a formula is known (polynomial ring, injective hull of
  the origin, localization at a squarefree monomial, direct sums);
* a truncated complex engine that assembles the actual graded pieces of the
  de Rham complex and computes ranks with exact fraction-free elimination
  over the integers.

The truncation engine filters by pole order: the subcomplex F_K allows pole
order at most K + j in form degree j, which is stable under d, and raising K
gives forward maps whose stabilization is the certification signal.  Every
table comes from one rank formula for the persistent cohomology of a pair of
cutoffs.  Where the complex ignores the cutoff (R, and E once the cutoff
clears the window) the pair is one cutoff twice, the map is the identity and
one pass is exact; otherwise two successive pairs are compared.  For a
homogeneous input everything splits by internal weight (degree of the
coefficient minus pole-order times degree of f, plus form degree); the
contraction against the Euler vector field gives d(i_E w) + i_E(d w) = tau*w
on the weight-tau piece, so every class of nonzero weight dies in the limit
and the default window computes only weight 0.  An explicit window sums the
tables of several weights, which the tests use to see the nonzero weights
vanish.

Pole-complex entries are written from their closed form, with no polynomial
products: for g = x^e and f = sum_a c_a x^a the numerator of d(g/f^k) in
direction i is f dg/dx_i - k g df/dx_i = sum_a c_a (e_i - k a_i) x^(e+a-1_i),
and distinct terms of f land on distinct monomials.  The polynomial ring is
the pole complex of f = 1; E keeps its own rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyComplexError,
    InconsistentSequenceError,
    InternalCheckError,
    UnsupportedSpecError,
)
from .grammar import parse_poly
from .linalg import GradedMatrix, _compose_columns, rank_of_columns
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


class ModuleSpec:
    """Base of the module specs.  Every question whose answer depends on the
    kind of module is a method here, overridden by the kinds it concerns."""

    def to_json(self) -> dict:
        raise NotImplementedError

    def ambient_vars(self) -> int:
        return self.n_vars

    def closed_form(self) -> DeRhamDims:
        raise UnsupportedSpecError(
            f"no closed form for {type(self).__name__}; use the truncation engine"
        )

    def engine(self) -> "ModuleSpec":
        """The spec whose complex the truncation engine assembles."""
        return self

    def cutoff_free(self, pole_cutoff: int, window: Tuple[int, int]) -> bool:
        """Whether the complex at this cutoff and window ignores the cutoff,
        so one pass is exact and no second cutoff is compared."""
        return False


def _check_vars(n_vars: int) -> None:
    if n_vars < 0:
        raise DomainError(f"the variable count must be nonnegative, got {n_vars}")


@dataclass(frozen=True)
class PolynomialRing(ModuleSpec):
    n_vars: int

    def __post_init__(self):
        _check_vars(self.n_vars)

    def to_json(self) -> dict:
        return {"kind": "R", "vars": self.n_vars}

    def closed_form(self) -> DeRhamDims:
        return DeRhamDims((1,) + (0,) * self.n_vars)

    def cutoff_free(self, pole_cutoff: int, window: Tuple[int, int]) -> bool:
        return True  # no poles: the complex never sees the cutoff


@dataclass(frozen=True)
class InjectiveHull(ModuleSpec):
    """Injective hull of the residue field at the origin (inverse monomials)."""

    n_vars: int

    def __post_init__(self):
        _check_vars(self.n_vars)

    def to_json(self) -> dict:
        return {"kind": "E", "vars": self.n_vars}

    def closed_form(self) -> DeRhamDims:
        return DeRhamDims((0,) * self.n_vars + (1,))

    def cutoff_free(self, pole_cutoff: int, window: Tuple[int, int]) -> bool:
        # the basis constraint is a condition on the weight alone once the
        # cutoff clears the window
        return window == (0, 0) or -window[0] <= pole_cutoff - 1


@dataclass(frozen=True)
class MonomialLocalization(ModuleSpec):
    """Localization of the polynomial ring at a product of distinct variables."""

    n_vars: int
    inverted: frozenset

    def __post_init__(self):
        object.__setattr__(self, "inverted", frozenset(self.inverted))
        if any(not 0 <= i < self.n_vars for i in self.inverted):
            raise DimensionMismatch("inverted variable index out of range")

    def product(self) -> MultiPoly:
        """The monomial x_S of the inverted variables (1 when none is inverted)."""
        exp = [int(i in self.inverted) for i in range(self.n_vars)]
        return MultiPoly.monomial(self.n_vars, exp)

    def to_json(self) -> dict:
        return {"kind": "loc", "f": self.product().render(), "vars": self.n_vars}

    def closed_form(self) -> DeRhamDims:
        m = len(self.inverted)
        return DeRhamDims(tuple(comb(m, j) for j in range(self.n_vars + 1)))

    def engine(self) -> ModuleSpec:
        """The ring itself when nothing is inverted, else the pole complex of x_S."""
        if not self.inverted:
            return PolynomialRing(self.n_vars)
        return HypersurfaceLocalization(self.product())


@dataclass(eq=False, frozen=True)
class HypersurfaceLocalization(ModuleSpec):
    """Localization at a homogeneous f, optionally modulo the ring itself."""

    f: MultiPoly
    quotient_mod_A: bool = False

    def __post_init__(self):
        if not self.f or not self.f.is_homogeneous() or self.f.homogeneous_degree() < 1:
            raise DomainError("localization needs a nonzero homogeneous f of degree >= 1")

    def to_json(self) -> dict:
        kind = "loc-quot" if self.quotient_mod_A else "loc"
        return {"kind": kind, "f": self.f.render(), "vars": self.f.n_vars}

    def ambient_vars(self) -> int:
        return self.f.n_vars


@dataclass(eq=False, frozen=True)
class RankOneConnection(ModuleSpec):
    """k[x] with the twisted derivation a -> a' + a*p."""

    p: MultiPoly

    def __post_init__(self):
        if self.p.n_vars != 1:
            raise DomainError("rank-one connections are one-variable objects")

    def to_json(self) -> dict:
        return {"kind": "rank-one", "f": self.p.render(), "vars": 1}

    def ambient_vars(self) -> int:
        return 1


@dataclass(eq=False, frozen=True)
class DirectSum(ModuleSpec):
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise DomainError("direct sum needs at least one part")

    def to_json(self) -> dict:
        return {"kind": "sum", "parts": [p.to_json() for p in self.parts]}

    def ambient_vars(self) -> int:
        sizes = {p.ambient_vars() for p in self.parts}
        if len(sizes) != 1:
            raise DimensionMismatch("direct sum parts live over different variable counts")
        return sizes.pop()

    def closed_form(self) -> DeRhamDims:
        parts = [p.closed_form() for p in self.parts]
        n = self.ambient_vars()
        return DeRhamDims(tuple(sum(p[j] for p in parts) for j in range(n + 1)))


def _known(spec) -> ModuleSpec:
    """The spec itself; UnsupportedSpecError for anything else."""
    if not isinstance(spec, ModuleSpec):
        raise UnsupportedSpecError(f"unknown spec {spec!r}")
    return spec


def spec_to_json(spec: ModuleSpec) -> dict:
    return _known(spec).to_json()


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
    return _known(spec).ambient_vars()


# -------------------------------------------------------------- closed forms


def derham_closed_form(spec: ModuleSpec) -> DeRhamDims:
    """Known-answer route: R, E, monomial localizations, and direct sums."""
    return _known(spec).closed_form()


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

    E has its own rule: the column of x^-a dx_I holds -sign * a_i at the row
    of x^-(a+1_i) dx_(I+i).  Every other engine is a pole complex: for a
    hypersurface f, the column of x^e dx_I / f^k (k = cutoff + j) holds
    sign * c_a * (e_i - k a_i) at the row of x^(e+a-1_i) dx_(I+i) for every
    term c_a x^a of f and every i not in I, where sign is the wedge sign of
    moving dx_i into place; a zero factor writes no entry.  The inclusion
    column of x^a dx_I is f^k shifted by a.  R is the pole complex of the
    constant 1 (D = 0, entries sign * e_i, no inclusion).
    """
    spec = spec.engine()
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

    if isinstance(spec, PolynomialRing):
        f, quotient = MultiPoly.one(spec.n_vars), False  # the pole complex of 1
    elif isinstance(spec, HypersurfaceLocalization):
        f, quotient = spec.f, spec.quotient_mod_A
    else:
        raise UnsupportedSpecError(
            f"the truncation engine does not assemble {type(spec).__name__}"
        )
    n = f.n_vars
    D = f.homogeneous_degree()
    bases = []
    for j in range(n + 1):
        deg = tau - j + (cutoff + j) * D
        bases.append(
            [(I, e) for I in combinations(range(n), j) for e in graded_piece_basis(deg, n)]
        )
    # integral coefficients as ints: GradedMatrix stores every entry as a
    # Fraction anyway, and int products are much cheaper to form
    f_terms = [(fe, c.numerator if c.denominator == 1 else c) for fe, c in f.terms.items()]
    diffs = []
    for j in range(n):
        k = cutoff + j
        index = {lab: i for i, lab in enumerate(bases[j + 1])}
        steps = {
            I: [(i, _wedge_sign(i, I), _insert_sorted(i, I)) for i in range(n) if i not in I]
            for I in combinations(range(n), j)
        }
        cols = []
        for I, e in bases[j]:
            col = {}
            # exponents of g*f term by term; direction i lowers entry i by one
            products = [(tuple(a + b for a, b in zip(e, fe)), fe, c) for fe, c in f_terms]
            for i, sign, J in steps[I]:
                for s, fe, c in products:
                    factor = e[i] - k * fe[i]
                    if factor:
                        col[index[(J, s[:i] + (s[i] - 1,) + s[i + 1:])]] = sign * factor * c
            cols.append(col)
        diffs.append(GradedMatrix.from_columns(bases[j + 1], bases[j], cols))
    incls = None
    if quotient:
        incls = []
        for j in range(n + 1):
            index = {lab: i for i, lab in enumerate(bases[j])}
            sub = [
                (I, a)
                for I in combinations(range(n), j)
                for a in graded_piece_basis(tau - j, n)
            ]
            f_k = (f ** (cutoff + j)).terms if sub else {}
            cols = [
                {index[(I, tuple(x + y for x, y in zip(a, exp)))]: c for exp, c in f_k.items()}
                for I, a in sub
            ]
            incls.append(GradedMatrix.from_columns(bases[j], sub, cols))
    return bases, diffs, incls


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
    exclusion of plain ranks.  At lo = hi the map i is the identity and the
    formula gives dim H^j of the one complex.
    """
    for cut in (lo_cut, hi_cut):
        if (cut, tau) not in assembled:
            assembled[(cut, tau)] = assemble_complex(spec, cut, tau)
    bases_lo, diffs_lo, _ = assembled[(lo_cut, tau)]
    bases_hi, diffs_hi, incls_hi = assembled[(hi_cut, tau)]
    n_pos = len(bases_lo)
    count = sum(len(b) for b in bases_lo) + sum(len(b) for b in bases_hi)
    index_hi = [{lab: i for i, lab in enumerate(b)} for b in bases_hi]
    embed = [_embed_columns(spec, bases_lo[j], index_hi[j]) for j in range(n_pos)]
    diff_lo_cols = [m.columns() for m in diffs_lo]
    diff_hi_cols = [m.columns() for m in diffs_hi]
    a_hi_cols = [m.columns() for m in incls_hi] if incls_hi is not None else None

    # i(d u) for every low column, position by position
    pushed = [_compose_columns(embed[j + 1], diff_lo_cols[j]) for j in range(n_pos - 1)]
    pushed.append([{} for _ in bases_lo[-1]])

    dims = []
    for j in range(n_pos):
        top_cols = list(pushed[j])
        bot_cols = diff_hi_cols[j - 1] if j > 0 else []
        if a_hi_cols is not None:
            bot_cols = bot_cols + a_hi_cols[j]
            if j + 1 < n_pos:
                top_cols += a_hi_cols[j + 1]
        rank_top = rank_of_columns(c for c in top_cols if c)
        rank_bot = rank_of_columns(c for c in bot_cols if c)

        offset = len(bases_hi[j])
        m_cols: List[Dict[int, Fraction]] = []
        for idx in range(len(bases_lo[j])):
            col = dict(embed[j][idx])
            for r, c in pushed[j][idx].items():
                col[offset + r] = c
            m_cols.append(col)
        m_cols += bot_cols
        if a_hi_cols is not None and j + 1 < n_pos:
            m_cols += [{offset + r: c for r, c in col.items()} for col in a_hi_cols[j + 1]]
        rank_m = rank_of_columns(c for c in m_cols if c)

        h = rank_m - rank_top - rank_bot
        if h < 0:
            raise InternalCheckError("negative persistent rank in truncated complex")
        dims.append(h)
    return dims, count


def _window_dims(n: int, window: Tuple[int, int], piece) -> Tuple[Tuple[int, ...], int]:
    """Sum over the weights tau of the window of piece(tau) = (dims, basis count)."""
    total = [0] * (n + 1)
    basis_count = 0
    for tau in range(window[0], window[1] + 1):
        dims, count = piece(tau)
        basis_count += count
        for j in range(n + 1):
            total[j] += dims[j]
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
    dims at the higher one; ``stabilized`` means the two agreed.  A complex
    that ignores the cutoff (R, E) takes one exact pass at the cutoff.  The default
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

    n = ambient_vars(spec)
    engine = spec.engine()
    assembled: Dict[Tuple[int, int], tuple] = {}

    def pair_dims(lo_cut: int, hi_cut: int):
        return _window_dims(
            n, window, lambda tau: _persistent_tau_dims(engine, lo_cut, hi_cut, tau, assembled)
        )

    # ranks of the maps H(F_{K-2}) -> H(F_{K-1}) -> H(F_K); agreement of the
    # two persistent tables is the stabilization signal.  A cutoff-free
    # complex needs one pair, lo = hi = K: the map is the identity, so the
    # table is dim H^j and it is exact
    exact = spec.cutoff_free(pole_cutoff, window)
    high_pair = (pole_cutoff if exact else max(1, pole_cutoff - 1), pole_cutoff)
    dims_high, count_high = pair_dims(*high_pair)
    if pole_cutoff >= 3 and not exact:
        low_pair = (pole_cutoff - 2, pole_cutoff - 1)
        dims_low, count_low = pair_dims(*low_pair)
        stabilized = dims_low == dims_high
    else:
        low_pair = high_pair
        dims_low, count_low = dims_high, count_high
        stabilized = exact  # one pair certifies only a cutoff-free complex
    if count_low == 0 and count_high == 0:
        raise EmptyComplexError(
            f"no basis elements in window {window} at cutoffs {(low_pair[0], pole_cutoff)}"
        )

    smooth = None
    if isinstance(engine, HypersurfaceLocalization):
        smooth = jacobian_ring_is_finite(engine.f)
    certificate = "exact" if exact else "stabilized" if stabilized else "provisional"

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
    u = (-TruncatedSeries.from_poly(p, precision - 1).integrate(0)).exp()
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
