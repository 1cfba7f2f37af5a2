"""De Rham cohomology engines for explicit modules over polynomial rings.

Two independent routes are provided and cross-checked in the test suite:

* closed forms, where a formula is known (polynomial ring, injective hull of
  the origin, localization at a squarefree monomial);
* a truncated complex engine that assembles the actual graded pieces of the
  de Rham complex and computes ranks with exact fraction-free elimination
  over the integers.

The truncation engine filters by pole order: the subcomplex F_K allows pole
order at most K + j in form degree j, which is stable under d, and raising K
gives forward maps whose stabilization is the certification signal.  Every
table comes from one rank formula for the persistent cohomology of a pair of
cutoffs (``_persistent_dims``): with r(K, j) = rank[d C_(j-1) | A_j] in the
complex at cutoff K (A the polynomial subcomplex in quotient mode, else 0),
rank H^j(F_lo -> F_hi) = rank M - r(lo, j+1) - r(hi, j).  The pairs
(K-2, K-1) and (K-1, K) share the ranks of F_(K-1), so each r(K, j) is
eliminated once, and M continues the elimination of r(hi, j).  Where the
complex ignores the cutoff (R, and E once the cutoff clears the window) the
pair is one cutoff twice, the map is the identity and one pass is exact.
For a homogeneous input everything splits by internal weight (degree of the
coefficient minus pole-order times degree of f, plus form degree); the
contraction against the Euler vector field gives d(i_E w) + i_E(d w) = tau*w
on the weight-tau piece, so every class of nonzero weight dies in the limit
and the default window computes only weight 0.  An explicit window sums the
tables of several weights, which the tests use to see the nonzero weights
vanish.

Ranks are cleared (Chen and Kerber, Persistent homology computation with a
twist, 2011): a basis element at a pivot row of r(K, j) is dropped from d_j
and from the u-block of M without changing either span, and its column is
never built.  The elimination keeps only column-echelon form, whose pivot
vector at row p lies in B + A (a cycle modulo A) and touches, besides p,
only rows above p, kept ones and pivot rows.  By induction in decreasing
pivot row the columns at those pivot rows already lie in the span of the
kept columns (plus A), so the column at p does too.  Columns are primitive
integer dicts from the start: f is scaled to its primitive integer
multiple, which scales every column by a unit.  Their rows are the packed
keys of ``_Piece``, with no lookup table.

Pole-complex entries are written from their closed form, with no polynomial
products: for g = x^e and f = sum_a c_a x^a the numerator of d(g/f^k) in
direction i is f dg/dx_i - k g df/dx_i = sum_a c_a (e_i - k a_i) x^(e+a-1_i),
and distinct terms of f land on distinct monomials.  The polynomial ring is
the pole complex of f = 1, and E the same on negative exponents: every
spec gives its f (``ModuleSpec.pole_terms``).  The engine takes the spec
itself and asks it every question that depends on the kind: f, the basis
rule, the quotient flag, the smoothness gate and what agreement of two
cutoffs certifies.  ``spec_from_json`` is the one place that reads a kind.
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
from .linalg import GradedMatrix, _content_free, _reduce_into, rank_of_columns
from .poly import MultiPoly, _accumulate, _scaled, graded_piece_basis, graded_piece_codes
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
    non-smooth inputs still run, and a hypersurface that fails the gate
    reports agreement as "heuristic" instead of "stabilized".
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
    kind of module is an attribute or a method here, overridden by the kinds
    it concerns; every spec also has ``n_vars``."""

    #: whether the complex is taken modulo the polynomial subcomplex A
    quotient_mod_A = False

    def closed_form(self) -> DeRhamDims:
        raise UnsupportedSpecError(
            f"no closed form for {type(self).__name__}; use the truncation engine"
        )

    def cutoff_free(self, pole_cutoff: int, window: Tuple[int, int]) -> bool:
        """Whether the complex at this cutoff and window ignores the cutoff,
        so one pass is exact and no second cutoff is compared."""
        return False

    def pole_terms(self) -> Dict[Tuple[int, ...], Fraction]:
        """The pole polynomial f as {exponent: coefficient}.  Every spec is a
        pole complex: R that of the constant 1, and E the same on negative
        exponents, with a basis rule of its own (``basis``)."""
        return {(0,) * self.n_vars: Fraction(1)}

    def basis(self, deg: int, tau: int, cutoff: int, width: int):
        """The numerator exponents of degree ``deg`` in the weight-tau piece
        at the cutoff, with their packed codes (``graded_piece_codes``)."""
        return graded_piece_codes(deg, self.n_vars, width)

    def smoothness_gate(self) -> Optional[bool]:
        """The Jacobian gate of the pole polynomial; None where none applies."""
        return None

    def agreement(self, smooth: Optional[bool]) -> str:
        """The certificate of two agreeing cutoffs.  Here it is "stabilized"
        whatever the gate says: a monomial localization, which often fails
        the gate, is checked by its closed form."""
        return "stabilized"


def _check_vars(n_vars: int) -> None:
    if n_vars < 0:
        raise DomainError(f"the variable count must be nonnegative, got {n_vars}")


@dataclass(frozen=True)
class PolynomialRing(ModuleSpec):
    n_vars: int

    def __post_init__(self):
        _check_vars(self.n_vars)

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

    def closed_form(self) -> DeRhamDims:
        return DeRhamDims((0,) * self.n_vars + (1,))

    def cutoff_free(self, pole_cutoff: int, window: Tuple[int, int]) -> bool:
        # the basis constraint is a condition on the weight alone once the
        # cutoff clears the window
        return window == (0, 0) or -window[0] <= pole_cutoff - 1

    def basis(self, deg: int, tau: int, cutoff: int, width: int):
        """x^e with every e_i <= -1, present only while -tau <= cutoff: e = -1 - a
        with deg a = -deg - n, and codes are linear."""
        n = self.n_vars
        if -tau > cutoff:
            return [], []
        exps, codes = graded_piece_codes(-deg - n, n, width)
        ones = sum(1 << (width * (i + 1)) for i in range(n))
        return [tuple(-1 - a for a in e) for e in exps], [-ones - c for c in codes]


@dataclass(frozen=True)
class MonomialLocalization(ModuleSpec):
    """Localization of the polynomial ring at a product of distinct variables,
    the pole complex of x_S (of 1, the ring itself, when nothing is inverted)."""

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

    def closed_form(self) -> DeRhamDims:
        m = len(self.inverted)
        return DeRhamDims(tuple(comb(m, j) for j in range(self.n_vars + 1)))

    def pole_terms(self) -> Dict[Tuple[int, ...], Fraction]:
        return self.product().terms

    def smoothness_gate(self) -> Optional[bool]:
        return jacobian_ring_is_finite(self.product()) if self.inverted else None


@dataclass(eq=False, frozen=True)
class HypersurfaceLocalization(ModuleSpec):
    """Localization at a homogeneous f, optionally modulo the ring itself."""

    f: MultiPoly
    quotient_mod_A: bool = False

    def __post_init__(self):
        if not self.f or not self.f.is_homogeneous() or self.f.homogeneous_degree() < 1:
            raise DomainError("localization needs a nonzero homogeneous f of degree >= 1")

    @property
    def n_vars(self) -> int:
        return self.f.n_vars

    def pole_terms(self) -> Dict[Tuple[int, ...], Fraction]:
        return self.f.terms

    def smoothness_gate(self) -> Optional[bool]:
        return jacobian_ring_is_finite(self.f)

    def agreement(self, smooth: Optional[bool]) -> str:
        # past a failed smoothness gate agreement certifies nothing
        return "heuristic" if smooth is False else "stabilized"


def _known(spec) -> ModuleSpec:
    """The spec itself; UnsupportedSpecError for anything else."""
    if not isinstance(spec, ModuleSpec):
        raise UnsupportedSpecError(f"unknown spec {spec!r}")
    return spec


def _squarefree_variable_set(f: MultiPoly) -> Optional[frozenset]:
    """The variable set when f is a coefficient-1 product of distinct variables."""
    if len(f.terms) != 1:
        return None
    (exp, c), = f.terms.items()
    if c != 1 or any(e > 1 for e in exp):
        return None
    return frozenset(i for i, e in enumerate(exp) if e == 1)


def spec_from_json(data: dict) -> ModuleSpec:
    """The spec of {"kind": "R" | "E", "vars": n} or {"kind": "loc" |
    "loc-quot", "f": text, "vars": n (optional)}; the one place that reads
    the kind.  R and E refuse an "f".  A squarefree monomial under "loc" is
    a MonomialLocalization."""
    kind = data.get("kind")
    if kind not in ("R", "E", "loc", "loc-quot"):
        raise UnsupportedSpecError(f"unknown module kind {kind!r}")

    def field(name: str, kind_of: type, required: bool = True):
        value = data.get(name)
        if value is None and not required:
            return None
        if type(value) is not kind_of:
            raise UnsupportedSpecError(
                f"module kind {kind!r} needs {name!r} as {kind_of.__name__}"
            )
        return value

    if kind in ("R", "E"):
        n = field("vars", int)
        if data.get("f") is not None:
            raise UnsupportedSpecError(f"module kind {kind!r} takes no 'f'")
        return PolynomialRing(n) if kind == "R" else InjectiveHull(n)
    f = parse_poly(field("f", str), field("vars", int, required=False))
    if kind == "loc":
        s = _squarefree_variable_set(f)
        if s is not None:
            return MonomialLocalization(f.n_vars, s)
    return HypersurfaceLocalization(f, quotient_mod_A=(kind == "loc-quot"))


# -------------------------------------------------------------- closed forms


def derham_closed_form(spec: ModuleSpec) -> DeRhamDims:
    """Known-answer route: R, E and monomial localizations."""
    return _known(spec).closed_form()


# ------------------------------------------------- graded complex assembly


def _wedge_sign(i: int, index_set: Tuple[int, ...]) -> int:
    return -1 if sum(1 for k in index_set if k < i) % 2 else 1


def _key_width(n: int, f, cutoff: int, window: Tuple[int, int]) -> int:
    """Bits per digit of the packed basis keys of every piece of the pole
    complex of f at cutoffs up to ``cutoff`` over ``window``: room for the
    index-set mask and for all exponents, E's negative ones included (each
    |e_i| <= |deg e| + n + 1).  The top cutoff bounds the lower ones: a
    nonnegative degree only grows with the cutoff, and a negative one has no
    monomials unless D = 0, where the cutoff does not enter."""
    degree = sum(next(iter(f)))
    top = max(abs(tau - j + (cutoff + j) * degree) for tau in window for j in range(n + 1))
    return max(n, (top + n + 1).bit_length())


class _Piece:
    """The weight-tau piece of a spec's complex at one pole cutoff.

    The basis of form degree j is x^e dx_I / f^k with k = cutoff + j and
    deg e = tau - j + kD; for E it is x^e dx_I with every e_i <= -1,
    deg e = tau - j, present only while -tau <= cutoff (the spec's
    ``basis``).  It is stored as the index sets ``sets[j]`` times the
    exponents ``exps[j]``, element s * len(exps[j]) + t being
    (sets[j][s], exps[j][t]).  Each element has
    the packed key mask(I) + sum_i e_i << (width * (i + 1)) (``keys[j]``),
    and the keys are the row numbers of every column: they are one-to-one
    on (I, e), and linear, so the row of x^(e+a-1_i) dx_(I+i) is the key of
    x^e dx_I plus one precomputed int.  Pieces compared by
    ``_persistent_dims`` share one ``width``.  Columns are built on demand
    from the rule in ``assemble_complex``, with f given as
    {exponent: coefficient}: with integer f every entry is an int.

    The rank path asks for r(j) = rank[d C_(j-1) | A_j] in order of j.  Each
    is eliminated once; the d columns it reads are only those outside the
    pivot rows of r(j-1) (clearing), built once and, when the piece is the
    ``low`` end of a pair, kept for the persistence matrix; its pivot state
    stays live until the next rank, for that matrix to continue.
    """

    def __init__(self, spec: ModuleSpec, f, cutoff: int, tau: int, width: int, low: bool = True):
        n = spec.n_vars
        degree = sum(next(iter(f)))
        self.n, self.f, self.cutoff, self.tau, self.width = n, f, cutoff, tau, width
        # only the low end of a pair reads its d columns again, in M
        self.low = low
        self.quotient = spec.quotient_mod_A
        self.units = [1 << (width * (i + 1)) for i in range(n)]
        self.sets, self.exps, self.keys = [], [], []
        for j in range(n + 1):
            exps, codes = spec.basis(tau - j + (cutoff + j) * degree, tau, cutoff, width)
            # no index sets without exponents: R and E have C(n, j) of them
            sets = list(combinations(range(n), j)) if exps else []
            keys = [mask + c for mask in map(_mask, sets) for c in codes]
            self.sets.append(sets)
            self.exps.append(exps)
            self.keys.append(keys)
        self.ranks: List[int] = []
        self.kept: List[List[int]] = []  # basis indices off the pivot rows of r(j)
        self.live = None  # (j, pivots) of the latest r(j)
        self.dcols: Dict[int, list] = {}

    def code(self, e: Sequence[int]) -> int:
        """The packed code of an exponent, the key of x^e with I empty."""
        return sum(x * u for x, u in zip(e, self.units))

    def labels(self, j: int) -> list:
        """The basis of form degree j as (I, e) pairs."""
        return [(I, e) for I in self.sets[j] for e in self.exps[j]]

    def d_columns(self, j: int, kept: Sequence[int]) -> List[dict]:
        """Columns of d_j at the basis indices ``kept`` (empty at j = n)."""
        n, k = self.n, self.cutoff + j
        keys, exps = self.keys[j], self.exps[j]
        f = [(fe, c, self.code(fe)) for fe, c in self.f.items()]
        # per index set I: (i, k a_i, sign * c_a, key step) for every term
        # c_a x^a of f and every i not in I
        steps = [
            [
                (i, k * fe[i], _wedge_sign(i, I) * c, code + (1 << i) - self.units[i])
                for fe, c, code in f
                for i in range(n)
                if i not in I
            ]
            for I in self.sets[j]
        ]
        m = len(exps)
        cols = []
        for idx in kept:
            e, key = exps[idx % m], keys[idx]
            col = {}
            for i, ka, sc, step in steps[idx // m]:
                factor = e[i] - ka
                if factor:
                    col[key + step] = sc * factor
            cols.append(col)
        return cols

    def a_columns(self, j: int) -> List[dict]:
        """Columns of the polynomial j-forms x^a dx_I = x^a f^k dx_I / f^k, I then
        a in basis order (quotient mode; none otherwise)."""
        if not self.quotient or j > self.n:
            return []
        n = self.n
        codes = graded_piece_codes(self.tau - j, n, self.width)[1]
        if not codes:
            return []
        f_k = {(0,) * n: 1}
        for _ in range(self.cutoff + j):
            f_k = _accumulate(f_k, self.f)
        f_k = [(self.code(exp), c) for exp, c in f_k.items() if c]
        return [
            {mask + code + shift: c for shift, c in f_k}
            for mask in map(_mask, combinations(range(n), j))
            for code in codes
        ]

    def rank(self, j: int) -> int:
        """r(j), 0 past the top degree; every r(i) with i <= j is then known."""
        while len(self.ranks) <= min(j, self.n):
            self._eliminate(len(self.ranks))
        return self.ranks[j] if j <= self.n else 0

    def _eliminate(self, j: int) -> None:
        pivots: Dict[int, Dict[int, int]] = {}
        _reduce_into(pivots, self.d_kept(j - 1) if j else ())
        if not self.low:
            self.dcols.pop(j - 1, None)
        _reduce_into(pivots, self.a_columns(j))
        self.ranks.append(len(pivots))
        self.kept.append([i for i, key in enumerate(self.keys[j]) if key not in pivots])
        self.live = (j, pivots)

    def d_kept(self, j: int) -> List[dict]:
        """d_j on the basis indices that survive clearing by r(j), built once."""
        cols = self.dcols.get(j)
        if cols is None:
            cols = self.dcols[j] = self.d_columns(j, self.kept[j])
        return cols

    def take(self, j: int) -> Dict[int, Dict[int, int]]:
        """The live pivot state of r(j), handed over once."""
        self.rank(j)
        live, self.live = self.live, None
        if live is None or live[0] != j:
            raise InternalCheckError(f"the pivot state of r({j}) is no longer live")
        return live[1]


def _mask(index_set: Sequence[int]) -> int:
    return sum(1 << i for i in index_set)


def assemble_complex(spec: ModuleSpec, cutoff: int, tau: int):
    """Graded piece of the de Rham complex at internal weight tau.

    Returns (bases, diffs, incls):
      bases[j]  -- list of column labels (I, e) in form degree j,
      diffs[j]  -- GradedMatrix C^j -> C^(j+1),
      incls[j]  -- inclusion of the polynomial subcomplex (hypersurface
                   quotient mode only, else None).

    Every engine is a pole complex: for a hypersurface f, the column of
    x^e dx_I / f^k (k = cutoff + j) holds sign * c_a * (e_i - k a_i) at the
    row of x^(e+a-1_i) dx_(I+i) for every term c_a x^a of f and every i not
    in I, where sign is the wedge sign of moving dx_i into place; a zero
    factor writes no entry.  The inclusion column of x^a dx_I is f^k shifted
    by a.  R is the pole complex of the constant 1 (D = 0, entries
    sign * e_i, no inclusion), and E the same on exponents e <= -1: the
    column of x^e dx_I holds sign * e_i at the row of x^(e-1_i) dx_(I+i).
    The rank path builds the same columns through ``_Piece``.
    """
    f = spec.pole_terms()
    n = spec.n_vars
    piece = _Piece(spec, f, cutoff, tau, _key_width(n, f, cutoff, (tau, tau)))
    bases = [piece.labels(j) for j in range(n + 1)]
    rows = [dict(zip(keys, range(len(keys)))) for keys in piece.keys]

    def matrix(j, labels, columns):
        return GradedMatrix.from_columns(
            bases[j], labels, [{rows[j][r]: c for r, c in col.items()} for col in columns]
        )

    diffs = [
        matrix(j + 1, base, piece.d_columns(j, range(len(base))))
        for j, base in enumerate(bases[:-1])
    ]
    incls = None
    if piece.quotient:
        incls = []
        for j in range(n + 1):
            exps = graded_piece_basis(tau - j, n)
            labels = [(I, a) for I in combinations(range(n), j) for a in exps]
            incls.append(matrix(j, labels, piece.a_columns(j)))
    return bases, diffs, incls


def _persistent_dims(lo: _Piece, hi: _Piece) -> List[int]:
    """Ranks of H^j(F_lo) -> H^j(F_hi) for one weight piece.

    Uses only matrix ranks: writing r(K, j) = rank[d C_(j-1) | A_j] in the
    complex at cutoff K, with A the polynomial subcomplex in quotient mode
    (else 0), and i the injective chain map F_lo -> F_hi, which maps A_lo
    onto A_hi,

        rank H^j = rank M - r(lo, j+1) - r(hi, j)

    where M sends (u, w, a, b) in C_lo,j + C_hi,j-1 + A_hi,j + A_lo,j+1 to
    (i u + d w + a, d u + b).  The kernel of the second coordinate is the
    low cycles modulo A, so the first coordinate maps it onto i(Z) + B_hi +
    A_hi.  Rows are the packed keys of both pieces: the first block holds
    j-forms and the second (j+1)-forms, so no key is in both.  M continues
    the live pivot state of r(hi, j), whose columns are exactly
    (d w + a, 0).  A u at a pivot row of r(lo, j) is cleared: its
    echelon pivot vector lies in B_lo + A_lo, so its M column lies in the
    span of the (d w + a, 0) and (0, b) columns and of the M columns at the
    rows the vector also touches, which are kept or, by induction in
    decreasing pivot row, themselves in that span.  At lo = hi the map i is
    the identity and the formula gives dim H^j.
    """
    n = lo.n
    # i multiplies numerators by f, and is the identity at lo = hi
    shifts = [(lo.code(fe), c) for fe, c in lo.f.items()] if lo is not hi else [(0, 1)]
    dims = []
    for j in range(n + 1):
        pivots = hi.take(j)
        bottom, top = len(pivots), lo.rank(j + 1)
        keys = lo.keys[j]
        cols = lo.a_columns(j + 1)
        for idx, d in zip(lo.kept[j], lo.d_kept(j)):
            key = keys[idx]
            col = {key + shift: c for shift, c in shifts}
            col.update(d)
            cols.append(col)
        lo.dcols.pop(j)
        _reduce_into(pivots, cols)
        h = len(pivots) - top - bottom
        if h < 0:
            raise InternalCheckError("negative persistent rank in truncated complex")
        dims.append(h)
    return dims


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
    window = tuple(degree_window) if degree_window is not None else (0, 0)
    if window[0] > window[1]:
        raise DomainError("degree window must be nondecreasing")

    n = _known(spec).n_vars
    # every column scales by a unit under f -> c f, so f's primitive integer
    # multiple gives the same ranks with int columns throughout
    f = _content_free(_scaled(spec.pole_terms())[0])
    # ranks of the maps H(F_{K-2}) -> H(F_{K-1}) -> H(F_K); agreement of the
    # two persistent tables is the stabilization signal.  A cutoff-free
    # complex needs one pair, lo = hi = K: the map is the identity, so the
    # table is dim H^j and it is exact.  The low pair runs first: its M
    # continues the live pivot states of F_{K-1}, whose ranks the high pair
    # then only reads
    exact = spec.cutoff_free(pole_cutoff, window)
    K = pole_cutoff
    width = _key_width(n, f, K, window)
    if exact:
        pairs = [(K, K)]
    elif K >= 3:
        pairs = [(K - 2, K - 1), (K - 1, K)]
    else:
        pairs = [(max(1, K - 1), K)]
    tables = [[0] * (n + 1) for _ in pairs]
    basis_count = 0
    lows = {lo for lo, _ in pairs}
    for tau in range(window[0], window[1] + 1):
        pieces: Dict[int, _Piece] = {}
        for table, (lo, hi) in zip(tables, pairs):
            for cut in (lo, hi):
                if cut not in pieces:
                    pieces[cut] = _Piece(spec, f, cut, tau, width, low=cut in lows)
            for j, h in enumerate(_persistent_dims(pieces[lo], pieces[hi])):
                table[j] += h
        basis_count += sum(len(keys) for piece in pieces.values() for keys in piece.keys)
    if basis_count == 0:
        raise EmptyComplexError(
            f"no basis elements in window {window} at cutoffs {(pairs[0][0], K)}"
        )
    dims_low, dims_high = tuple(tables[0]), tuple(tables[-1])
    stabilized = dims_low == dims_high if len(pairs) == 2 else exact

    smooth = spec.smoothness_gate()
    certificate = "exact" if exact else spec.agreement(smooth) if stabilized else "provisional"

    report = TruncationReport(
        cutoffs=(pairs[-1][0], pole_cutoff),
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
