"""De Rham cohomology engines for explicit modules over polynomial rings.

Two independent routes are provided and cross-checked in the test suite:

* closed forms, where a formula is known (polynomial ring, injective hull of
  the origin, localization at a squarefree monomial);
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
and the default window computes only weight 0.  An explicit window sums the
tables of several weights, which the tests use to see the nonzero weights
vanish.  In quotient mode the complex is taken modulo the polynomial
subcomplex, which i_E preserves: its weight-tau piece lies in every F_K and
is acyclic for tau != 0, and at weight 0 it is k*1 in degree 0.  So the
engine takes out A = k * (f^K / f^K) at weight 0 and A = 0 elsewhere, and a
loc-quot table is the loc table minus 1 in degree 0 when the window holds 0.

Every table comes from one rank formula for the persistent cohomology of a
pair of cutoffs (``_persistent_dims``): with r(K, j) = rank[d C_(j-1) | A_j]
in the complex at cutoff K, rank H^j(F_lo -> F_hi) = rank[P_hi(j) | Q_lo(j)]
- r(hi, j), where P_hi(j) spans B_hi + A_hi and Q_lo(j), with dim H^j(F_lo)
vectors, comes out of the low complex's own elimination of r(lo, j+1) (the
standard persistence algorithm: Zomorodian and Carlsson, Computing
persistent homology, 2005).  Each r(K, j) is eliminated once.  Where the
complex ignores the cutoff (R, and E once the cutoff clears the window) the
pair is one cutoff twice, the map is the identity and one pass is exact.

Ranks are cleared (Chen and Kerber, Persistent homology computation with a
twist, 2011): a basis element at a pivot row of r(K, j) is dropped from d_j
without changing d C_j, and its column is never built.  The elimination
keeps only column-echelon form, whose pivot vector at row p lies in B + A
(so d maps it to 0) and touches, besides p, only rows above p, kept ones and
pivot rows; by induction in decreasing pivot row, C_j = span kept + B + A.
Columns are primitive integer dicts from the start: f is scaled to its
primitive integer multiple, which scales every column by a unit.  Their
rows are the packed keys of ``_Piece``.

Pole-complex entries are written from their closed form, with no polynomial
products: for g = x^e and f = sum_a c_a x^a the numerator of d(g/f^k) in
direction i is f dg/dx_i - k g df/dx_i = sum_a c_a (e_i - k a_i) x^(e+a-1_i),
and distinct terms of f land on distinct monomials.  The polynomial ring is
the pole complex of f = 1, and E the same on negative exponents: every
spec gives its f (``ModuleSpec.pole_terms``).  The engine takes the spec
itself and asks it every question that depends on the kind: f, the basis
rule, whether the class of 1 is taken out, the smoothness gate and what
agreement of two cutoffs certifies.  ``spec_from_json`` is the one place
that reads a kind.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class DeRhamDims(tuple):
    """Cohomology dimensions indexed by form degree 0..n: a tuple of
    nonnegative ints."""

    __slots__ = ()

    def __new__(cls, dims):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise DomainError("cohomology dimensions cannot be negative")
        return super().__new__(cls, dims)

    @property
    def euler(self) -> int:
        return sum((-1) ** j * d for j, d in enumerate(self))


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

    #: whether the complex is taken modulo the polynomial subcomplex, which
    #: takes out the class of 1 at weight 0 (module docstring)
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
    monomials unless D = 0, where the cutoff does not enter.  So every key,
    E's negative ones included, has |key| < 2^(width (n+1)), and a low
    piece's tails, at rows key + 2^(width (n+1) + 1), lie at or above that
    bound, which no key reaches."""
    degree = sum(next(iter(f)))
    top = max(abs(tau - j + (cutoff + j) * degree) for tau in window for j in range(n + 1))
    return max(n, (top + n + 1).bit_length())


class _Piece:
    """The weight-tau piece of a spec's complex at one pole cutoff.

    The basis of form degree j is x^e dx_I / f^k with k = cutoff + j and
    deg e = tau - j + kD; for E it is x^e dx_I with every e_i <= -1,
    deg e = tau - j, present only while -tau <= cutoff (the spec's
    ``basis``).  Element s * len(exps[j]) + t is (sets[j][s], exps[j][t]),
    with the packed key mask(I) + sum_i e_i << (width * (i + 1))
    (``keys[j]``).  Keys are the row numbers of every column: one-to-one on
    (I, e) and linear, so the row of x^(e+a-1_i) dx_(I+i) is the key of
    x^e dx_I plus one precomputed int.  Pieces of a pair share one
    ``width``.  With f given as {exponent: int} every entry is an int.

    The rank path asks for r(j) = rank[d C_(j-1) | A_j] in order of j, A the
    span of 1 = f^cutoff / f^cutoff at weight 0 in quotient mode, else 0.  Each
    is eliminated once, from the d columns off the pivot rows of r(j-1)
    (clearing); its pivot state stays live for ``_persistent_dims`` to
    continue.  The low end of a pair, with its high end at cutoff ``high``,
    carries the chain map i into it, multiplication of numerators by
    f^(high - cutoff) (``image``), and gives each d column d u the tail u
    at the row key(u) + 2 bound, where every |key| < ``bound``.  A pivot
    row then stays below ``bound`` unless the d-part reduces to 0, so those
    pivots are the ones of r(j).  The pivots at or above ``bound``, popped,
    shifted back and pushed through i, are ``cycles[j-1]``, a basis of
    i(Z ∩ span kept); a tail u instead of i u holds one entry, not the
    terms of f.
    """

    def __init__(self, spec: ModuleSpec, f, cutoff: int, tau: int, width: int, high: Optional[int] = None):
        n = spec.n_vars
        degree = sum(next(iter(f)))
        self.n, self.f, self.cutoff, self.tau, self.width = n, f, cutoff, tau, width
        self.one = spec.quotient_mod_A and tau == 0  # whether A_0 = k * 1
        self.units = [1 << (width * (i + 1)) for i in range(n)]
        self.bound = 1 << (width * (n + 1))  # |key| < bound (``_key_width``)
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
        # i as {key shift: coefficient}, None off the low end of a pair
        self.image = None if high is None else self.f_power(high - cutoff)
        self.cycles: Dict[int, List[dict]] = {}

    def code(self, e: Sequence[int]) -> int:
        """The packed code of an exponent, the key of x^e with I empty."""
        return sum(x * u for x, u in zip(e, self.units))

    def f_power(self, m: int) -> Dict[int, int]:
        """f^m as {packed code of the exponent: coefficient}."""
        f_m = {(0,) * self.n: 1}
        for _ in range(m):
            f_m = _accumulate(f_m, self.f)
        return {self.code(exp): c for exp, c in f_m.items() if c}

    def labels(self, j: int) -> list:
        """The basis of form degree j as (I, e) pairs."""
        return [(I, e) for I in self.sets[j] for e in self.exps[j]]

    def d_columns(self, j: int, kept: Sequence[int], tails: bool = False) -> List[dict]:
        """Columns of d_j at the basis indices ``kept`` (empty at j = n); with
        ``tails``, the column of u also holds 1 at the row key(u) + 2 bound."""
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
        m, tail = len(exps), 2 * self.bound
        cols = []
        for idx in kept:
            e, key = exps[idx % m], keys[idx]
            col = {key + tail: 1} if tails else {}
            for i, ka, sc, step in steps[idx // m]:
                factor = e[i] - ka
                if factor:
                    col[key + step] = sc * factor
            cols.append(col)
        return cols

    def rank(self, j: int) -> int:
        """r(j), 0 past the top degree; every r(i) with i <= j is then known."""
        while len(self.ranks) <= min(j, self.n):
            self._eliminate(len(self.ranks))
        return self.ranks[j] if j <= self.n else 0

    def _eliminate(self, j: int) -> None:
        tails = j > 0 and self.image is not None
        if j:
            cols = self.d_columns(j - 1, self.kept[j - 1], tails)
        else:
            cols = [self.f_power(self.cutoff)] if self.one else []
        pivots: Dict[int, Dict[int, int]] = {}
        _reduce_into(pivots, cols)
        if tails:
            # the tails are distinct unit vectors, so no column reduces to 0;
            # one that does lost its tail, say to a collision of a key with a
            # tail row
            if len(pivots) != len(cols):
                raise InternalCheckError(f"a column of r({j}) lost its tail")
            bound = self.bound
            cycles = [pivots.pop(p) for p in [p for p in pivots if p >= bound]]
            self.cycles[j - 1] = [self.push({r - 2 * bound: c for r, c in v.items()}) for v in cycles]
        self.ranks.append(len(pivots))
        self.kept.append([i for i, key in enumerate(self.keys[j]) if key not in pivots])
        self.live = (j, pivots)

    def cycle_images(self, j: int) -> List[dict]:
        """Q(j), a basis of i(Z ∩ span kept) in form degree j, handed over
        once; at the top degree every n-form is a cycle, and no d_n is built."""
        if j < self.n:
            self.rank(j + 1)
            return self.cycles.pop(j)
        self.rank(j)
        keys = self.keys[j]
        return [self.push({keys[idx]: 1}) for idx in self.kept[j]]

    def push(self, v: Dict[int, int]) -> Dict[int, int]:
        """i v, zeros dropped."""
        return {r: x for r, x in _accumulate(v, self.image, lambda a, b: ((a + b, 1),)).items() if x}

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

    Returns (bases, diffs, None): bases[j] lists the column labels (I, e) in
    form degree j and diffs[j] is the GradedMatrix C^j -> C^(j+1); the None
    keeps the shape that the tracer of ``benchmarks`` unpacks.

    The column of x^e dx_I / f^k (k = cutoff + j) holds sign * c_a *
    (e_i - k a_i) at the row of x^(e+a-1_i) dx_(I+i) for every term c_a x^a
    of f and every i not in I, sign the wedge sign of moving dx_i into place
    (module docstring).  These are the columns of ``_Piece``, which the rank
    path uses.
    """
    f = spec.pole_terms()
    n = spec.n_vars
    piece = _Piece(spec, f, cutoff, tau, _key_width(n, f, cutoff, (tau, tau)))
    bases = [piece.labels(j) for j in range(n + 1)]
    diffs = []
    for j, base in enumerate(bases[:-1]):
        row = dict(zip(piece.keys[j + 1], range(len(bases[j + 1]))))
        columns = piece.d_columns(j, range(len(base)))
        entries = {(row[r], s): c for s, col in enumerate(columns) for r, c in col.items()}
        diffs.append(GradedMatrix(bases[j + 1], base, entries))
    return bases, diffs, None


def _persistent_dims(lo: _Piece, hi: _Piece) -> List[int]:
    """Ranks of H^j(F_lo) -> H^j(F_hi) for one weight piece.

    A is 0 in every degree that d reaches, so the cycles Z modulo A are
    plain cycles.  With i the injective chain map F_lo -> F_hi, which maps
    A_lo onto A_hi (1 to 1), the image is i(Z_lo) + B_hi + A_hi modulo B_hi
    + A_hi, so rank H^j = rank[P_hi(j) | Q_lo(j)] - r(hi, j), with P_hi(j)
    the pivot vectors of r(hi, j), a basis of B_hi + A_hi, and Q_lo(j) =
    ``lo.cycle_images(j)``, a basis of i(Z_lo ∩ span kept).

    That suffices: i of a cleared pivot vector of r(lo, j) lies in B_hi +
    A_hi, as the vector lies in B_lo + A_lo, so with C_j = span kept + B_lo
    + A_lo (module docstring) Z_lo = (Z_lo ∩ span kept) + B_lo + A_lo.  And
    span Q = i(Z_lo ∩ span kept): a combination of the columns d u + u (u
    shifted) of r(lo, j+1) has no row below ``bound`` exactly when d u = 0,
    and is then u; the pivots at or above ``bound`` span those u.  A nonzero
    vector of B_lo + A_lo has its lowest row at a pivot row, which no kept
    element touches, so the sum is direct and len(Q) = dim H^j(F_lo).

    When the high piece is the low end of another pair, or lo = hi, its
    pivot vectors carry tails that stand for nothing in F_hi, so a Q vector
    counts only when its residual keeps a row below ``bound``.  At lo = hi
    the map i is the identity and the formula gives dim H^j.
    """
    dims = []
    for j in range(lo.n + 1):
        pivots = hi.take(j)
        bottom = len(pivots)
        _reduce_into(pivots, lo.cycle_images(j))
        dims.append(sum(1 for p in pivots if p < lo.bound) - bottom)
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
    # two tables is the stabilization signal.  A cutoff-free complex needs one
    # pair, lo = hi = K, whose map is the identity: the table is dim H^j, exact.
    # A low end is built with its high cutoff, so that its eliminations yield
    # its cycle images; the low pair's continue the live pivot states of F_{K-1}
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
    highs = dict(pairs)
    for tau in range(window[0], window[1] + 1):
        pieces: Dict[int, _Piece] = {}
        for table, (lo, hi) in zip(tables, pairs):
            for cut in (lo, hi):
                if cut not in pieces:
                    pieces[cut] = _Piece(spec, f, cut, tau, width, highs.get(cut))
            for j, h in enumerate(_persistent_dims(pieces[lo], pieces[hi])):
                table[j] += h
        basis_count += sum(len(keys) for piece in pieces.values() for keys in piece.keys)
    if basis_count == 0:
        raise EmptyComplexError(
            f"no basis elements in window {window} at cutoffs {(pairs[0][0], K)}"
        )
    dims_low, dims = tuple(tables[0]), DeRhamDims(tables[-1])
    stabilized = dims_low == dims if len(pairs) == 2 else exact

    smooth = spec.smoothness_gate()
    certificate = "exact" if exact else spec.agreement(smooth) if stabilized else "provisional"

    report = TruncationReport(
        cutoffs=(pairs[-1][0], pole_cutoff),
        window=window,
        dims_low=dims_low,
        stabilized=stabilized,
        certificate=certificate,
        smooth=smooth,
    )
    return dims, report


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
